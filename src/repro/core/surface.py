"""The Surface component: discover instances from the Surface Web (paper §2).

Pipeline (Figure 3): analyse the label's syntax → formulate extraction
queries → pose them to the search engine and extract instance candidates
from result snippets → remove statistical outliers → validate the remaining
candidates by their Web co-occurrence with the label (PMI) → return the
top-k.

Instance discovery is treated as question answering: an extraction query is
an incomplete sentence ("departure cities such as") that the Web completes
with instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.deepweb.models import Attribute, QueryInterface
from repro.obs.provenance import (
    DiscoverySummary,
    InstanceLineage,
    PruneEvent,
    ProvenanceRecorder,
    ValidationEvidence,
)
from repro.perf.cache import ValidationCache, normalize_query
from repro.stats.outliers import (
    STRING_STATISTIC_NAMES,
    discordancy_outliers,
    numeric_test_statistics,
    parse_numeric,
    string_test_statistics,
)
from repro.stats.pmi import mean_pmi, pmi
from repro.surfaceweb.engine import SearchEngine, SearchResult
from repro.text.labels import LabelAnalysis, NounPhrase, analyze_label, clean_label
from repro.text.postag import TaggedToken, default_tagger
from repro.util import counters as work

__all__ = [
    "SurfaceConfig",
    "ExtractionQuery",
    "ExtractionQueryBuilder",
    "SnippetExtractor",
    "SurfaceMemo",
    "WebValidator",
    "SurfaceDiscoverer",
    "SurfaceResult",
]


class Completion(enum.Enum):
    """Where a pattern's completion sits relative to its cue phrase."""

    AFTER = "after"
    BEFORE = "before"


@dataclass(frozen=True)
class ExtractionQuery:
    """One materialised extraction query.

    ``query`` is the full search-engine string (quoted cue + ``+keywords``);
    ``cue_words`` the lower-cased cue-phrase words the extraction rule will
    look for in snippets; ``is_set`` distinguishes set patterns (s1-s4, list
    completions) from singleton patterns (g1-g4, one NP).
    """

    query: str
    cue_words: Tuple[str, ...]
    completion: Completion
    is_set: bool
    pattern: str


@dataclass(frozen=True)
class SurfaceConfig:
    """Knobs of the Surface component (paper defaults where stated)."""

    #: target number of instances ("returns up to k instances"; §6 counts an
    #: acquisition successful when at least 10 instances are obtained)
    k: int = 10
    #: snippets downloaded per extraction query ("top k snippets")
    snippets_per_query: int = 10
    #: discordancy threshold in standard deviations
    sigma: float = 3.0
    #: fraction of candidates that must be numeric to call the domain numeric
    numeric_majority: float = 0.8
    #: longest candidate accepted (characters); guards against parse runaway
    max_candidate_chars: int = 40
    #: at most this many candidates enter Web validation (each one costs
    #: several search-engine queries); extras are dropped in extraction order
    max_validated_candidates: int = 25
    #: disable the discordancy-test stage (ablation; the paper keeps it on)
    enable_outlier_removal: bool = True
    #: candidate scoring: "pmi" (the paper's) or "hits" (raw joint hit
    #: counts — the alternative the paper rejects for its popularity bias)
    scoring: str = "pmi"


# ---------------------------------------------------------------------------
# Extraction-query formulation (paper §2.1, Figure 4)
# ---------------------------------------------------------------------------

class ExtractionQueryBuilder:
    """Materialises the extraction patterns for an attribute's noun phrases.

    Set patterns::

        s1: Ls such as NP1, ..., NPn      s3: Ls including NP1, ..., NPn
        s2: such Ls as NP1, ..., NPn      s4: NP1, ..., NPn, and other Ls

    Singleton patterns::

        g1: the L of the O is NP          g3: NP is the L of the O
        g2: the L is NP                   g4: NP is the L

    Domain information (the domain and object names, per §2.1) is attached
    as ``+keyword`` filters to narrow the queries' scope.
    """

    def build(
        self,
        analysis: LabelAnalysis,
        domain_keywords: Sequence[str] = (),
        object_name: str = "object",
    ) -> List[ExtractionQuery]:
        """All extraction queries for a label analysis (empty if no NP)."""
        queries: List[ExtractionQuery] = []
        suffix = "".join(f" +{kw}" for kw in domain_keywords)
        for np in analysis.noun_phrases:
            plural = np.plural
            singular = np.text
            cues = [
                (f"{plural} such as", Completion.AFTER, True, "s1"),
                (f"such {plural} as", Completion.AFTER, True, "s2"),
                (f"{plural} including", Completion.AFTER, True, "s3"),
                (f"and other {plural}", Completion.BEFORE, True, "s4"),
                (f"the {singular} of the {object_name} is",
                 Completion.AFTER, False, "g1"),
                (f"the {singular} is", Completion.AFTER, False, "g2"),
                (f"is the {singular} of the {object_name}",
                 Completion.BEFORE, False, "g3"),
                (f"is the {singular}", Completion.BEFORE, False, "g4"),
            ]
            for cue, completion, is_set, pattern in cues:
                queries.append(
                    ExtractionQuery(
                        query=f'"{cue}"{suffix}',
                        cue_words=tuple(cue.lower().split()),
                        completion=completion,
                        is_set=is_set,
                        pattern=pattern,
                    )
                )
        return queries


# ---------------------------------------------------------------------------
# Snippet extraction rules (paper §2.1, "Extract Instances")
# ---------------------------------------------------------------------------

_LIST_SEPARATORS = {",", ";"}
_LIST_CONJUNCTIONS = {"and", "or"}
#: words that end a completion list even where an NP could syntactically start
_LIST_STOPWORDS = {"other", "such", "more", "many", "all", "these", "those"}
#: most NPs read off one completion list
_MAX_LIST_ITEMS = 8


class SnippetExtractor:
    """Applies an extraction rule to one snippet: find the cue phrase, then
    read the completion NP (or NP list) off the surrounding text."""

    def __init__(self) -> None:
        self._tagger = default_tagger()

    def extract(self, snippet: str, query: ExtractionQuery) -> List[str]:
        """Instance candidates from ``snippet`` for ``query`` (may be empty)."""
        tokens = self._tagger.tag(snippet)
        words = [t.word.lower() for t in tokens]
        candidates: List[str] = []
        for pos in _find_cue(words, query.cue_words):
            if query.completion is Completion.AFTER:
                start = pos + len(query.cue_words)
                candidates.extend(
                    self._read_list(tokens, words, start)
                    if query.is_set
                    else self._read_one(tokens, start)
                )
            else:
                candidates.extend(self._read_before(tokens, pos))
        return candidates

    # -------------------------------------------------------------- helpers
    def _read_list(self, tokens: Sequence[TaggedToken], words: Sequence[str],
                   start: int) -> List[str]:
        from repro.text.chunker import noun_phrase_at

        out: List[str] = []
        i = start
        n = len(tokens)
        while i < n and len(out) < _MAX_LIST_ITEMS:
            if words[i] in _LIST_STOPWORDS:
                break
            np = noun_phrase_at(tokens, i, allow_postmodifier=False)
            if np is None:
                break
            out.append(" ".join(t.word for t in tokens[np.start:np.end]))
            i = np.end
            # A list continues over ", " and "and"/"or" separators only.
            progressed = False
            if i < n and tokens[i].word in _LIST_SEPARATORS:
                i += 1
                progressed = True
            if i < n and words[i] in _LIST_CONJUNCTIONS:
                i += 1
                progressed = True
            if not progressed:
                break
        return out

    def _read_one(self, tokens: Sequence[TaggedToken], start: int) -> List[str]:
        from repro.text.chunker import noun_phrase_at

        np = noun_phrase_at(tokens, start, allow_postmodifier=False)
        if np is None:
            return []
        return [" ".join(t.word for t in tokens[np.start:np.end])]

    def _read_before(self, tokens: Sequence[TaggedToken], cue_start: int) -> List[str]:
        """The NP that ends right where the cue phrase begins (s4/g3/g4).

        A trailing comma before the cue is tolerated: s4's surface form is
        "NP1, ..., NPn, and other Ls".
        """
        from repro.text.chunker import noun_phrase_at

        end = cue_start
        if end > 0 and tokens[end - 1].word == ",":
            end -= 1
        for start in range(max(0, end - 6), end):
            np = noun_phrase_at(tokens, start, allow_postmodifier=False)
            if np is not None and np.end == end:
                return [" ".join(t.word for t in tokens[np.start:np.end])]
        return []


def _find_cue(words: Sequence[str], cue: Tuple[str, ...]) -> List[int]:
    """Start indices of the cue word sequence in a snippet's lower-cased
    token words.

    Matching skips nothing: the cue must appear as consecutive word tokens
    (punctuation between cue words breaks the match, as it should).
    ``cue`` is never empty: every extraction pattern has fixed cue words.
    """
    head, target, n = cue[0], list(cue), len(cue)
    return [
        i for i in range(len(words) - n + 1)
        if words[i] == head and words[i:i + n] == target
    ]


class SurfaceMemo:
    """Snippet extractions and label analyses over one Surface Web.

    The same snippets come back for many attributes (labels repeat across
    interfaces), and the same labels are analysed by both Surface
    discovery and the Attr-Surface classifier. Both results are pure
    functions of their keys, so the memo changes no decision and no
    query: only the tagging and rule application behind a repeated
    ``(snippet, query)`` pair, and the analysis of a repeated label, are
    skipped. (A repeated search is the run's
    :class:`~repro.perf.cache.ValidationCache`'s to answer.)

    A memo belongs to one Web: every
    :class:`~repro.datasets.DomainDataset` keeps one for its Web, and
    every run over that dataset (or, in the matching service, over that
    domain world) reads and fills it. A Web returns a finite set of
    snippets, so the memo is bounded by its world (DESIGN.md §22, §26).
    A standalone :meth:`SurfaceDiscoverer.discover` call without one
    uses a memo of its own for the call.
    """

    __slots__ = ("_extractor", "_extractions", "_labels")

    def __init__(self) -> None:
        self._extractor = SnippetExtractor()
        self._extractions: Dict[Tuple[str, ExtractionQuery],
                                Tuple[str, ...]] = {}
        self._labels: Dict[str, LabelAnalysis] = {}

    def extract(self, snippet: str, query: ExtractionQuery) -> List[str]:
        """The extractor's ``extract(snippet, query)``, computed once per
        pair; every call returns a fresh list."""
        key = (snippet, query)
        found = self._extractions.get(key)
        if found is None:
            found = self._extractions[key] = \
                tuple(self._extractor.extract(snippet, query))
        elif work.ACTIVE is not None:
            work.ACTIVE.bump("surface.memo_hits")
        return list(found)

    def analysis(self, label: str) -> LabelAnalysis:
        """``analyze_label(label)``, computed once per label."""
        found = self._labels.get(label)
        if found is None:
            found = self._labels[label] = analyze_label(label)
        elif work.ACTIVE is not None:
            work.ACTIVE.bump("surface.memo_hits")
        return found


# ---------------------------------------------------------------------------
# Web validation (paper §2.2, "Validate Instances via Surface Web")
# ---------------------------------------------------------------------------

class WebValidator:
    """PMI-based validation of instance candidates against their attribute.

    For candidate ``x`` of attribute ``A`` with validation phrases
    ``V1..Vn``::

        PMI(Vi, x) = NumHits(Vi + x) / (NumHits(Vi) * NumHits(x))

    and the confidence score is the mean over the phrases. Phrase types:

    - the *proximity pattern* "L x" — the label immediately followed by the
      candidate ("make honda"), posed as an exact phrase query;
    - *cue-phrase patterns* "Ls such as x" / "such Ls as x", posed as a
      phrase-plus-keyword co-occurrence query (``"Ls such as" +x`` with a
      small window) — the candidate may sit anywhere in the completion list
      that follows the cue, not only in first position.

    Marginal and joint hit counts are memoised in a
    :class:`~repro.perf.cache.ValidationCache`. Every validator of one run
    shares the run's (the acquirer passes it), so counts asked during
    Surface validation are free again during Attr-Surface training and
    prediction; a validator built without one keeps its own. A phrase
    marginal and a candidate marginal of the same text are one question
    under one key. That reuse is a large part of why the two-phase design
    "greatly reduces the number of validation queries posed to search
    engines". Score vectors are memoised there too, per scoring rule, so
    a candidate scored again costs one lookup, not one per count.
    """

    #: window (words) within which a cue phrase and a candidate must co-occur
    CUE_WINDOW = 12

    def __init__(
        self,
        engine: SearchEngine,
        scoring: str = "pmi",
        cache: Optional[ValidationCache] = None,
    ) -> None:
        if scoring not in ("pmi", "hits"):
            raise ValueError(f"unknown scoring {scoring!r}")
        self._engine = engine
        self.scoring = scoring
        self._cache = cache if cache is not None else ValidationCache()

    def validation_phrases(self, label: str,
                           analysis: Optional[LabelAnalysis] = None) -> List[str]:
        """The validation phrases of an attribute.

        The first phrase is always the (cleaned) label — the proximity
        pattern; subsequent phrases are cue phrases built from the label's
        first noun phrase.
        """
        analysis = analysis or analyze_label(label)
        phrases = [clean_label(label).lower()]
        if analysis.noun_phrases:
            plural = analysis.noun_phrases[0].plural
            phrases.append(f"{plural} such as")
            phrases.append(f"such {plural} as")
        return [p for p in phrases if p]

    def score_vector(self, phrases: Sequence[str], candidate: str) -> List[float]:
        """PMI of ``candidate`` against each validation phrase.

        The first phrase (the label) is scored with the adjacency query
        "L x"; the cue phrases are scored with windowed co-occurrence.

        A repeat reads the memo's ``vectors`` and notes the ``n + 1``
        marginal and ``n`` joint hits the recomputation would have noted,
        so the run's account is the same either way.
        """
        memo = self._cache
        key = (self.scoring, tuple(phrases), candidate)
        vector = memo.vectors.get(key)
        if vector is None:
            computed = self._vector(phrases, candidate, self.marginal_hits,
                                    self._joint)
            memo.vectors[key] = tuple(computed)
            return computed
        memo.stats.note_hit("marginal", len(vector) + 1)
        if vector:
            memo.stats.note_hit("joint", len(vector))
        return list(vector)

    def recorded_vector(self, phrases: Sequence[str],
                        candidate: str) -> List[float]:
        """:meth:`score_vector` of a candidate already scored, read from
        the memo alone: no query, and no hit in the memo's stats, so
        re-deriving evidence for provenance leaves the run's account as
        it was. A count never asked raises ``KeyError``."""
        memo = self._cache
        return self._vector(
            phrases, candidate,
            lambda text: memo.marginal_hits[normalize_query(text)],
            lambda phrase, cand, proximity: memo.joint_hits[
                (phrase, cand.lower(), int(proximity))],
        )

    def _vector(self, phrases: Sequence[str], candidate: str,
                marginal, joint) -> List[float]:
        hits_x = marginal(candidate)
        vector = []
        for i, phrase in enumerate(phrases):
            hits_v = marginal(phrase)
            count = joint(phrase, candidate, i != 0)
            if self.scoring == "hits":
                vector.append(float(count))
            else:
                vector.append(pmi(count, hits_v, hits_x))
        return vector

    def _joint(self, phrase: str, candidate: str, proximity: bool) -> int:
        """Cached joint hit count for one validation query.

        The same (phrase, candidate) queries recur constantly — every
        classifier trained for the same concept scores the same popular
        instances — so joints are cached like the marginals. A deployed
        system would cache these search-engine round trips identically.
        """
        key = (phrase, candidate.lower(), int(proximity))
        memo = self._cache
        count = memo.joint_hits.get(key)
        if count is not None:
            memo.stats.note_hit("joint")
            return count
        memo.stats.note_miss("joint")
        if work.ACTIVE is not None:
            work.ACTIVE.bump("pmi.phrase_queries")
        if proximity:
            count = self._engine.num_hits_proximity(
                phrase, candidate, window=self.CUE_WINDOW)
        else:
            count = self._engine.num_hits(f'"{phrase} {candidate}"')
        memo.joint_hits[key] = count
        return count

    def confidence(self, phrases: Sequence[str], candidate: str) -> float:
        """Mean PMI across phrases — the candidate's validation score."""
        return mean_pmi(self.score_vector(phrases, candidate))

    def marginal_hits(self, text: str) -> int:
        """Cached NumHits of a validation phrase or a candidate (its
        popularity marginal), keyed by the normalised text."""
        key = normalize_query(text)
        memo = self._cache
        count = memo.marginal_hits.get(key)
        if count is not None:
            memo.stats.note_hit("marginal")
            return count
        memo.stats.note_miss("marginal")
        if work.ACTIVE is not None:
            work.ACTIVE.bump("pmi.phrase_queries")
        count = memo.marginal_hits[key] = self._engine.num_hits(f'"{key}"')
        return count


# ---------------------------------------------------------------------------
# The Surface discoverer: the full two-phase pipeline of Figure 3
# ---------------------------------------------------------------------------

@dataclass
class SurfaceResult:
    """Outcome of Surface discovery for one attribute."""

    attribute_label: str
    instances: List[str]
    #: candidates after extraction, before any pruning
    raw_candidates: List[str]
    #: candidates removed as the wrong type or as discordant outliers
    outliers: List[str]
    #: search-engine queries consumed (extraction + validation)
    queries_used: int
    numeric_domain: bool

    @property
    def succeeded(self) -> bool:
        """Did discovery find anything at all?"""
        return bool(self.instances)


class SurfaceDiscoverer:
    """End-to-end Surface instance discovery for interface attributes."""

    def __init__(
        self,
        engine: SearchEngine,
        config: SurfaceConfig = SurfaceConfig(),
        validation_cache: Optional[ValidationCache] = None,
        provenance: Optional[ProvenanceRecorder] = None,
    ) -> None:
        """``validation_cache`` is the run's memo of Surface questions:
        extraction searches and hit counts alike (one of its own when
        not given)."""
        self.engine = engine
        self.config = config
        self.provenance = provenance
        self._builder = ExtractionQueryBuilder()
        self._cache = (validation_cache if validation_cache is not None
                       else ValidationCache())
        self._validator = WebValidator(
            engine, scoring=config.scoring, cache=self._cache
        )

    def discover(
        self,
        attribute: Attribute,
        domain_keywords: Sequence[str] = (),
        object_name: str = "object",
        memo: Optional[SurfaceMemo] = None,
    ) -> SurfaceResult:
        """Run extraction + verification for one attribute's label.

        ``memo``, when given (the acquirer passes its Web's), supplies the
        label analysis and every snippet extraction it already holds and
        keeps the new ones; without it the call uses a memo of its own, so
        no extraction outlives the call. (Searches and hit counts live in
        the discoverer's ``ValidationCache``.)

        With a provenance recorder attached, every surviving instance gets
        an :class:`~repro.obs.provenance.InstanceLineage` (extraction
        origin + validation evidence) and every rejected candidate a
        :class:`~repro.obs.provenance.PruneEvent` naming the stage — and,
        for discordancy outliers, the statistic — that rejected it.
        Recording never issues queries or changes a decision.
        """
        queries_before = self.engine.query_count
        provenance = self.provenance
        key = self._subject_key(attribute)
        memo = SurfaceMemo() if memo is None else memo
        analysis = memo.analysis(attribute.label)
        if not analysis.has_noun_phrase:
            # §2.1: "If the label does not contain noun phrases, the
            # extraction phase terminates and returns an empty set."
            return SurfaceResult(attribute.label, [], [], [], 0, False)

        origins: Dict[str, Tuple[str, str, int]] = {}
        candidates = self._extract(
            analysis, domain_keywords, object_name,
            origins if provenance is not None else None, memo,
        )
        numeric = self._is_numeric_domain(candidates)
        if self.config.enable_outlier_removal:
            typed = self._filter_type(candidates, numeric)
            if provenance is not None:
                typed_set = set(typed)
                for value in candidates:
                    if value not in typed_set:
                        provenance.record_prune(PruneEvent(
                            key[0], key[1], value, stage="type_filter"))
            result = discordancy_outliers(typed, numeric, self.config.sigma)
            survivors = list(result.inliers)
            if provenance is not None:
                for value in result.outliers:
                    statistic, sigmas = _outlier_driver(
                        value, numeric, result.statistics, self.config.sigma)
                    provenance.record_prune(PruneEvent(
                        key[0], key[1], value, stage="outlier",
                        statistic=statistic, deviation_sigmas=sigmas))
        else:
            survivors = list(candidates)
        removed = [c for c in candidates if c not in survivors]

        instances, evidence = self._validate(
            attribute.label, analysis, survivors, key)
        if provenance is not None:
            for value in instances:
                pattern, query, snippet_id = origins.get(
                    value, (None, None, None))
                provenance.record_lineage(InstanceLineage(
                    interface_id=key[0],
                    attribute=key[1],
                    value=value,
                    phase="surface",
                    extraction_pattern=pattern,
                    extraction_query=query,
                    snippet_id=snippet_id,
                    validation=evidence.get(value),
                ))
            provenance.record_discovery(DiscoverySummary(
                interface_id=key[0],
                attribute=key[1],
                discovered=len(candidates),
                kept=len(instances),
                numeric_domain=numeric,
            ))
        return SurfaceResult(
            attribute_label=attribute.label,
            instances=instances,
            raw_candidates=candidates,
            outliers=removed,
            queries_used=self.engine.query_count - queries_before,
            numeric_domain=numeric,
        )

    # ------------------------------------------------------------ internals
    def _subject_key(self, attribute: Attribute) -> Tuple[str, str]:
        """The (interface, attribute) identity provenance records carry.

        The acquirer scopes each discovery via ``provenance.subject``;
        standalone use (CLI ``discover``, examples) has no scope, so the
        attribute's own name serves with an empty interface id.
        """
        if self.provenance is None:
            return ("", attribute.name)
        key = self.provenance.active_subject
        return key if key != ("", "") else ("", attribute.name)

    def _extract(self, analysis: LabelAnalysis,
                 domain_keywords: Sequence[str], object_name: str,
                 origins: Optional[Dict[str, Tuple[str, str, int]]],
                 memo: SurfaceMemo) -> List[str]:
        seen: Set[str] = set()
        ordered: List[str] = []
        label_low = clean_label(analysis.label).lower()
        for query in self._builder.build(analysis, domain_keywords, object_name):
            for hit in self._search(query.query):
                for candidate in memo.extract(hit.snippet, query):
                    cleaned = candidate.strip()
                    low = cleaned.lower()
                    if (
                        not cleaned
                        or len(cleaned) > self.config.max_candidate_chars
                        or low == label_low
                        or low in seen
                    ):
                        continue
                    seen.add(low)
                    ordered.append(cleaned)
                    if origins is not None:
                        origins[cleaned] = (
                            query.pattern, query.query, hit.doc_id)
        return ordered

    def _search(self, query: str) -> Tuple[SearchResult, ...]:
        """The snippets of one extraction query, asked once per run.

        A repeated label poses the same extraction queries again; the
        run's memo answers them with what the first asking received.
        """
        key = (normalize_query(query), self.config.snippets_per_query)
        memo = self._cache
        found = memo.searches.get(key)
        if found is None:
            memo.stats.note_miss("search")
            found = memo.searches[key] = tuple(self.engine.search(
                query, max_results=self.config.snippets_per_query))
        else:
            memo.stats.note_hit("search")
            if work.ACTIVE is not None:
                work.ACTIVE.bump("surface.search_memo_hits")
        return found

    def _is_numeric_domain(self, candidates: Sequence[str]) -> bool:
        if not candidates:
            return False
        numeric = sum(1 for c in candidates if _is_numeric(c))
        return numeric / len(candidates) >= self.config.numeric_majority

    def _filter_type(self, candidates: Sequence[str], numeric: bool) -> List[str]:
        if not numeric:
            return list(candidates)
        return [c for c in candidates if _is_numeric(c)]

    def _validate(
        self, label: str, analysis: LabelAnalysis,
        candidates: Sequence[str], key: Tuple[str, str],
    ) -> Tuple[List[str], Dict[str, "ValidationEvidence"]]:
        """Web-validate ``candidates``; return survivors plus, per survivor,
        the :class:`~repro.obs.provenance.ValidationEvidence` that admitted
        it (empty dict when no provenance recorder is attached).

        The score is ``mean_pmi(score_vector(...))`` — exactly what
        :meth:`WebValidator.confidence` computes — so recording the vector
        costs nothing and changes nothing.
        """
        provenance = self.provenance
        capped = self._cap_candidates(candidates)
        if provenance is not None:
            capped_set = set(capped)
            for value in candidates:
                if value not in capped_set:
                    provenance.record_prune(PruneEvent(
                        key[0], key[1], value, stage="cap"))
        phrases = tuple(self._validator.validation_phrases(label, analysis))
        evidence: Dict[str, ValidationEvidence] = {}
        scored: List[Tuple[float, str]] = []
        for c in capped:
            vector = self._validator.score_vector(phrases, c)
            score = mean_pmi(vector)
            scored.append((score, c))
            if provenance is not None:
                evidence[c] = ValidationEvidence(
                    phrases=phrases, scores=tuple(vector), score=score)
        kept = [(s, c) for s, c in scored if s > 0.0]
        if provenance is not None:
            for s, c in scored:
                if not s > 0.0:
                    provenance.record_prune(PruneEvent(
                        key[0], key[1], c, stage="validation", score=s))
        kept.sort(key=lambda pair: (-pair[0], pair[1].lower()))
        if provenance is not None:
            for s, c in kept[self.config.k:]:
                provenance.record_prune(PruneEvent(
                    key[0], key[1], c, stage="top_k", score=s))
        return [c for _, c in kept[: self.config.k]], evidence

    def _cap_candidates(self, candidates: Sequence[str]) -> List[str]:
        """Bound the validation workload to the most popular candidates.

        Each validated candidate costs several search-engine queries, so
        only ``max_validated_candidates`` enter validation. Popularity
        (cached hit counts — one query per *distinct* candidate across the
        whole run) decides who makes the cut, keeping the candidate subset
        stable across differently-labelled attributes of one concept.
        """
        candidates = list(candidates)
        if len(candidates) <= self.config.max_validated_candidates:
            return candidates
        by_popularity = sorted(
            candidates,
            key=lambda c: (-self._validator.marginal_hits(c), c.lower()),
        )
        return by_popularity[: self.config.max_validated_candidates]


def _is_numeric(value: str) -> bool:
    try:
        parse_numeric(value)
    except ValueError:
        return False
    return True


def _outlier_driver(
    value: str,
    numeric: bool,
    statistics: Dict[str, Tuple[float, float]],
    sigma: float,
) -> Tuple[Optional[str], Optional[float]]:
    """Name and deviation of the test statistic that rejected ``value``.

    Recomputes the candidate's statistic vector (pure arithmetic, no Web
    traffic) against the (mean, std) moments the discordancy test actually
    used, and returns the most deviant statistic meeting the sigma rule.
    """
    names = ("value",) if numeric else STRING_STATISTIC_NAMES
    vector = (
        numeric_test_statistics(value)
        if numeric else string_test_statistics(value)
    )
    best_name: Optional[str] = None
    best_sigmas: Optional[float] = None
    for name, v in zip(names, vector):
        mean, std = statistics.get(name, (0.0, 0.0))
        if std == 0.0:
            continue
        sigmas = abs(v - mean) / std
        if sigmas >= sigma and (best_sigmas is None or sigmas > best_sigmas):
            best_name, best_sigmas = name, sigmas
    return best_name, best_sigmas
