"""Synthetic Surface-Web corpus generation.

The real WebIQ works because the Surface Web redundantly embeds attribute
instances in recognisable contexts. This generator reproduces those contexts
per domain, with the concept parameters controlling how much evidence each
concept gets:

- **Hearst-pattern pages** — sentences like "Departure cities such as
  Boston, Chicago, and LAX are listed on our airfare site." — one page set
  per extraction phrase derivable from the concept's labels, ``web_richness``
  pages each. With probability ``pollution`` a sentence's completion list is
  distractor junk instead of true values (the mechanism behind ambiguous
  labels like ``zip``).
- **Singleton-pattern pages** — "The author of the book is Mark Twain." —
  exercising the g1-g4 extraction rules.
- **Listing pages** — "Make: Honda, Model: Accord" style pages: the
  adjacency evidence behind the proximity validation pattern "L x" and the
  validation-based classifier's features.
- **Mention pages** — values in plain prose, giving candidates realistic
  popularity (hit-count marginals) independent of pattern contexts.
- **Noise pages** — general-vocabulary filler in which the distractor
  phrases occur frequently, so that junk completions have large marginals
  and therefore low PMI — which is how Web validation rejects them.

Every domain-attached page also mentions the domain and object keywords, so
extraction queries' ``+keyword`` filters behave like they do on Google.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datasets.concepts import Concept, DomainSpec, domain_spec
from repro.surfaceweb.document import Document
from repro.text.labels import analyze_label
from repro.util.rng import derive_rng

__all__ = ["CorpusConfig", "build_corpus", "concept_phrases"]


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs of corpus generation (defaults reproduce the paper's shapes)."""

    n_noise_docs: int = 120
    #: probability a noise page carries a distractor phrase
    noise_distractor_rate: float = 0.8
    #: (min, max) "Label: value" entries per listing page
    listing_lines: Tuple[int, int] = (4, 8)
    #: (min, max) values per Hearst completion list
    hearst_values: Tuple[int, int] = (3, 5)
    #: baseline mention pages: every value of a findable concept is
    #: mentioned this many times in plain prose. This is the "the Web is
    #: big" floor on hit-count marginals: rare values still have non-trivial
    #: popularity, so PMI ranking favours genuinely popular values and two
    #: attributes of one concept acquire largely the same top instances.
    mentions_per_value: int = 2
    #: values mentioned per mention page
    mention_batch: int = 8


#: ``(len(values), s)`` -> the Zipf weights of that many ranks, their
#: running sums and their total: what every first draw of
#: :func:`zipf_sample` over such a vocabulary recomputes
ZipfTables = Dict[Tuple[int, float], Tuple[List[float], List[float], float]]


def zipf_sample(rng, values: Sequence[str], k: int, s: float = 1.0,
                tables: Optional[ZipfTables] = None) -> List[str]:
    """Sample ``k`` distinct values with Zipf-like popularity weights.

    Real Web text is popularity-skewed: the same few cities, airlines and
    authors dominate. The skew matters downstream — WebIQ returns the top-k
    candidates by validation score, so two attributes of the same concept
    end up holding largely the *same* popular instances, which is what makes
    their acquired domains similar. A value's weight is ``1/(rank+1)**s``
    in the order the vocabulary lists it.

    ``tables`` keeps each vocabulary size's weights across calls (one
    corpus build passes one dict). The first draw bisects the running
    sums for the first sum that reaches the pick, which is the value a
    scan adding the weights in rank order stops at; later draws scan
    what is left of the pool.
    """
    k = min(k, len(values))
    if k <= 0:
        return []
    if tables is None:
        tables = {}
    key = (len(values), s)
    table = tables.get(key)
    if table is None:
        table = tables[key] = _zipf_table(*key)
    weights, running, total = table
    pool = list(range(len(values)))
    first = bisect_left(running, rng.random() * total)
    # past the last running sum (floating point): take the last value
    chosen = [values[pool.pop(first if first < len(pool) else -1)]]
    for _ in range(k - 1):
        total = sum(weights[i] for i in pool)
        pick = rng.random() * total
        acc = 0.0
        for idx, i in enumerate(pool):
            acc += weights[i]
            if pick <= acc:
                chosen.append(values[i])
                pool.pop(idx)
                break
        else:  # floating-point edge: take the last remaining value
            chosen.append(values[pool.pop()])
    return chosen


def _zipf_table(n: int, s: float
                ) -> Tuple[List[float], List[float], float]:
    """The weights of ``n`` ranks, their running sums in rank order and
    their total. The total is ``sum``'s, as a draw over the whole pool
    takes it: Python 3.12's float ``sum`` is compensated, so it can
    differ from the last running sum."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    return weights, list(accumulate(weights)), sum(weights)


def concept_phrases(concept: Concept) -> List[Tuple[str, str]]:
    """Distinct (plural, singular) extraction phrases of a concept's labels.

    Derived with the same label analysis the Surface component uses, so the
    corpus offers pattern sentences exactly for the phrases that extraction
    queries will ask about. Labels with no noun phrase (bare prepositions,
    verb phrases) contribute nothing — extraction for them fails regardless
    of the corpus, as in the paper's airfare domain.
    """
    phrases: List[Tuple[str, str]] = []
    seen: Set[str] = set()
    for variant in concept.label_variants:
        analysis = analyze_label(variant.label)
        for np in analysis.noun_phrases:
            if np.text not in seen:
                seen.add(np.text)
                phrases.append((np.plural, np.text))
    return phrases


def build_corpus(
    domain: str,
    seed: int = 0,
    config: CorpusConfig = CorpusConfig(),
    start_doc_id: int = 0,
) -> List[Document]:
    """Generate the Surface-Web corpus for ``domain``; deterministic in seed."""
    spec = domain_spec(domain)
    docs: List[Document] = []
    next_id = start_doc_id

    def emit(title: str, text: str) -> None:
        nonlocal next_id
        docs.append(
            Document(next_id, f"http://{domain}.example/{next_id}", title, text)
        )
        next_id += 1

    tables: ZipfTables = {}
    for concept in spec.concepts:
        rng = derive_rng(seed, "corpus", domain, concept.name)
        _emit_pattern_docs(emit, spec, concept, rng, config, tables)
        _emit_singleton_docs(emit, spec, concept, rng, tables)
        _emit_listing_docs(emit, spec, concept, rng, config, tables)
        _emit_mention_docs(emit, spec, concept, rng, config)

    _emit_noise_docs(emit, spec, derive_rng(seed, "corpus", domain, "noise"),
                     config)
    return docs


# ---------------------------------------------------------------------------
# page emitters
# ---------------------------------------------------------------------------

_HEARST_TEMPLATES = (
    # one per set-extraction pattern s1-s4 of paper Figure 4
    "{Plural} such as {values} are available.",
    "We cover such {plural} as {values} every day.",
    "Browse {plural} including {values} right here.",
    "{values}, and other {plural} can be found on this page.",
)

_FILLERS = (
    # Every filler names both the domain and the object, so pattern pages
    # always satisfy extraction queries' +keyword filters.
    "Welcome to the best {domain} site for every {object} online.",
    "Find great {domain} deals for your {object} today.",
    "Our {domain} guide helps you compare every {object} offer.",
    "Search our {domain} directory to find the right {object}.",
    "Read {domain} customer reviews about each {object} before you decide.",
)


def _domain_sentence(spec: DomainSpec, rng) -> str:
    template = rng.choice(_FILLERS)
    return template.format(domain=spec.display_name, object=spec.object_name)


def _format_values(values: Sequence[str]) -> str:
    if len(values) == 1:
        return values[0]
    return ", ".join(values[:-1]) + ", and " + values[-1]


def _emit_pattern_docs(emit, spec: DomainSpec, concept: Concept, rng,
                       config: CorpusConfig, tables: ZipfTables) -> None:
    if concept.web_richness <= 0:
        return
    lo, hi = config.hearst_values
    for plural, singular in concept_phrases(concept):
        if singular in concept.poor_phrases:
            continue  # the Web simply lacks pattern sentences for these
        for i in range(concept.web_richness):
            template = _HEARST_TEMPLATES[i % len(_HEARST_TEMPLATES)]
            polluted = rng.random() < concept.pollution
            if polluted:
                from repro.datasets import vocab
                values = rng.sample(list(vocab.DISTRACTORS),
                                    min(rng.randint(lo, hi),
                                        len(vocab.DISTRACTORS)))
            else:
                values = zipf_sample(rng, concept.values,
                                     rng.randint(lo, hi), tables=tables)
            sentence = template.format(
                Plural=plural.capitalize(), plural=plural,
                values=_format_values(values),
            )
            text = " ".join([
                _domain_sentence(spec, rng),
                sentence,
                _domain_sentence(spec, rng),
            ])
            emit(f"{spec.display_name} {plural}", text)


def _emit_singleton_docs(emit, spec: DomainSpec, concept: Concept, rng,
                         tables: ZipfTables) -> None:
    """Pages with singleton-pattern sentences (g1 and g4 of Figure 4)."""
    if concept.web_richness <= 1:
        return
    n_docs = max(1, concept.web_richness // 3)
    for _plural, singular in concept_phrases(concept):
        if singular in concept.poor_phrases:
            continue
        for i in range(n_docs):
            value = zipf_sample(rng, concept.values, 1, tables=tables)[0]
            if i % 2 == 0:
                sentence = (
                    f"The {singular} of the {spec.object_name} is {value}."
                )
            else:
                sentence = f"{value} is the {singular}."
            text = " ".join([_domain_sentence(spec, rng), sentence])
            emit(f"{spec.display_name} {singular} page", text)


def _emit_listing_docs(emit, spec: DomainSpec, concept: Concept, rng,
                       config: CorpusConfig, tables: ZipfTables) -> None:
    """Pages of 'Label: value' entries — the proximity-pattern evidence."""
    if concept.proximity_docs <= 0:
        return
    labels = [v.label for v in concept.label_variants]
    lo, hi = config.listing_lines
    for _ in range(concept.proximity_docs):
        lines = [_domain_sentence(spec, rng)]
        for _ in range(rng.randint(lo, hi)):
            label = rng.choice(labels)
            value = zipf_sample(rng, concept.values, 1, tables=tables)[0]
            lines.append(f"{label}: {value}.")
        emit(f"{spec.display_name} listings", " ".join(lines))


def _emit_mention_docs(emit, spec: DomainSpec, concept: Concept, rng,
                       config: CorpusConfig) -> None:
    """Plain-prose pages giving every value a uniform popularity baseline."""
    if config.mentions_per_value <= 0 or concept.web_richness <= 0:
        return
    for _ in range(config.mentions_per_value):
        values = list(concept.values)
        rng.shuffle(values)
        for start in range(0, len(values), config.mention_batch):
            batch = values[start:start + config.mention_batch]
            sentences = [
                f"People often talk about {value} in reviews and articles."
                for value in batch
            ]
            emit(f"about {spec.display_name}",
                 " ".join([_domain_sentence(spec, rng)] + sentences))


def _emit_noise_docs(emit, spec: DomainSpec, rng, config: CorpusConfig) -> None:
    from repro.datasets import vocab

    for _ in range(config.n_noise_docs):
        words = [rng.choice(vocab.NOISE_VOCAB) for _ in range(rng.randint(20, 40))]
        sentences: List[str] = []
        for i in range(0, len(words), 8):
            chunk = words[i:i + 8]
            if chunk:
                sentences.append(" ".join(chunk).capitalize() + ".")
        if rng.random() < config.noise_distractor_rate:
            distractor = rng.choice(vocab.DISTRACTORS)
            sentences.insert(
                rng.randrange(len(sentences) + 1),
                f"Do not miss our {distractor} this week.",
            )
        emit("misc page", " ".join(sentences))
