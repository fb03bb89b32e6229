"""The run's memo of Surface Web questions, and warm starts across runs.

Search-engine round trips dominate WebIQ's cost model (paper §5, Figure 8),
and the same questions recur constantly: every interface with an "Author"
attribute issues the same eight extraction queries, every classifier
trained for a concept re-scores the same popular instances, and the
Attr-Surface train/predict passes re-ask the marginals the Surface phase
already asked. This module makes that redundancy free:

- :class:`ValidationCache` — the run-wide memo of every Surface question
  (extraction searches, marginal and joint hit counts) that one pipeline
  run asks, so each distinct question costs one round trip per run across
  attributes, interfaces, and classifier training vs. prediction; it
  counts its own hits and misses per map (:class:`CacheStats`);
- :class:`CachePreload` — one run's memo, frozen, to warm-start a later
  run: the warm run asks nothing its donor already asked.

Every run that acquires instances reports its memo's stats and returns
its content; a run with no acquisition (the IceQ baseline) has no memo.

**Layering.** The memo is the only cache, and it sits above every
engine layer::

    ValidationCache -> ResilientSearchEngine -> engine

(An observed run inserts one :class:`~repro.obs.ObservedSearchEngine`
directly below the memo, so every observed engine call is a memo miss.)
A memo hit therefore never reaches :class:`~repro.resilience.ResilientClient`:
it consumes no query budget, charges no retry or backoff accounting, and
adds nothing to Figure 8's overhead — exactly the behaviour of a real
system answering from its own cache instead of the network.

**Degraded answers outlive the run.** The memo keeps what the run
received, including a degraded answer (retries exhausted, breaker open,
budget spent — the resilient proxy's neutral ``[]``/``0``) and a garbled
one (a truncated payload that slipped through as a "success"). Within a
run that is exact: an engine fault's fate depends only on the call's
content and retry attempt, so a repeat would have met the same fate. A
:class:`CachePreload` carries the memo whole, so a warm run answers such
a question with the donor's degraded answer, without asking it again
(DESIGN.md §27, §28).
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.surfaceweb.engine import SearchResult

__all__ = [
    "CachePreload",
    "CacheStats",
    "ValidationCache",
    "decode_results",
    "dict_tail",
    "encode_results",
    "normalize_query",
]


def normalize_query(query: str) -> str:
    """Canonical memo-key form of a query string.

    Case and surrounding/internal whitespace runs are insignificant to the
    engine (the parser and tokenizer lower-case every term), so queries
    differing only there share one memo entry.
    """
    return " ".join(query.split()).lower()


def dict_tail(mapping: Dict[Any, Any], mark: int) -> List[Tuple[Any, Any]]:
    """The items of ``mapping`` inserted after its first ``mark``, in
    insertion order.

    Read from the end, so the cost follows the tail's length, not the
    mapping's: the checkpoint layer calls this once per unit on memos
    that keep growing for the whole run.
    """
    tail = list(islice(reversed(mapping.items()), len(mapping) - mark))
    tail.reverse()
    return tail


def encode_results(results: Sequence[SearchResult]) -> List[List[Any]]:
    """Search results as JSON-ready ``[doc_id, url, title, snippet]``
    lists (the journal's codec for memo deltas)."""
    return [[r.doc_id, r.url, r.title, r.snippet] for r in results]


def decode_results(raw: List[List[Any]]) -> List[SearchResult]:
    """Inverse of :func:`encode_results`."""
    return [SearchResult(*item) for item in raw]


@dataclass
class CacheStats:
    """Hit/miss accounting of one run's memo.

    A miss is a question the memo sent to the engine; a hit is one it
    answered. Kinds name the memo's maps: ``search``, ``marginal`` and
    ``joint``.
    """

    hits: int = 0
    misses: int = 0
    hits_by_kind: Dict[str, int] = field(default_factory=dict)
    misses_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the memo (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def note_hit(self, kind: str, count: int = 1) -> None:
        """Note ``count`` hits of ``kind`` (a derived answer that stands
        for several lookups notes them all at once)."""
        self.hits += count
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + count

    def note_miss(self, kind: str) -> None:
        self.misses += 1
        self.misses_by_kind[kind] = self.misses_by_kind.get(kind, 0) + 1

    def summary(self) -> str:
        """One CLI-ready line, mirroring the degradation report's tone."""
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate)"
        )

    # --------------------------------------------------- checkpoint support
    def state_payload(self) -> Dict[str, Any]:
        """The counters as of now, JSON-ready."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hits_by_kind": dict(self.hits_by_kind),
            "misses_by_kind": dict(self.misses_by_kind),
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_payload`."""
        self.hits = payload["hits"]
        self.misses = payload["misses"]
        self.hits_by_kind = dict(payload["hits_by_kind"])
        self.misses_by_kind = dict(payload["misses_by_kind"])


class ValidationCache:
    """Run-wide memo of the Surface Web questions a run asks.

    One instance serves every Surface question of a pipeline run: the
    Surface discoverer's extraction searches and the hit counts of every
    :class:`~repro.core.surface.WebValidator` (the discoverer's and the
    Attr-Surface classifier's). A question asked once is never sent
    again in the run: a marginal asked during Surface validation is free
    when Attr-Surface training asks it again, and a repeated label's
    extraction queries reuse the snippets the first asking returned.

    The memo keeps what the run received, including a degraded answer:
    an engine fault's fate depends only on the call's content and retry
    attempt, so a repeat would have met the same fate (DESIGN.md §27).

    Three maps, each written once per key and never overwritten:

    - ``marginal_hits``: ``NumHits`` of one text (a validation phrase or
      a candidate — one question, one key), by normalised text;
    - ``joint_hits``: by ``(phrase, candidate, proximity)``, because the
      adjacency and windowed queries answer different questions;
    - ``searches``: extraction-search snippets as a tuple of
      :class:`~repro.surfaceweb.engine.SearchResult`, by ``(normalised
      query, max_results)``.

    ``stats`` counts the memo's own hits and misses; the askers note
    each lookup there.

    ``vectors`` is derived, not asked: each validator's score vector of
    one ``(phrases, candidate)``, by ``(scoring, phrases, candidate)``, so
    validators with different scoring rules share counts, not scores. A
    vector is a pure function of counts already in the three maps, which
    are never overwritten, so it is not counted by ``len``, not copied by
    :meth:`clone`/:meth:`update` and not journaled: a warm or resumed run
    recomputes it from counts that are all memo hits (DESIGN.md §30).
    """

    def __init__(self) -> None:
        self.marginal_hits: Dict[str, int] = {}
        self.joint_hits: Dict[Tuple[str, str, int], int] = {}
        self.searches: Dict[Tuple[str, int], Tuple[SearchResult, ...]] = {}
        self.vectors: Dict[Tuple[str, Tuple[str, ...], str],
                           Tuple[float, ...]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        """Entries asked of the engine, over the three asked maps."""
        return (
            len(self.marginal_hits)
            + len(self.joint_hits)
            + len(self.searches)
        )

    def clone(self) -> "ValidationCache":
        """An independent copy of the entries, with fresh stats (a
        :class:`CachePreload` holds one, so later growth of the donor
        run's memo cannot leak into the preload). Answers are shared, not
        copied: nothing mutates one."""
        copy = ValidationCache()
        copy.update(self)
        return copy

    def update(self, other: "ValidationCache") -> None:
        """Add every entry of ``other`` (a preload's memo) to this one;
        the stats are left as they are."""
        self.marginal_hits.update(other.marginal_hits)
        self.joint_hits.update(other.joint_hits)
        self.searches.update(other.searches)

    # --------------------------------------------------- checkpoint support
    #
    # Entries are memo-style (written once, never overwritten), so the
    # entries added by one unit of work are exactly the insertion-order
    # tail of each dict past a pre-unit length mark. The checkpoint layer
    # journals that tail and merges it back on replay.

    def mark(self) -> Tuple[int, int, int]:
        """Position marker: the three dict lengths as of now."""
        return (
            len(self.marginal_hits),
            len(self.joint_hits),
            len(self.searches),
        )

    def delta_since(self, mark: Tuple[int, int, int]) -> Dict[str, list]:
        """Entries added after ``mark``, JSON-ready (joint keys as lists,
        searches as ``[query, max_results, results]`` with
        :func:`encode_results`)."""
        m, j, s = mark
        return {
            "marginal_hits": [
                [k, v] for k, v in dict_tail(self.marginal_hits, m)
            ],
            "joint_hits": [
                [list(k), v] for k, v in dict_tail(self.joint_hits, j)
            ],
            "searches": [
                [query, max_results, encode_results(results)]
                for (query, max_results), results
                in dict_tail(self.searches, s)
            ],
        }

    def merge_delta(self, payload: Dict[str, list]) -> None:
        """Inverse of :func:`delta_since`: re-insert a journaled tail."""
        for key, value in payload["marginal_hits"]:
            self.marginal_hits[key] = value
        for (phrase, candidate, window), value in payload["joint_hits"]:
            self.joint_hits[(phrase, candidate, window)] = value
        for query, max_results, raw in payload["searches"]:
            self.searches[(query, max_results)] = tuple(decode_results(raw))


class CachePreload:
    """A first-class warm-start input: one run's memo, frozen and portable.

    Captured from a finished run's :class:`ValidationCache` and applied
    to a fresh run *before* any unit executes — the warm run then answers
    from the memo every question the donor run asked, spending no round
    trips on answers already paid for. This is the unit of state the
    matching service's copy-on-write epochs hand from one request to the
    next, and it is deliberately symmetric: a service request and a
    standalone :meth:`WebIQMatcher.run
    <repro.core.pipeline.WebIQMatcher.run>` given the same preload follow
    the same code path, which is what makes their exports byte-identical
    by construction.

    A preload's memo is never written after construction. That is what
    isolates it from the runs that read it: :meth:`apply` copies its
    entries into the run's own memo, and :meth:`capture` shares a
    parent's memo (and its fingerprint) with the child preload when the
    run added nothing, so a chain of epochs that add nothing holds one
    copy of the content, not one per epoch. The answers themselves are
    never copied — nothing mutates a memoised answer. ``fingerprint()``
    gives a stable identity that enters the journal meta of warm runs:
    resuming a warm journal with a *different* preload is refused,
    because the replayed hit pattern would not match.
    """

    def __init__(self, validation: Optional[ValidationCache] = None) -> None:
        """``validation`` is copied."""
        #: the donor run's memo (searches and hit counts)
        self.validation: ValidationCache = (
            validation.clone() if validation is not None else ValidationCache()
        )
        self._fingerprint: Optional[int] = None

    @classmethod
    def capture(
        cls,
        validation_cache: ValidationCache,
        parent: Optional["CachePreload"] = None,
    ) -> "CachePreload":
        """Snapshot a run's memo.

        ``parent`` is the preload :meth:`apply` seeded the run with, if
        any. When the memo did not grow its content is the parent's (its
        entries are written once, so an equal length means equal
        content), and the child shares the parent's memo and fingerprint
        instead of copying them.
        """
        if parent is not None and len(validation_cache) == len(
                parent.validation):
            return copy.copy(parent)
        return cls(validation_cache)

    def apply(self, validation_cache: ValidationCache) -> None:
        """Seed a fresh run's memo with this snapshot.

        Only entries are copied: the warm run's :class:`CacheStats` start
        at zero and then count *its own* hits against the preloaded
        content.
        """
        validation_cache.update(self.validation)

    @property
    def n_entries(self) -> int:
        """Memo entries, over all three maps."""
        return len(self.validation)

    @property
    def is_empty(self) -> bool:
        return not len(self.validation)

    def fingerprint(self) -> int:
        """Stable identity of the snapshot (CRC over its canonical repr).

        Enters the journal meta of warm runs, so a journal written under
        one preload refuses to resume under another. Computed once: the
        content never changes after capture.
        """
        if self._fingerprint is None:
            canon = repr((
                sorted(self.validation.marginal_hits.items()),
                sorted(self.validation.joint_hits.items()),
                sorted(self.validation.searches.items()),
            ))
            self._fingerprint = zlib.crc32(canon.encode("utf-8"))
        return self._fingerprint
