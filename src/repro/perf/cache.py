"""Shared query-result caching for the Web substrates.

Search-engine round trips dominate WebIQ's cost model (paper §5, Figure 8),
and the same queries recur constantly: every interface with an "Author"
attribute issues the same eight extraction queries, every classifier
trained for a concept re-scores the same popular instances, and the
Attr-Surface train/predict passes re-ask the marginals the Surface phase
already asked. This module makes that redundancy free:

- :class:`CachingSearchEngine` — a transparent wrapper memoising
  ``search`` / ``num_hits`` / ``num_hits_proximity`` by normalised query
  key in a bounded LRU, with hit/miss/eviction accounting
  (:class:`CacheStats`);
- :class:`ValidationCache` — the run-wide memo of every Surface question
  (extraction searches, marginal and joint hit counts) that one pipeline
  run asks, cached or not, so each distinct question costs one round
  trip per run across attributes, interfaces, and classifier training
  vs. prediction;
- :class:`CacheConfig` — the pipeline-facing knobs.

**Layering.** The cache sits *above* the resilience layer, and the run's
:class:`ValidationCache` above the cache::

    ValidationCache -> CachingSearchEngine -> ResilientSearchEngine
        -> FlakySearchEngine -> engine

A cache hit therefore never reaches :class:`~repro.resilience.ResilientClient`:
it consumes no query budget, charges no retry or backoff accounting, and
adds nothing to Figure 8's overhead — exactly the behaviour of a real
system answering from its own cache instead of the network.

**Only successful answers are cached.** A degraded answer (retries
exhausted, breaker open, budget spent — the resilient proxy's neutral
``[]``/``0``) and a garbled answer (truncated payload that slipped through
as a "success") describe the Web's mood, not the query's answer; caching
one would pin a transient failure for every later run the cache serves.
The wrapper detects both through the resilient proxy's ``last_degraded``
flag and the flaky wrapper's ``garbled_count``, and simply declines to
store. (Within one run the :class:`ValidationCache` keeps what the run
received, degraded or not: a repeat would have met the same fault fate.)
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.surfaceweb.engine import DEFAULT_PROXIMITY_WINDOW, SearchResult

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "CacheConfig",
    "CachePreload",
    "CacheStats",
    "LRUCache",
    "CachingSearchEngine",
    "ValidationCache",
    "decode_results",
    "dict_tail",
    "encode_results",
    "normalize_query",
]

#: Default LRU capacity: comfortably holds every distinct query of a
#: 20-interface domain run while still bounding a long-lived service.
DEFAULT_CACHE_ENTRIES = 65536


def normalize_query(query: str) -> str:
    """Canonical cache-key form of a query string.

    Case and surrounding/internal whitespace runs are insignificant to the
    engine (the parser and tokenizer lower-case every term), so queries
    differing only there share one cache entry.
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
    lists (the journal's codec for cache ops and memo deltas alike)."""
    return [[r.doc_id, r.url, r.title, r.snippet] for r in results]


def decode_results(raw: List[List[Any]]) -> List[SearchResult]:
    """Inverse of :func:`encode_results`."""
    return [SearchResult(*item) for item in raw]


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache's lifetime."""

    max_entries: int = DEFAULT_CACHE_ENTRIES
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    #: answers seen but not stored (degraded / garbled — see module docs)
    uncacheable: int = 0
    #: per-query-kind hit/miss split ("search", "num_hits", "proximity")
    hits_by_kind: Dict[str, int] = field(default_factory=dict)
    misses_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def note_hit(self, kind: str) -> None:
        self.hits += 1
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + 1

    def note_miss(self, kind: str) -> None:
        self.misses += 1
        self.misses_by_kind[kind] = self.misses_by_kind.get(kind, 0) + 1

    def summary(self) -> str:
        """One CLI-ready line, mirroring the degradation report's tone."""
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.evictions} evictions, "
            f"{self.uncacheable} uncacheable"
        )

    # --------------------------------------------------- checkpoint support
    def state_payload(self) -> Dict[str, Any]:
        """The counters as of now, JSON-ready (``max_entries`` is config,
        not state — it travels with the run, not the journal)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "hits_by_kind": dict(self.hits_by_kind),
            "misses_by_kind": dict(self.misses_by_kind),
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_payload`."""
        self.hits = payload["hits"]
        self.misses = payload["misses"]
        self.evictions = payload["evictions"]
        self.stores = payload["stores"]
        self.uncacheable = payload["uncacheable"]
        self.hits_by_kind = dict(payload["hits_by_kind"])
        self.misses_by_kind = dict(payload["misses_by_kind"])


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Reads refresh recency; writes beyond ``max_entries`` evict from the
    cold end. Eviction counts flow into the attached :class:`CacheStats`.
    ``mutations`` counts every change of content (stores, replayed
    stores, evictions, bulk loads) but not recency refreshes: it is what
    :meth:`CachePreload.capture` reads to tell whether a warm run left
    its preloaded content as it found it. :class:`CacheStats` cannot
    tell that: journal replay and a trimming bulk load change content
    without counting a store.
    """

    def __init__(self, max_entries: int, stats: Optional[CacheStats] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.stats = stats if stats is not None else CacheStats(max_entries)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.mutations = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key not in self._data:
            return default
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        self.stats.stores += 1
        self.stats.evictions += self._store(key, value)

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used."""
        return list(self._data)

    def answers(self) -> Dict[Hashable, Any]:
        """A plain key → value copy of the content (snapshot support)."""
        return dict(self._data)

    # --------------------------------------------------- checkpoint support
    def touch(self, key: Hashable) -> None:
        """Replay a historical hit: refresh recency without stats.

        The counters were already accounted when the hit happened in the
        killed process (and come back via the journaled stats snapshot);
        replay must only reproduce the recency ordering.
        """
        if key not in self._data:
            raise KeyError(key)
        self._data.move_to_end(key)

    def seed(self, key: Hashable, value: Any) -> None:
        """Replay a historical store: insert (evicting if full), no stats."""
        self._store(key, value)

    def load(self, order: Tuple[Hashable, ...],
             answers: Dict[Hashable, Any]) -> None:
        """Fill an empty cache in one step: ``order`` gives the keys cold
        to hot, ``answers`` their values.

        The result equals seeding every ``(key, answers[key])`` in order
        (the cold end past ``max_entries`` is dropped the same way), with
        no stats, at C speed.
        """
        if self._data:
            raise ValueError("load needs an empty cache")
        dropped = max(0, len(order) - self.max_entries)
        kept = order[dropped:]
        self._data = OrderedDict(zip(kept, map(answers.__getitem__, kept)))
        self.mutations += 1 + dropped

    def _store(self, key: Hashable, value: Any) -> int:
        """Insert or overwrite ``key`` as the hottest entry; the number of
        entries evicted to make room."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        self.mutations += 1
        return self._trim()

    def _trim(self) -> int:
        """Evict from the cold end down to ``max_entries``; how many went."""
        evicted = 0
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            evicted += 1
        self.mutations += evicted
        return evicted


@dataclass(frozen=True)
class CacheConfig:
    """Pipeline-facing cache knobs (attach to ``WebIQConfig.cache``)."""

    max_entries: int = DEFAULT_CACHE_ENTRIES

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")


class CachingSearchEngine:
    """Memoising drop-in wrapper for anything engine-shaped.

    Wraps the raw :class:`~repro.surfaceweb.engine.SearchEngine` or the
    resilient proxy; components keep calling ``search`` / ``num_hits`` /
    ``num_hits_proximity`` exactly as before. ``query_count`` delegates to
    the wrapped engine, so it keeps counting *real* round trips only —
    cache hits are free by construction, which is what keeps Figure 8's
    overhead model honest.
    """

    def __init__(
        self,
        inner,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        stats: Optional[CacheStats] = None,
        obs=None,
    ) -> None:
        """``obs``, when given, is a :class:`~repro.obs.Observability`
        bundle; every lookup outcome then also bumps its
        ``cache.lookups``/``cache.stores`` counters so the invariant
        checker can reconcile them against :class:`CacheStats`. Purely
        observational — the cache behaves identically without it."""
        self.inner = inner
        self.stats = stats if stats is not None else CacheStats(max_entries)
        self._cache = LRUCache(max_entries, self.stats)
        self.obs = obs
        #: optional callable receiving one op per cache mutation or
        #: recency touch — ``("h", key)`` for a hit, ``("s", key, value)``
        #: for a store. The checkpoint layer records these per unit so a
        #: resumed run can rebuild the exact LRU content *and ordering*
        #: without re-fetching. Purely observational.
        self.oplog: Optional[Any] = None

    # ------------------------------------------------------- engine facade
    @property
    def query_count(self) -> int:
        return self.inner.query_count

    def reset_query_count(self) -> None:
        self.inner.reset_query_count()

    @property
    def n_documents(self) -> int:
        return self.inner.n_documents

    def search(self, query: str, max_results: int = 10) -> List[SearchResult]:
        key = ("search", normalize_query(query), max_results)
        return self._lookup("search", key, lambda: self.inner.search(query, max_results))

    def num_hits(self, query: str) -> int:
        key = ("num_hits", normalize_query(query))
        return self._lookup("num_hits", key, lambda: self.inner.num_hits(query))

    def num_hits_proximity(
        self,
        phrase_a: str,
        phrase_b: str,
        window: int = DEFAULT_PROXIMITY_WINDOW,
    ) -> int:
        key = (
            "proximity",
            normalize_query(phrase_a),
            normalize_query(phrase_b),
            window,
        )
        return self._lookup(
            "proximity",
            key,
            lambda: self.inner.num_hits_proximity(phrase_a, phrase_b, window),
        )

    # ---------------------------------------------------------- internals
    def _lookup(self, kind: str, key: Tuple, fetch) -> Any:
        sentinel = object()
        value = self._cache.get(key, sentinel)
        if value is not sentinel:
            self.stats.note_hit(kind)
            self._note_obs("lookups", kind, "hit")
            if self.oplog is not None:
                self.oplog(("h", key))
            return value
        self.stats.note_miss(kind)
        self._note_obs("lookups", kind, "miss")
        garbled_before = self._garbled_count()
        value = fetch()
        if self._answer_is_clean(garbled_before):
            self._cache.put(key, value)
            self._note_obs("stores", kind, "stored")
            if self.oplog is not None:
                self.oplog(("s", key, value))
        else:
            self.stats.uncacheable += 1
            self._note_obs("stores", kind, "refused")
        return value

    # ----------------------------------------- checkpoint/snapshot support
    def snapshot_order(self) -> Tuple[Tuple, ...]:
        """The cache's keys in recency order (cold to hot).

        :meth:`CachePreload.capture` snapshots this (and, when the run
        changed the content, :meth:`snapshot_answers`) so a warm run
        starts with the same content — and therefore the same hit/miss
        pattern — the donor run ended with.
        """
        return tuple(self._cache.keys())

    def snapshot_answers(self) -> Dict[Tuple, Any]:
        """A key → answer copy of the cache's content."""
        return self._cache.answers()

    def replay_hit(self, key: Tuple) -> None:
        """Re-apply a journaled hit: recency only, no stats, no oplog."""
        self._cache.touch(key)

    def replay_store(self, key: Tuple, value: Any) -> None:
        """Re-apply a journaled store: content only, no stats, no oplog."""
        self._cache.seed(key, value)

    def load_entries(self, order: Tuple[Tuple, ...],
                     answers: Dict[Tuple, Any]) -> None:
        """Bulk-fill the (empty) cache: :meth:`LRUCache.load`."""
        self._cache.load(order, answers)

    @property
    def mutations(self) -> int:
        """Content changes so far (:attr:`LRUCache.mutations`)."""
        return self._cache.mutations

    def _note_obs(self, counter: str, kind: str, outcome: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(
                f"cache.{counter}", kind=kind, outcome=outcome
            ).inc()

    def _answer_is_clean(self, garbled_before: int) -> bool:
        """Was the answer a real one (not degraded, not garbled)?"""
        if getattr(self.inner, "last_degraded", False):
            return False
        return self._garbled_count() == garbled_before

    def _garbled_count(self) -> int:
        """Total garbled faults injected below us (0 on pristine stacks)."""
        layer = self.inner
        while layer is not None:
            count = getattr(layer, "garbled_count", None)
            if count is not None:
                return count
            layer = getattr(layer, "inner", None)
        return 0


class ValidationCache:
    """Run-wide memo of the Surface Web questions a run asks.

    One instance serves every Surface question of a pipeline run, with
    or without a :class:`CacheConfig`: the Surface discoverer's
    extraction searches and the hit counts of every
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

    Validators with different scoring rules share counts, not scores.
    """

    def __init__(self) -> None:
        self.marginal_hits: Dict[str, int] = {}
        self.joint_hits: Dict[Tuple[str, str, int], int] = {}
        self.searches: Dict[Tuple[str, int], Tuple[SearchResult, ...]] = {}

    def __len__(self) -> int:
        return (
            len(self.marginal_hits)
            + len(self.joint_hits)
            + len(self.searches)
        )

    def clone(self) -> "ValidationCache":
        """An independent copy (a :class:`CachePreload` holds one, so later
        growth of the donor run's memo cannot leak into the preload).
        Answers are shared, not copied: nothing mutates one."""
        copy = ValidationCache()
        copy.update(self)
        return copy

    def update(self, other: "ValidationCache") -> None:
        """Add every entry of ``other`` (a preload's memo) to this one."""
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
    """A first-class warm-start input: one run's cache content, portable.

    Captured from a finished run's :class:`CachingSearchEngine` and
    :class:`ValidationCache`, and applied to a fresh run *before* any unit
    executes — the warm run then sees cache hits exactly where the donor
    run would have, spending no round trips on answers already paid for.
    This is the unit of state the matching service's copy-on-write epochs
    hand from one request to the next, and it is deliberately symmetric:
    a service request and a standalone :meth:`WebIQMatcher.run
    <repro.core.pipeline.WebIQMatcher.run>` given the same preload follow
    the same code path, which is what makes their exports byte-identical
    by construction.

    A preload is its key order (a tuple, cold to hot), a key → answer map
    and a validation memo, and none of the three is ever written after
    construction. That is what isolates it from the runs that read it:
    :meth:`apply` loads copies into the run's own caches, and
    :meth:`capture` shares a parent's map and memo with the child
    preload when the run left them unchanged, so a chain of epochs that
    add nothing holds one copy of the content, not one per epoch. The
    answers themselves are never copied — nothing mutates a cached
    answer. ``fingerprint()`` gives a stable identity that enters the
    journal meta of warm runs: resuming a warm journal with a *different*
    preload is refused, because the replayed hit pattern would not match.
    """

    def __init__(self, engine_entries=None, validation=None) -> None:
        """``engine_entries`` are ``(key, answer)`` pairs, cold to hot;
        ``validation`` is copied."""
        answers = dict(engine_entries or ())
        self._order: Tuple[Tuple, ...] = tuple(answers)
        self._answers: Dict[Tuple, Any] = answers
        #: the donor run's validation memo (searches and hit counts)
        self.validation: ValidationCache = (
            validation.clone() if validation is not None else ValidationCache()
        )

    @classmethod
    def capture(
        cls,
        cache_engine: "CachingSearchEngine",
        validation_cache: ValidationCache,
        parent: Optional["CachePreload"] = None,
    ) -> "CachePreload":
        """Snapshot a run's cache content (recency order preserved).

        ``parent`` is the preload :meth:`apply` seeded the run with, if
        any. What the run left unchanged is shared with it, not copied:
        the answer map when the cache's only change of content was that
        bulk load (a journal replay or a new answer counts as a change),
        the validation memo when it did not grow (its entries are
        written once, so an equal length means equal content).
        """
        preload = cls()
        preload._order = cache_engine.snapshot_order()
        # A bulk load that drops nothing counts one mutation (LRUCache.load).
        if parent is not None and cache_engine.mutations == 1:
            preload._answers = parent._answers
        else:
            preload._answers = cache_engine.snapshot_answers()
        if parent is not None and len(validation_cache) == len(
                parent.validation):
            preload.validation = parent.validation
        else:
            preload.validation = validation_cache.clone()
        return preload

    def apply(
        self,
        cache_engine: "CachingSearchEngine",
        validation_cache: ValidationCache,
    ) -> None:
        """Seed a fresh run's caches with this snapshot.

        The engine's empty cache is bulk-loaded (content and recency only,
        no stats): the warm run's :class:`CacheStats` start at zero and
        then count *its own* hits against the preloaded content, exactly
        as a long-lived cache would.
        """
        cache_engine.load_entries(self._order, self._answers)
        validation_cache.update(self.validation)

    @property
    def engine_entries(self) -> List[Tuple[Tuple, Any]]:
        """Cache entries in recency order (cold to hot), as ``(key,
        value)`` pairs."""
        return list(zip(self._order, map(self._answers.__getitem__,
                                         self._order)))

    @property
    def n_entries(self) -> int:
        return len(self._order)

    @property
    def is_empty(self) -> bool:
        return not self._order and not len(self.validation)

    def fingerprint(self) -> int:
        """Stable identity of the snapshot (CRC over its canonical repr).

        Enters the journal meta of warm runs, so a journal written under
        one preload refuses to resume under another.
        """
        canon = repr((
            self.engine_entries,
            sorted(self.validation.marginal_hits.items()),
            sorted(self.validation.joint_hits.items()),
            sorted(self.validation.searches.items()),
        ))
        return zlib.crc32(canon.encode("utf-8"))
