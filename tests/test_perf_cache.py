"""Tests for repro.perf: LRU cache, stats accounting, caching engine.

The cache's contract: hits return the exact value the wrapped engine would
return, without reaching it (no query_count movement, no budget or latency
charge); only clean answers are stored (degraded and garbled ones are
refused); eviction is LRU with full accounting.
"""

import json

import pytest

from repro.perf import (
    CacheConfig,
    CacheStats,
    CachingSearchEngine,
    LRUCache,
    ValidationCache,
    normalize_query,
)
from repro.resilience import (
    FaultProfile,
    FlakySearchEngine,
    ResilienceConfig,
    ResilientClient,
    ResilientSearchEngine,
)
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine, SearchResult


def make_engine():
    return SearchEngine([
        Document(0, "u0", "t", "Authors such as King, Rowling, Tolkien."),
        Document(1, "u1", "t", "Cities such as Boston, Chicago, Miami."),
        Document(2, "u2", "t", "Fly from Boston to Chicago or Miami."),
    ])


class TestNormalizeQuery:
    def test_case_and_whitespace_collapse(self):
        assert normalize_query('  Cities  SUCH as\t"Boston"  ') == \
            'cities such as "boston"'

    def test_already_canonical_is_identity(self):
        assert normalize_query("boston") == "boston"


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": now "b" is coldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_keys_order_cold_to_hot(self):
        cache = LRUCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]

    def test_overwrite_refreshes_without_growth(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # overwrite, no eviction
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        cache.put("c", 3)       # "b" is now the cold one
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    @pytest.mark.parametrize("capacity", [1, 3, 5, 9])
    def test_load_equals_seeding_every_entry_in_order(self, capacity):
        order = ("a", "b", "c", "d", "e")
        answers = {key: [key] for key in reversed(order)}
        seeded, loaded = LRUCache(capacity), LRUCache(capacity)
        for key in order:
            seeded.seed(key, answers[key])
        loaded.load(order, answers)
        assert loaded.answers() == seeded.answers()
        assert loaded.keys() == seeded.keys()
        assert loaded.stats.evictions == seeded.stats.evictions == 0

    def test_load_needs_an_empty_cache(self):
        cache = LRUCache(max_entries=2)
        cache.seed("a", 1)
        with pytest.raises(ValueError):
            cache.load(("b",), {"b": 2})

    def test_mutations_count_content_changes_not_recency(self):
        cache = LRUCache(max_entries=2)
        cache.load(("a",), {"a": 1})
        assert cache.mutations == 1
        cache.get("a")
        cache.touch("a")
        assert cache.mutations == 1
        cache.put("b", 2)
        cache.seed("c", 3)      # evicts "a": a second change
        assert cache.mutations == 4
        trimmed = LRUCache(max_entries=1)
        trimmed.load(("a", "b", "c"), {"a": 1, "b": 2, "c": 3})
        assert trimmed.mutations == 3 and trimmed.keys() == ["c"]


class TestCacheStats:
    def test_counters_and_hit_rate(self):
        stats = CacheStats(max_entries=10)
        assert stats.hit_rate == 0.0
        stats.note_miss("num_hits")
        stats.note_hit("num_hits")
        stats.note_hit("search")
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.hits_by_kind == {"num_hits": 1, "search": 1}
        assert stats.misses_by_kind == {"num_hits": 1}

    def test_summary_is_one_line(self):
        summary = CacheStats(max_entries=10).summary()
        assert "\n" not in summary
        assert "hit" in summary


class TestCacheConfig:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            CacheConfig(max_entries=0)


class TestCachingSearchEngine:
    def test_hit_skips_the_engine(self):
        caching = CachingSearchEngine(make_engine())
        first = caching.num_hits("boston")
        count_after_miss = caching.query_count
        second = caching.num_hits("boston")
        assert second == first
        assert caching.query_count == count_after_miss
        assert caching.stats.hits == 1
        assert caching.stats.misses == 1

    def test_normalized_variants_share_one_entry(self):
        caching = CachingSearchEngine(make_engine())
        caching.num_hits("Boston")
        caching.num_hits("  boston ")
        caching.num_hits("BOSTON")
        assert caching.stats.misses == 1
        assert caching.stats.hits == 2
        assert caching.query_count == 1

    def test_methods_and_arguments_key_separately(self):
        caching = CachingSearchEngine(make_engine())
        caching.num_hits("boston")
        caching.search("boston")
        caching.search("boston", max_results=3)
        caching.num_hits_proximity("cities", "boston")
        caching.num_hits_proximity("cities", "boston", window=2)
        assert caching.stats.misses == 5
        assert caching.stats.hits == 0

    def test_answers_match_the_engine_exactly(self):
        engine = make_engine()
        caching = CachingSearchEngine(make_engine())
        for query in ("boston", "cities", "no such term"):
            assert caching.num_hits(query) == engine.num_hits(query)
            assert caching.num_hits(query) == engine.num_hits(query)  # hit
            assert caching.search(query) == engine.search(query)
        assert caching.num_hits_proximity("cities", "boston") == \
            engine.num_hits_proximity("cities", "boston")

    def test_capacity_one_thrashes_but_stays_correct(self):
        caching = CachingSearchEngine(make_engine(), max_entries=1)
        a = caching.num_hits("boston")
        b = caching.num_hits("chicago")   # evicts boston
        assert caching.num_hits("boston") == a
        assert caching.num_hits("chicago") == b
        assert caching.stats.evictions >= 2

    def test_degraded_answer_is_not_cached(self):
        # A dead engine (every call times out, zero retries, so the
        # resilient proxy degrades to neutral 0) must not have its neutral
        # answer memoised: once the Web recovers, the query gets re-asked.
        profile = FaultProfile(fault_rate=1.0, timeout_weight=1.0,
                               transient_weight=0.0, rate_limit_weight=0.0,
                               garbled_weight=0.0)
        client = ResilientClient(ResilienceConfig(
            profile=profile,
            retry=_no_retry(),
            breaker=_no_breaker(),
        ))
        flaky = FlakySearchEngine(
            make_engine(), profile,
            attempt_provider=lambda: client.current_attempt)
        resilient = ResilientSearchEngine(flaky, client)
        caching = CachingSearchEngine(resilient)

        assert caching.num_hits("boston") == 0
        assert caching.stats.uncacheable == 1
        assert caching.stats.stores == 0
        caching.num_hits("boston")
        assert caching.stats.hits == 0          # re-asked, not served stale
        assert caching.stats.misses == 2

    def test_garbled_answer_is_not_cached(self):
        # Garbled num_hits "succeeds" with 0 — a corrupted payload, not an
        # answer. It must be re-fetched, never memoised.
        profile = FaultProfile(fault_rate=1.0, timeout_weight=0.0,
                               transient_weight=0.0, rate_limit_weight=0.0,
                               garbled_weight=1.0)
        flaky = FlakySearchEngine(make_engine(), profile)
        caching = CachingSearchEngine(flaky)

        assert caching.num_hits("boston") == 0
        assert caching.stats.uncacheable == 1
        assert caching.stats.stores == 0
        assert caching.num_hits("boston") == 0
        assert caching.stats.hits == 0
        assert caching.stats.misses == 2

    def test_clean_answers_are_cached_even_on_flaky_stacks(self):
        profile = FaultProfile(fault_rate=0.0)
        client = ResilientClient(ResilienceConfig(profile=profile))
        flaky = FlakySearchEngine(
            make_engine(), profile,
            attempt_provider=lambda: client.current_attempt)
        caching = CachingSearchEngine(ResilientSearchEngine(flaky, client))
        caching.num_hits("boston")
        caching.num_hits("boston")
        assert caching.stats.hits == 1
        assert caching.stats.stores == 1

    def test_facade_delegates_bookkeeping(self):
        engine = make_engine()
        caching = CachingSearchEngine(engine)
        assert caching.n_documents == engine.n_documents
        caching.num_hits("boston")
        assert engine.query_count == 1
        caching.reset_query_count()
        assert engine.query_count == 0


def _no_retry():
    from repro.resilience import RetryPolicy
    return RetryPolicy(max_attempts=1)


def _no_breaker():
    from repro.resilience import BreakerPolicy
    return BreakerPolicy(failure_threshold=10_000)


class TestValidationCache:
    def test_len_spans_all_three_maps(self):
        cache = ValidationCache()
        cache.marginal_hits["a"] = 1
        cache.joint_hits[("a", "b", 0)] = 3
        cache.searches[("a", 10)] = ()
        assert len(cache) == 3

    def test_shared_across_validators(self):
        from repro.core.surface import WebValidator

        engine = make_engine()
        cache = ValidationCache()
        first = WebValidator(engine, cache=cache)
        second = WebValidator(engine, cache=cache)
        first.marginal_hits("boston")
        queries_after_first = engine.query_count
        second.marginal_hits("boston")
        assert engine.query_count == queries_after_first

    # -------------------------------------------- journal deltas (tails)
    @staticmethod
    def _results(n):
        return tuple(SearchResult(i, f"u{i}", f"t{i}", f"snippet {n} {i}")
                     for i in range(n % 3))

    @classmethod
    def _grown(cls, cache, start, stop):
        for n in range(start, stop):
            cache.marginal_hits[f"text {n}"] = n
            cache.joint_hits[(f"phrase {n}", f"candidate {n}", n % 2)] = n + 1
            cache.searches[(f"query {n}", 10)] = cls._results(n)

    def test_delta_since_is_the_insertion_order_tail_of_each_map(self):
        cache = ValidationCache()
        self._grown(cache, 0, 5)
        mark = cache.mark()
        self._grown(cache, 5, 9)
        cache.marginal_hits["late"] = 99  # maps may grow unevenly
        delta = cache.delta_since(mark)
        assert delta["marginal_hits"] == (
            [[f"text {n}", n] for n in range(5, 9)] + [["late", 99]])
        assert delta["joint_hits"] == [
            [[f"phrase {n}", f"candidate {n}", n % 2], n + 1]
            for n in range(5, 9)]
        assert delta["searches"] == [
            [f"query {n}", 10,
             [[r.doc_id, r.url, r.title, r.snippet]
              for r in self._results(n)]]
            for n in range(5, 9)]
        assert json.loads(json.dumps(delta)) == delta

    def test_delta_since_the_current_mark_is_empty(self):
        cache = ValidationCache()
        assert cache.delta_since(cache.mark()) == {
            "marginal_hits": [], "joint_hits": [], "searches": []}
        self._grown(cache, 0, 3)
        assert not any(cache.delta_since(cache.mark()).values())

    def test_merge_delta_rebuilds_equal_maps_in_equal_order(self):
        cache = ValidationCache()
        self._grown(cache, 0, 4)
        before = cache.clone()
        mark = cache.mark()
        self._grown(cache, 4, 7)
        before.merge_delta(json.loads(json.dumps(cache.delta_since(mark))))
        for name in ("marginal_hits", "joint_hits", "searches"):
            assert list(getattr(before, name).items()) \
                == list(getattr(cache, name).items())


class TestProbeMemoDelta:
    """``commit_unit`` journals the probe memo's tail past the unit's mark."""

    class _Attribute:
        def __init__(self):
            self.acquired = []

    class _Record:
        surface_attempted = borrow_deep_attempted = False
        borrow_surface_attempted = False
        n_after_surface = n_after_borrow = 0

    def _session(self, tmp_path, memo):
        from repro.checkpoint.journal import RunJournal
        from repro.checkpoint.session import (
            CheckpointReport,
            CheckpointSession,
        )

        journal = RunJournal.create(str(tmp_path / "j"), {"domain": "book"})
        session = CheckpointSession(
            journal, CheckpointReport(str(tmp_path / "j"), resumed=False))
        session.register_probe_memo(memo)
        return session

    def _commit(self, session, memo, keys):
        unit = ("attr_deep", "book-00", "title")
        attribute, record = self._Attribute(), self._Record()
        capture = session.begin_unit(unit, attribute)
        for key in keys:
            memo[key] = len(key[-1]) % 2 == 0
        session.commit_unit(capture, attribute, record)
        return session.journal.records[-1]["probe_memo"]

    def test_each_record_carries_exactly_the_unit_s_additions(self, tmp_path):
        memo = {}
        session = self._session(tmp_path, memo)
        first = [("src-a", "title", "x"), ("src-a", "title", "yy")]
        second = [("src-b", "author", "zzz"), ("src-a", "author", "w"),
                  ("src-b", "title", "vv")]
        assert self._commit(session, memo, first) == [
            [list(key), len(key[-1]) % 2 == 0] for key in first]
        assert self._commit(session, memo, second) == [
            [list(key), len(key[-1]) % 2 == 0] for key in second]
        assert self._commit(session, memo, []) == []
