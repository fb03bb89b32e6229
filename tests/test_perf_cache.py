"""Tests for repro.perf: the run's memo of Surface questions and its stats.

The memo's contract: a repeated question is answered with the exact value
the engine returned the first time, without reaching it (no query_count
movement, no budget or latency charge); what the run received is kept,
degraded and garbled answers included; every lookup is a hit or a miss,
and a miss is one engine call.
"""

import json

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.core.surface import SurfaceConfig, SurfaceDiscoverer, WebValidator
from repro.datasets import build_domain_dataset
from repro.perf import (
    CachePreload,
    CacheStats,
    ValidationCache,
    normalize_query,
)
from repro.resilience import (
    FaultProfile,
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


class TestCacheStats:
    def test_counters_and_hit_rate(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.note_miss("marginal")
        stats.note_hit("marginal")
        stats.note_hit("search")
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.hits_by_kind == {"marginal": 1, "search": 1}
        assert stats.misses_by_kind == {"marginal": 1}

    def test_note_hit_counts_several_lookups(self):
        stats = CacheStats()
        stats.note_hit("marginal", 4)
        stats.note_hit("joint", 3)
        stats.note_hit("marginal")
        assert stats.hits == 8
        assert stats.hits_by_kind == {"marginal": 5, "joint": 3}

    def test_summary_is_one_line(self):
        summary = CacheStats().summary()
        assert "\n" not in summary
        assert "hit" in summary

    def test_state_round_trips(self):
        stats = CacheStats()
        stats.note_miss("joint")
        stats.note_hit("search")
        restored = CacheStats()
        restored.restore_state(json.loads(json.dumps(stats.state_payload())))
        assert restored == stats


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
        engine = make_engine()
        cache = ValidationCache()
        first = WebValidator(engine, cache=cache)
        second = WebValidator(engine, cache=cache)
        first.marginal_hits("boston")
        queries_after_first = engine.query_count
        second.marginal_hits("boston")
        assert engine.query_count == queries_after_first

    # ------------------------------------------------ lookups and stats
    def test_hit_skips_the_engine(self):
        engine = make_engine()
        memo = ValidationCache()
        validator = WebValidator(engine, cache=memo)
        first = validator.marginal_hits("boston")
        count_after_miss = engine.query_count
        assert validator.marginal_hits("boston") == first
        assert engine.query_count == count_after_miss == 1
        assert memo.stats.hits == memo.stats.misses == 1

    def test_normalized_variants_share_one_entry(self):
        engine = make_engine()
        memo = ValidationCache()
        validator = WebValidator(engine, cache=memo)
        for text in ("Boston", "  boston ", "BOSTON"):
            validator.marginal_hits(text)
        assert memo.stats.misses_by_kind == {"marginal": 1}
        assert memo.stats.hits_by_kind == {"marginal": 2}
        assert engine.query_count == 1

    def test_methods_and_arguments_key_separately(self):
        engine = make_engine()
        memo = ValidationCache()
        validator = WebValidator(engine, cache=memo)
        validator.score_vector(["cities", "cities such as"], "boston")
        narrow = SurfaceDiscoverer(
            engine, SurfaceConfig(snippets_per_query=3), memo)
        wide = SurfaceDiscoverer(
            engine, SurfaceConfig(snippets_per_query=5), memo)
        for discoverer in (narrow, wide, narrow):
            discoverer._search('"cities such as"')
        # Three marginals (the candidate and both phrases), the adjacency
        # and the windowed joint, and one search per snippet count.
        assert memo.stats.misses_by_kind == {
            "marginal": 3, "joint": 2, "search": 2}
        assert memo.stats.hits_by_kind == {"search": 1}
        assert engine.query_count == memo.stats.misses == len(memo)

    def test_answers_match_the_engine_exactly(self):
        engine = make_engine()
        validator = WebValidator(make_engine(), cache=ValidationCache())
        for query in ("boston", "cities", "no such term"):
            for _ in range(2):  # a miss, then a hit
                assert validator.marginal_hits(query) == \
                    engine.num_hits(f'"{query}"')
        discoverer = SurfaceDiscoverer(make_engine())
        assert list(discoverer._search("cities")) == engine.search(
            "cities", max_results=discoverer.config.snippets_per_query)

    def test_degraded_answer_is_kept(self):
        # A dead engine (every call times out, zero retries, so the
        # resilient proxy degrades to neutral 0): the memo keeps the
        # neutral answer, and a repeat reads it without a round trip.
        profile = FaultProfile(fault_rate=1.0, timeout_weight=1.0,
                               transient_weight=0.0, rate_limit_weight=0.0,
                               garbled_weight=0.0)
        client = ResilientClient(ResilienceConfig(
            profile=profile, retry=_no_retry(), breaker=_no_breaker()))
        engine = ResilientSearchEngine(make_engine(), client)
        memo = ValidationCache()
        validator = WebValidator(engine, cache=memo)

        assert validator.marginal_hits("boston") == 0
        assert sum(client.report.giveups_by_component.values()) == 1
        spent = engine.query_count
        assert validator.marginal_hits("boston") == 0
        assert engine.query_count == spent
        assert memo.marginal_hits == {"boston": 0}
        assert (memo.stats.hits, memo.stats.misses) == (1, 1)

    def test_garbled_answer_is_kept(self):
        # Garbled num_hits "succeeds" with 0 — a corrupted payload. The
        # memo keeps it like any answer the run received.
        profile = FaultProfile(fault_rate=1.0, timeout_weight=0.0,
                               transient_weight=0.0, rate_limit_weight=0.0,
                               garbled_weight=1.0)
        client = ResilientClient(ResilienceConfig(profile=profile))
        engine = ResilientSearchEngine(make_engine(), client)
        memo = ValidationCache()
        validator = WebValidator(engine, cache=memo)

        assert validator.marginal_hits("boston") == 0
        assert validator.marginal_hits("boston") == 0
        assert engine.query_count == 1
        assert client.report.faults_by_kind == {"garbled": 1}
        assert memo.marginal_hits == {"boston": 0}
        assert (memo.stats.hits, memo.stats.misses) == (1, 1)

    def test_clone_and_update_copy_entries_not_stats(self):
        memo = ValidationCache()
        WebValidator(make_engine(), cache=memo).marginal_hits("boston")
        copy = memo.clone()
        assert copy.marginal_hits == memo.marginal_hits
        assert copy.stats == CacheStats()
        copy.update(memo)
        assert copy.stats == CacheStats()

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


class TestScoreVectorMemo:
    """``score_vector`` memoises each ``(scoring, phrases, candidate)``'s
    vector in the run's memo. The vector is derived from counts already
    memoised, so a repeat asks nothing and notes exactly the hits the
    recomputation would have noted; the map is neither an entry, nor
    copied, nor journaled."""

    PHRASES = ("cities", "cities such as", "such cities as")

    def test_repeat_is_an_equal_fresh_list_that_asks_nothing(self):
        engine = make_engine()
        memo = ValidationCache()
        validator = WebValidator(engine, cache=memo)
        first = validator.score_vector(self.PHRASES, "boston")
        queries = engine.query_count
        before = memo.stats.state_payload()
        second = validator.score_vector(list(self.PHRASES), "boston")
        assert second == first and second is not first
        assert engine.query_count == queries
        n = len(self.PHRASES)
        after = memo.stats.state_payload()
        assert after["misses_by_kind"] == before["misses_by_kind"]
        assert after["hits"] - before["hits"] == 2 * n + 1
        moved = {kind: count - before["hits_by_kind"].get(kind, 0)
                 for kind, count in after["hits_by_kind"].items()}
        assert moved == {"marginal": n + 1, "joint": n}
        # a caller mutating its copy cannot reach the memo
        second.append(99.0)
        assert validator.score_vector(self.PHRASES, "boston") == first

    def test_hit_notes_what_recomputing_notes(self):
        # the same calls against a memo with no vectors (counts only)
        # leave the same account, marginal noted before joint
        memo, counts_only = ValidationCache(), ValidationCache()
        validator = WebValidator(make_engine(), cache=memo)
        plain = WebValidator(make_engine(), cache=counts_only)
        for candidate in ("boston", "miami", "boston", "boston", "miami"):
            assert validator.score_vector(self.PHRASES, candidate) == \
                plain.score_vector(self.PHRASES, candidate)
            counts_only.vectors.clear()
        assert memo.stats == counts_only.stats
        assert list(memo.stats.hits_by_kind) == ["marginal", "joint"]

    def test_recorded_vector_notes_no_hits(self):
        memo = ValidationCache()
        validator = WebValidator(make_engine(), cache=memo)
        vector = validator.score_vector(self.PHRASES, "boston")
        before = memo.stats.state_payload()
        assert validator.recorded_vector(self.PHRASES, "boston") == vector
        assert memo.stats.state_payload() == before

    def test_scoring_rules_do_not_share_vectors(self):
        engine = make_engine()
        memo = ValidationCache()
        pmi = WebValidator(engine, scoring="pmi", cache=memo)
        hits = WebValidator(engine, scoring="hits", cache=memo)
        by_pmi = pmi.score_vector(self.PHRASES, "boston")
        queries = engine.query_count
        by_hits = hits.score_vector(self.PHRASES, "boston")
        assert engine.query_count == queries  # counts are shared...
        assert by_hits != by_pmi  # ...scores are not
        assert by_hits == [
            float(memo.joint_hits[(phrase, "boston", int(i != 0))])
            for i, phrase in enumerate(self.PHRASES)]
        assert len(memo.vectors) == 2

    def test_vectors_are_no_entries_and_are_neither_copied_nor_journaled(self):
        memo = ValidationCache()
        mark = memo.mark()
        WebValidator(make_engine(), cache=memo).score_vector(
            self.PHRASES, "boston")
        assert memo.vectors
        assert len(memo) == len(memo.marginal_hits) + len(memo.joint_hits)
        assert memo.clone().vectors == {}
        fresh = ValidationCache()
        fresh.update(memo)
        assert fresh.vectors == {}
        assert CachePreload(memo).validation.vectors == {}
        assert set(memo.delta_since(mark)) == {
            "marginal_hits", "joint_hits", "searches"}

    def test_figure6_pass_computes_each_pair_once(self, monkeypatch):
        # 5 domains x 20 interfaces at dataset seed 1, default config:
        # Surface validation and Attr-Surface training and prediction ask
        # for 7,624 vectors, 2,286 of them distinct within their run
        from repro.datasets import DOMAINS

        calls = {"score_vector": 0, "computed": 0}
        score_vector, vector = WebValidator.score_vector, WebValidator._vector

        def counted_score_vector(self, *args):
            calls["score_vector"] += 1
            return score_vector(self, *args)

        def counted_vector(self, *args):
            calls["computed"] += 1
            return vector(self, *args)

        monkeypatch.setattr(WebValidator, "score_vector", counted_score_vector)
        monkeypatch.setattr(WebValidator, "_vector", counted_vector)
        for domain in DOMAINS:
            WebIQMatcher(WebIQConfig()).run(
                build_domain_dataset(domain, 20, 1))
        assert calls == {"score_vector": 7624, "computed": 2286}


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


class TestEveryRunHasItsMemo:
    """A run that acquires reports its memo and returns it; there is no
    switch that hides either, and no config that refuses a warm start."""

    @staticmethod
    def run(config, warm=None):
        dataset = build_domain_dataset("book", 3, 1)
        result = WebIQMatcher(config).run(dataset, warm=warm)
        return result, dataset.engine.query_count

    def test_default_run_reports_and_returns_its_memo(self):
        result, queries = self.run(WebIQConfig())
        assert result.cache.misses == queries > 0
        assert result.cache_content.n_entries == result.cache.misses

    def test_default_run_accepts_warm(self):
        cold, _ = self.run(WebIQConfig())
        warm, queries = self.run(WebIQConfig(), warm=cold.cache_content)
        assert queries == 0
        assert warm.cache.misses == 0
        assert warm.cache.hits == cold.cache.hits + cold.cache.misses

    def test_baseline_run_has_no_memo(self):
        baseline = WebIQConfig(enable_surface=False, enable_attr_deep=False,
                               enable_attr_surface=False)
        result, _ = self.run(baseline)
        assert result.cache is None
        assert result.cache_content is None
