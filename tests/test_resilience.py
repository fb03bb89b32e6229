"""Tests for repro.resilience: fault injection, retries, breakers, budgets.

The layer's contract: under any fault profile the pipeline yields partial
results instead of raising; under ``fault_rate=0.0`` it is an exact
pass-through; and everything — fault streams, backoff schedules, breaker
trips — is deterministic in the profile seed.
"""

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.deepweb.models import Attribute, QueryInterface
from repro.deepweb.response import analyze_response
from repro.deepweb.source import DeepWebSource
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    FaultKind,
    FaultProfile,
    ResilienceConfig,
    ResilientClient,
    ResilientDeepWebSource,
    ResilientSearchEngine,
    RetryPolicy,
)
from repro.resilience.context import unit_scope
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.util.errors import (
    BudgetExhaustedError,
    CircuitOpenError,
    RateLimitError,
    ReproError,
    TransientWebError,
    WebAccessError,
    WebTimeoutError,
)
from repro.util.rng import derive_rng


def make_engine():
    return SearchEngine([
        Document(0, "u0", "t", "Authors such as King, Rowling, Tolkien."),
        Document(1, "u1", "t", "Cities such as Boston, Chicago, Miami."),
    ])


def make_source():
    interface = QueryInterface("air-1", "airfare", "flight", [
        Attribute(name="from", label="From"),
    ])
    return DeepWebSource(
        interface=interface,
        recognizers={"from": lambda v: v.lower() in {"boston", "miami"}},
        records=[{"from": "Boston"}],
    )


TIMEOUTS_ONLY = dict(transient_weight=0, rate_limit_weight=0, garbled_weight=0)
GARBLED_ONLY = dict(timeout_weight=0, transient_weight=0, rate_limit_weight=0)


def make_client(profile, max_attempts=1):
    """A client that gives up after ``max_attempts`` and never trips a
    breaker, so every call draws exactly its attempts' fates."""
    return ResilientClient(ResilienceConfig(
        profile=profile, retry=RetryPolicy(max_attempts=max_attempts),
        breaker=BreakerPolicy(failure_threshold=10_000)))


def resilient_engine(profile, max_attempts=1):
    client = make_client(profile, max_attempts)
    return ResilientSearchEngine(make_engine(), client), client


def resilient_source(profile, client=None, interface_id="air-1"):
    inner = make_source()
    inner.interface.interface_id = interface_id
    return ResilientDeepWebSource(inner, client or make_client(profile))


def fate_of(client, call):
    """The fault kind value the single attempt of ``call()`` drew, read
    off the report (``None`` when the attempt was healthy)."""
    before = dict(client.report.faults_by_kind)
    call()
    moved = [kind for kind, count in client.report.faults_by_kind.items()
             if count != before.get(kind, 0)]
    assert len(moved) <= 1
    return moved[0] if moved else None


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        WebAccessError, TransientWebError, RateLimitError, WebTimeoutError,
        CircuitOpenError, BudgetExhaustedError,
    ])
    def test_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_fault_family_under_web_access_error(self):
        for exc in (TransientWebError, RateLimitError, WebTimeoutError):
            assert issubclass(exc, WebAccessError)
        assert not issubclass(CircuitOpenError, WebAccessError)
        assert not issubclass(BudgetExhaustedError, WebAccessError)


class TestFaultProfile:
    def test_zero_rate_never_faults(self):
        profile = FaultProfile(fault_rate=0.0)
        rng = derive_rng(1, "t")
        assert all(profile.draw(rng) is None for _ in range(200))

    def test_full_rate_always_faults(self):
        profile = FaultProfile(fault_rate=1.0)
        rng = derive_rng(1, "t")
        assert all(profile.draw(rng) is not None for _ in range(200))

    def test_draw_sequence_deterministic_in_seed(self):
        profile = FaultProfile(fault_rate=0.5)
        rng1, rng2 = derive_rng(9, "x"), derive_rng(9, "x")
        seq1 = [profile.draw(rng1) for _ in range(100)]
        seq2 = [profile.draw(rng2) for _ in range(100)]
        assert seq1 == seq2
        assert any(kind is not None for kind in seq1)

    def test_weights_select_kinds(self):
        profile = FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY)
        rng = derive_rng(1, "t")
        assert all(
            profile.draw(rng) is FaultKind.TIMEOUT for _ in range(50)
        )

    @pytest.mark.parametrize("kwargs", [
        dict(fault_rate=-0.1),
        dict(fault_rate=1.5),
        dict(fault_rate=0.5, timeout_weight=-1),
        dict(fault_rate=0.5, timeout_weight=0, transient_weight=0,
             rate_limit_weight=0, garbled_weight=0),
    ])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultProfile(**kwargs)


class TestFlakySearchEngine:
    """Fault injection on the Surface Web: the resilient engine proxy
    draws each attempt's fate itself."""

    def test_zero_rate_is_pass_through(self):
        engine, client = resilient_engine(FaultProfile(fault_rate=0.0))
        pristine = make_engine()
        assert engine.search('"such as"') == pristine.search('"such as"')
        assert engine.num_hits("boston") == pristine.num_hits("boston")
        assert engine.query_count == pristine.query_count
        assert client.report.empty

    def test_raising_faults_charge_the_round_trip(self):
        profile = FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY)
        engine, client = resilient_engine(profile)
        assert engine.search("boston") == []
        assert engine.query_count == 1  # the failed round trip still counts
        assert client.report.faults_by_kind == {"timeout": 1}
        engine, client = resilient_engine(profile, max_attempts=3)
        assert engine.num_hits("boston") == 0
        assert engine.query_count == 3  # and so does every retried one
        assert client.report.faults_by_kind == {"timeout": 3}

    def test_garbled_truncates_snippets(self):
        engine, _ = resilient_engine(
            FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        results = engine.search('"such as"')
        clean = make_engine().search('"such as"')
        assert len(results) == len(clean)
        for garbled, ok in zip(results, clean):
            assert len(garbled.snippet) < len(ok.snippet)
            assert ok.snippet.startswith(garbled.snippet)

    def test_garbled_hit_counts_read_as_zero(self):
        engine, client = resilient_engine(
            FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        assert engine.num_hits("boston") == 0
        assert engine.num_hits_proximity("cities", "boston") == 0
        assert engine.query_count == 2
        assert client.report.faults_by_kind == {"garbled": 2}
        assert client.report.total_retries == 0  # garbled calls succeed

    def test_report_sees_every_kind(self):
        # Fates are keyed by call content, so a repeated identical call
        # replays one fate forever; distinct queries sample the fate space.
        engine, client = resilient_engine(FaultProfile(fault_rate=1.0))
        for i in range(60):
            engine.num_hits(f"boston {i}")
        assert set(client.report.faults_by_kind) \
            == {kind.value for kind in FaultKind}
        assert client.report.total_faults == 60

    def test_fate_is_pure_function_of_call_content(self):
        # The same query drawn twice — even with other traffic interleaved —
        # meets the same fate; this is what makes caching sound under faults.
        def fates(queries):
            engine, client = resilient_engine(
                FaultProfile(fault_rate=0.5, seed=7))
            return {q: fate_of(client, lambda: engine.num_hits(q))
                    for q in queries}

        first = fates(["boston", "chicago", "dallas"])
        shuffled = fates(["dallas", "extra query", "boston", "chicago"])
        assert set(first.values()) - {None}
        for query, fate in first.items():
            assert shuffled[query] == fate

    def test_retry_attempt_rerolls_fate(self):
        profile = FaultProfile(fault_rate=0.5, seed=3)
        per_attempt = [profile.call_fate("num_hits", n, "boston")
                       for n in range(40)]
        # Re-rolling across attempts explores different fates...
        assert len(set(per_attempt)) > 1
        # ...while the same (call, attempt) pair always replays its own,
        assert profile.call_fate("num_hits", 0, "boston") == per_attempt[0]
        # keyed by the method and arguments too.
        assert [profile.call_fate("search", n, "boston")
                for n in range(40)] != per_attempt

    def test_retry_rerolls_the_fate_and_a_repeat_replays_it(self):
        profile = FaultProfile(fault_rate=0.5, seed=3)
        # "dallas" rate-limits on attempts 0 and 1 and is answered on 2
        fates = [profile.call_fate("num_hits", n, "dallas") for n in range(3)]
        assert fates == [FaultKind.RATE_LIMIT, FaultKind.RATE_LIMIT, None]
        engine, client = resilient_engine(profile, max_attempts=10)
        hits = make_engine().num_hits("dallas")
        for calls in (1, 2):  # the repeat walks the same three attempts
            assert engine.num_hits("dallas") == hits
            assert engine.query_count == 3 * calls
            assert client.report.faults_by_kind == {"rate_limit": 2 * calls}
            assert client.report.total_retries == 2 * calls
        # one attempt only: the first fate stands and the call gives up
        engine, client = resilient_engine(profile, max_attempts=1)
        assert engine.num_hits("dallas") == 0
        assert client.report.giveups_by_component == {"web": 1}


class TestFlakyDeepWebSource:
    """Fault injection on the Deep Web, drawn by the source proxy."""

    def test_raising_faults_charge_the_probe(self):
        source = resilient_source(FaultProfile(fault_rate=1.0,
                                               **TIMEOUTS_ONLY))
        page = source.submit({"from": "Boston"})
        assert "unavailable" in page.url
        assert source.probe_count == 1
        assert source.client.report.faults_by_kind == {"timeout": 1}

    def test_garbled_page_is_a_truncated_real_page(self):
        source = resilient_source(FaultProfile(fault_rate=1.0,
                                               **GARBLED_ONLY))
        clean = make_source().submit({"from": "Boston"})
        page = source.submit({"from": "Boston"})
        assert clean.text.startswith(page.text)
        assert len(page.text) < len(clean.text)
        assert source.probe_count == 1

    def test_sources_have_independent_fault_streams(self):
        profile = FaultProfile(fault_rate=0.5, seed=3, **TIMEOUTS_ONLY)
        outcomes = {}
        for make_noise in (0, 5):
            client = make_client(profile)
            source_a = resilient_source(profile, client)
            # interleave traffic to a second source on the same client;
            # A's fate must not move
            source_b = resilient_source(profile, client, "air-2")
            for _ in range(make_noise):
                source_b.submit({"from": "Boston"})
            outcomes[make_noise] = [
                "unavailable" in source_a.submit({"from": "Boston"}).url
                for _ in range(20)
            ]
        assert outcomes[0] == outcomes[5]
        assert len(set(outcomes[0])) == 2


UNIT = ("attr_deep", "air-1", "from")
OTHER_UNITS = [("attr_deep", "air-3", "to"), ("surface", "air-1", "from")]


def jitter_in_unit(client, unit, retries=6):
    """Backoff seconds of ``retries`` retries drawn inside ``unit`` (each
    unit bills its own component, so the sum starts from zero)."""
    component = "/".join(unit)
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] <= retries:
            raise TransientWebError("502")
        return "ok"

    with unit_scope(unit), client.component(component):
        client.call(flaky)
    return client.report.backoff_seconds_by_component[component]


def submit_fate(source):
    return fate_of(source.client, lambda: source.submit({"from": "Boston"}))


def fates_in_unit(source, unit, n=20):
    with unit_scope(unit):
        return [submit_fate(source) for _ in range(n)]


class TestPerUnitStreams:
    """Draws inside ``unit_scope(K)`` are a pure function of ``K``: they
    do not move when other units drew first, in any order."""

    def make_client(self):
        return ResilientClient(ResilienceConfig(
            profile=FaultProfile(seed=11),
            retry=RetryPolicy(max_attempts=10, jitter=0.5)))

    def test_backoff_jitter_ignores_earlier_units(self):
        alone = jitter_in_unit(self.make_client(), UNIT)
        for order in (OTHER_UNITS, OTHER_UNITS[::-1]):
            client = self.make_client()
            for other in order:
                jitter_in_unit(client, other)
            client.call(lambda: "outside any unit")
            assert jitter_in_unit(client, UNIT) == alone
        # ...and the stream really is per unit, not one shared sequence
        assert jitter_in_unit(self.make_client(), OTHER_UNITS[0]) != alone

    def test_source_fault_fates_ignore_earlier_units(self):
        profile = FaultProfile(fault_rate=0.5, seed=3)
        alone = fates_in_unit(resilient_source(profile), UNIT)
        assert None in alone and len(set(alone)) > 1
        for order in (OTHER_UNITS, OTHER_UNITS[::-1]):
            source = resilient_source(profile)
            for other in order:
                fates_in_unit(source, other, n=7)
            for _ in range(3):  # the stream outside any unit
                submit_fate(source)
            assert fates_in_unit(source, UNIT) == alone
        assert fates_in_unit(resilient_source(profile),
                             OTHER_UNITS[0]) != alone

    def test_outside_any_unit_fates_follow_the_source_stream(self):
        # what a source proxy used outside any unit scope draws
        profile = FaultProfile(fault_rate=0.5, seed=3)
        source = resilient_source(profile)
        fates = [submit_fate(source) for _ in range(20)]
        stream = derive_rng(3, "faults", "source", "air-1")
        expected = [profile.draw(stream) for _ in range(20)]
        assert fates == [kind and kind.value for kind in expected]
        assert None in fates and len(set(fates)) > 2

    def test_outside_any_unit_jitter_follows_the_backoff_stream(self):
        client = self.make_client()
        for component in ("first", "second"):  # one stream across calls
            failures = {"n": 0}

            def flaky():
                failures["n"] += 1
                if failures["n"] <= 3:
                    raise TransientWebError("502")
                return "ok"

            with client.component(component):
                client.call(flaky)
        stream = derive_rng(11, "resilience", "backoff")
        retry = client.config.retry
        expected = {}
        for component in ("first", "second"):
            total = 0.0
            for attempt in range(3):
                total += retry.delay(attempt, stream)
            expected[component] = total
        assert client.report.backoff_seconds_by_component == expected


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_rejections=3))
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.record_failure()  # second failure trips it
        assert breaker.state == CircuitBreaker.OPEN
        # cooldown: three fast-fails, then a half-open trial
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_rejections=1))
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.allow()  # half-open trial
        assert breaker.record_failure()  # single failure re-opens
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             max_delay=100.0)
        rng = derive_rng(1, "t")
        assert [policy.delay(a, rng) for a in range(4)] == [1, 2, 4, 8]

    def test_backoff_clamped_to_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, jitter=0.0,
                             max_delay=5.0)
        rng = derive_rng(1, "t")
        assert policy.delay(6, rng) == 5.0

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(base_delay=2.0, multiplier=1.0, jitter=0.25)
        rng = derive_rng(1, "t")
        for attempt in range(200):
            assert 1.5 <= policy.delay(0, rng) <= 2.5

    def test_rate_limits_back_off_harder(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.0,
                             rate_limit_factor=4.0)
        rng = derive_rng(1, "t")
        assert policy.delay(0, rng, rate_limited=True) == 4.0

    def test_schedule_deterministic_under_fixed_seed(self):
        def schedule(seed):
            policy = RetryPolicy(base_delay=0.5, jitter=0.25)
            rng = derive_rng(seed, "resilience", "backoff")
            return [policy.delay(a % 3, rng) for a in range(30)]
        assert schedule(4) == schedule(4)
        assert schedule(4) != schedule(5)


class TestResilientClient:
    def test_retries_until_success(self):
        client = ResilientClient(ResilienceConfig())
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientWebError("502")
            return "ok"

        assert client.call(flaky) == "ok"
        assert calls["n"] == 3
        assert client.report.total_retries == 2
        assert client.report.total_backoff_seconds > 0

    def test_gives_up_after_max_attempts(self):
        client = ResilientClient(
            ResilienceConfig(retry=RetryPolicy(max_attempts=3)))

        def dead():
            raise WebTimeoutError("down")

        with pytest.raises(WebTimeoutError):
            client.call(dead)
        assert client.report.giveups_by_component == {"web": 1}
        assert client.report.retries_by_component == {"web": 2}

    def test_programming_errors_propagate_unretried(self):
        client = ResilientClient(ResilienceConfig())
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise KeyError("nope")

        with pytest.raises(KeyError):
            client.call(broken)
        assert calls["n"] == 1  # never retried

    def test_budget_exhaustion(self):
        client = ResilientClient(
            ResilienceConfig(surface_query_budget=2))
        with client.component("surface"):
            assert client.call(lambda: "a") == "a"
            assert client.call(lambda: "b") == "b"
            with pytest.raises(BudgetExhaustedError):
                client.call(lambda: "c")
        assert client.budget_exhausted("surface")
        assert client.report.budgets_exhausted == ["surface"]

    def test_failed_attempts_consume_budget(self):
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=10),
            attr_deep_probe_budget=4,
        ))

        def dead():
            raise TransientWebError("502")

        with client.component("attr_deep"):
            with pytest.raises(BudgetExhaustedError):
                client.call(dead)
        assert client.budget_exhausted("attr_deep")

    def test_breaker_trips_and_fast_fails(self):
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=10),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_rejections=5),
        ))
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise WebTimeoutError("down")

        with pytest.raises(CircuitOpenError):
            client.call(dead, source_id="s1")
        assert calls["n"] == 3  # tripped at the threshold, retries stopped
        assert client.report.breaker_trips == {"s1": 1}
        # while open the call never reaches the source
        with pytest.raises(CircuitOpenError):
            client.call(dead, source_id="s1")
        assert calls["n"] == 3
        assert client.report.breaker_rejections == {"s1": 1}

    def test_backoff_accounting_deterministic(self):
        def run_once():
            client = ResilientClient(
                ResilienceConfig(profile=FaultProfile(seed=11)))
            state = {"n": 0}

            def flaky():
                state["n"] += 1
                if state["n"] % 2:
                    raise TransientWebError("502")
                return state["n"]

            with client.component("surface"):
                for _ in range(10):
                    client.call(flaky)
            return client.report.backoff_seconds_by_component

        assert run_once() == run_once()


class TestResilientProxies:
    def test_engine_pass_through_when_healthy(self):
        engine, client = resilient_engine(FaultProfile(fault_rate=0.0))
        assert engine.search('"such as"') == make_engine().search('"such as"')
        assert client.report.empty

    def test_engine_degrades_to_neutral_values(self):
        engine, client = resilient_engine(
            FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY), max_attempts=2)
        assert engine.search("boston") == []
        assert engine.num_hits("boston") == 0
        assert engine.num_hits_proximity("cities", "boston") == 0
        assert client.report.giveups_by_component["web"] == 3

    def test_dead_source_degrades_to_failure_page(self):
        client = ResilientClient(ResilienceConfig(
            profile=FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY),
            retry=RetryPolicy(max_attempts=2)))
        source = ResilientDeepWebSource(make_source(), client)
        page = source.submit({"from": "Boston"})
        assert not analyze_response(page.text).success
        assert "unavailable" in page.url

    def test_breaker_stops_probe_consumption(self):
        # A dead source must stop burning real probes once its breaker is
        # open: fast-fails never reach the inner source.
        client = ResilientClient(ResilienceConfig(
            profile=FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY),
            retry=RetryPolicy(max_attempts=10),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_rejections=100),
        ))
        source = ResilientDeepWebSource(make_source(), client)
        source.submit({"from": "Boston"})
        probes_at_trip = source.probe_count
        assert probes_at_trip == 3
        for _ in range(10):
            page = source.submit({"from": "Boston"})
            assert not analyze_response(page.text).success
        assert source.probe_count == probes_at_trip


class TestPipelineBitIdentity:
    def test_zero_fault_rate_is_bit_identical(self):
        plain = WebIQMatcher(WebIQConfig()).run(
            build_domain_dataset("book", n_interfaces=5, seed=2))
        config = WebIQConfig(resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.0)))
        wrapped = WebIQMatcher(config).run(
            build_domain_dataset("book", n_interfaces=5, seed=2))
        assert wrapped.metrics == plain.metrics
        assert (wrapped.stopwatch.seconds_by_account
                == plain.stopwatch.seconds_by_account)
        assert (wrapped.acquisition.surface_queries
                == plain.acquisition.surface_queries)
        assert (wrapped.acquisition.attr_deep_probes
                == plain.acquisition.attr_deep_probes)
        assert wrapped.degradation is not None
        assert wrapped.degradation.empty

    def test_fault_runs_deterministic_in_seed(self):
        def run():
            config = WebIQConfig(resilience=ResilienceConfig(
                profile=FaultProfile(fault_rate=0.4, seed=5)))
            result = WebIQMatcher(config).run(
                build_domain_dataset("book", n_interfaces=4, seed=2))
            return (result.metrics, result.degradation.faults_by_kind,
                    result.stopwatch.seconds_by_account)

        assert run() == run()


class TestPipelineBudgetDegradation:
    def test_exhausted_budgets_yield_partial_results(self):
        config = WebIQConfig(resilience=ResilienceConfig(
            surface_query_budget=40,
            attr_surface_query_budget=20,
            attr_deep_probe_budget=3,
        ))
        result = WebIQMatcher(config).run(
            build_domain_dataset("book", n_interfaces=5, seed=2))
        degradation = result.degradation
        assert degradation.degraded
        assert "surface" in degradation.budgets_exhausted
        assert degradation.attributes_skipped
        # partial results, not a crash
        assert 0.0 < result.metrics.f1 <= 1.0
