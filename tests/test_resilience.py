"""Tests for repro.resilience: fault injection, retries, breakers, budgets.

The layer's contract: under any fault profile the pipeline yields partial
results instead of raising; under ``fault_rate=0.0`` it is an exact
pass-through; and everything — fault streams, backoff schedules, breaker
trips — is deterministic in the profile seed.
"""

import threading

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
    FlakyDeepWebSource,
    FlakySearchEngine,
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
    def test_zero_rate_is_pass_through(self):
        inner, pristine = make_engine(), make_engine()
        flaky = FlakySearchEngine(inner, FaultProfile(fault_rate=0.0))
        assert flaky.search('"such as"') == pristine.search('"such as"')
        assert flaky.num_hits("boston") == pristine.num_hits("boston")
        assert flaky.query_count == pristine.query_count

    def test_raising_faults_charge_the_round_trip(self):
        flaky = FlakySearchEngine(
            make_engine(), FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        with pytest.raises(WebTimeoutError):
            flaky.search("boston")
        assert flaky.query_count == 1  # the failed round trip still counts

    def test_garbled_truncates_snippets(self):
        inner = make_engine()
        flaky = FlakySearchEngine(
            inner, FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        results = flaky.search('"such as"')
        clean = make_engine().search('"such as"')
        assert len(results) == len(clean)
        for garbled, ok in zip(results, clean):
            assert len(garbled.snippet) < len(ok.snippet)
            assert ok.snippet.startswith(garbled.snippet)

    def test_garbled_hit_counts_read_as_zero(self):
        flaky = FlakySearchEngine(
            make_engine(), FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        assert flaky.num_hits("boston") == 0
        assert flaky.num_hits_proximity("cities", "boston") == 0
        assert flaky.query_count == 2

    def test_on_fault_hook_sees_every_kind(self):
        # Fates are keyed by call content, so a repeated identical call
        # replays one fate forever; distinct queries sample the fate space.
        seen = []
        flaky = FlakySearchEngine(
            make_engine(), FaultProfile(fault_rate=1.0),
            on_fault=seen.append)
        for i in range(60):
            try:
                flaky.num_hits(f"boston {i}")
            except WebAccessError:
                pass
        assert set(seen) == set(FaultKind)

    def test_fate_is_pure_function_of_call_content(self):
        # The same query drawn twice — even with other traffic interleaved —
        # meets the same fate; this is what makes caching sound under faults.
        def fates(queries):
            flaky = FlakySearchEngine(
                make_engine(), FaultProfile(fault_rate=0.5, seed=7))
            out = {}
            for q in queries:
                try:
                    flaky.num_hits(q)
                    out[q] = "ok"
                except WebAccessError as exc:
                    out[q] = type(exc).__name__
            return out

        first = fates(["boston", "chicago", "dallas"])
        shuffled = fates(["dallas", "extra query", "boston", "chicago"])
        for query, fate in first.items():
            assert shuffled[query] == fate

    def test_retry_attempt_rerolls_fate(self):
        attempt = {"n": 0}
        flaky = FlakySearchEngine(
            make_engine(), FaultProfile(fault_rate=0.5, seed=3),
            attempt_provider=lambda: attempt["n"])

        def fate(query):
            try:
                flaky.num_hits(query)
                return "ok"
            except WebAccessError as exc:
                return type(exc).__name__

        per_attempt = []
        for n in range(40):
            attempt["n"] = n
            per_attempt.append(fate("boston"))
        # Re-rolling across attempts explores different fates...
        assert len(set(per_attempt)) > 1
        # ...while the same (query, attempt) pair always replays its own.
        attempt["n"] = 0
        assert fate("boston") == per_attempt[0]


class TestFlakyDeepWebSource:
    def test_raising_faults_charge_the_probe(self):
        flaky = FlakyDeepWebSource(
            make_source(), FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        with pytest.raises(WebTimeoutError):
            flaky.submit({"from": "Boston"})
        assert flaky.probe_count == 1

    def test_garbled_page_is_a_truncated_real_page(self):
        flaky = FlakyDeepWebSource(
            make_source(), FaultProfile(fault_rate=1.0, **GARBLED_ONLY))
        clean = make_source().submit({"from": "Boston"})
        page = flaky.submit({"from": "Boston"})
        assert clean.text.startswith(page.text)
        assert len(page.text) < len(clean.text)

    def test_sources_have_independent_fault_streams(self):
        profile = FaultProfile(fault_rate=0.5, seed=3, **TIMEOUTS_ONLY)
        outcomes = {}
        for make_noise in (0, 5):
            flaky_a = FlakyDeepWebSource(make_source(), profile)
            # interleave traffic to a second source; A's fate must not move
            other = make_source()
            other.interface.interface_id = "air-2"
            flaky_b = FlakyDeepWebSource(other, profile)
            for _ in range(make_noise):
                try:
                    flaky_b.submit({"from": "Boston"})
                except WebAccessError:
                    pass
            fates = []
            for _ in range(20):
                try:
                    flaky_a.submit({"from": "Boston"})
                    fates.append("ok")
                except WebAccessError:
                    fates.append("fault")
            outcomes[make_noise] = fates
        assert outcomes[0] == outcomes[5]


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


def fates_in_unit(flaky, unit, n=20):
    fates = []
    with unit_scope(unit):
        for _ in range(n):
            try:
                flaky.submit({"from": "Boston"})
                fates.append("ok")
            except WebAccessError as exc:
                fates.append(type(exc).__name__)
    return fates


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
        alone = fates_in_unit(FlakyDeepWebSource(make_source(), profile),
                              UNIT)
        assert "ok" in alone and len(set(alone)) > 1
        for order in (OTHER_UNITS, OTHER_UNITS[::-1]):
            flaky = FlakyDeepWebSource(make_source(), profile)
            for other in order:
                fates_in_unit(flaky, other, n=7)
            for _ in range(3):  # legacy stream, outside any unit
                try:
                    flaky.submit({"from": "Boston"})
                except WebAccessError:
                    pass
            assert fates_in_unit(flaky, UNIT) == alone
        assert fates_in_unit(FlakyDeepWebSource(make_source(), profile),
                             OTHER_UNITS[0]) != alone


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

    def test_current_attempt_is_per_thread(self):
        """A concurrent call must not clobber another thread's attempt.

        Regression test for an order-dependence bug: ``current_attempt``
        was a plain instance attribute, so another thread's fresh
        ``call`` (attempt 0) reset the attempt index this thread's retry
        loop was mid-way through — re-keying its fault fates from
        re-roll back to replay. Thread A retries into attempt 1, then
        parks while thread B completes a call on the *same* client; A
        must still see its own attempt index afterwards.
        """
        client = ResilientClient(
            ResilienceConfig(retry=RetryPolicy(max_attempts=3)))
        a_retrying = threading.Event()
        b_done = threading.Event()
        seen = {}

        def fn_a():
            if client.current_attempt == 0:
                raise TransientWebError("first attempt fails")
            a_retrying.set()
            assert b_done.wait(5.0), "thread B never completed"
            seen["a"] = client.current_attempt
            return "a"

        def thread_b():
            assert a_retrying.wait(5.0), "thread A never reached attempt 1"
            client.call(lambda: "b")
            b_done.set()

        helper = threading.Thread(target=thread_b)
        helper.start()
        try:
            assert client.call(fn_a) == "a"
        finally:
            b_done.set()  # never leave fn_a parked if B died
            helper.join(5.0)
        assert seen["a"] == 1


class TestResilientProxies:
    def dead_engine(self, **retry_kwargs):
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, **retry_kwargs)))
        flaky = FlakySearchEngine(
            make_engine(), FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        return ResilientSearchEngine(flaky, client), client

    def test_engine_degrades_to_neutral_values(self):
        engine, client = self.dead_engine()
        assert engine.search("boston") == []
        assert engine.num_hits("boston") == 0
        assert engine.num_hits_proximity("cities", "boston") == 0
        assert client.report.giveups_by_component["web"] == 3

    def test_engine_pass_through_when_healthy(self):
        client = ResilientClient(ResilienceConfig())
        flaky = FlakySearchEngine(make_engine(), FaultProfile(fault_rate=0.0))
        engine = ResilientSearchEngine(flaky, client)
        assert engine.search('"such as"') == make_engine().search('"such as"')
        assert client.report.empty

    def test_dead_source_degrades_to_failure_page(self):
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=2)))
        flaky = FlakyDeepWebSource(
            make_source(), FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        source = ResilientDeepWebSource(flaky, client)
        page = source.submit({"from": "Boston"})
        assert not analyze_response(page.text).success
        assert "unavailable" in page.url

    def test_breaker_stops_probe_consumption(self):
        # A dead source must stop burning real probes once its breaker is
        # open: fast-fails never reach the inner source.
        client = ResilientClient(ResilienceConfig(
            retry=RetryPolicy(max_attempts=10),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_rejections=100),
        ))
        flaky = FlakyDeepWebSource(
            make_source(), FaultProfile(fault_rate=1.0, **TIMEOUTS_ONLY))
        source = ResilientDeepWebSource(flaky, client)
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


class TestPerTenantProxyIsolation:
    """``ResilientSearchEngine.last_degraded`` must be thread-local.

    The matching service shares one resilient proxy between concurrently
    submitting tenants with *different* budgets. ``last_degraded`` is the
    cache layer's cleanliness signal: if tenant B's budget-exhausted
    degradation can flip the flag between tenant A's fetch and A's
    cleanliness check, the cache above refuses to memoise A's perfectly
    clean answer — and A re-spends a real round trip on its next
    identical query. That is spend cross-contamination, and this test
    failed before the flag became thread-local (mirroring the PR-7
    ``current_attempt`` fix).

    The interleaving is event-orchestrated, not a real race: tenant A's
    call deterministically parks inside the inner engine until tenant B's
    degraded call has come and gone.
    """

    class _BlockingEngine:
        """Inner engine that parks A's search until B has degraded."""

        def __init__(self, inner, a_inside, b_done):
            self.inner = inner
            self.a_inside = a_inside
            self.b_done = b_done

        def search(self, query, max_results=10):
            self.a_inside.set()
            assert self.b_done.wait(5.0), "tenant B never ran"
            return self.inner.search(query, max_results)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    def _interleaved_engine(self):
        from repro.resilience import Budget

        a_inside = threading.Event()
        b_done = threading.Event()
        client = ResilientClient(ResilienceConfig())
        # Per-tenant budgets, injected under the tenants' component names:
        # B's pool is already empty, so B's very first call degrades.
        client._budgets["tenant_b"] = Budget(limit=0)
        engine = ResilientSearchEngine(
            self._BlockingEngine(make_engine(), a_inside, b_done), client)
        return engine, client, a_inside, b_done

    def test_other_tenants_degradation_does_not_contaminate(self):
        engine, client, a_inside, b_done = self._interleaved_engine()
        outcome = {}

        def tenant_a():
            with client.component("tenant_a"):
                results = engine.search('"such as"')
                # The cleanliness check the cache layer performs,
                # immediately after the fetch, on A's own thread:
                outcome["degraded"] = engine.last_degraded
                outcome["results"] = results

        thread = threading.Thread(target=tenant_a)
        thread.start()
        try:
            assert a_inside.wait(5.0), "tenant A never reached the engine"
            with client.component("tenant_b"):
                assert engine.num_hits("boston") == 0  # budget-degraded
                assert engine.last_degraded is True
        finally:
            b_done.set()
            thread.join(5.0)

        assert outcome["results"] == make_engine().search('"such as"')
        # Pre-fix this read True: B's degradation, observed from A's
        # thread, poisoned A's clean fetch.
        assert outcome["degraded"] is False
        assert client.report.budgets_exhausted == ["tenant_b"]

    def test_clean_answer_is_cached_despite_interleaved_degradation(self):
        from repro.perf import CachingSearchEngine

        engine, client, a_inside, b_done = self._interleaved_engine()
        caching = CachingSearchEngine(engine)
        spent = {}

        def tenant_a():
            with client.component("tenant_a"):
                caching.search('"such as"')
                # Identical repeat: a stored answer costs zero round trips.
                before = caching.query_count
                caching.search('"such as"')
                spent["extra_round_trips"] = caching.query_count - before

        thread = threading.Thread(target=tenant_a)
        thread.start()
        try:
            assert a_inside.wait(5.0), "tenant A never reached the engine"
            with client.component("tenant_b"):
                caching.num_hits("boston")
        finally:
            b_done.set()
            thread.join(5.0)

        # Pre-fix: B's flag flip made the cache refuse A's clean answer,
        # so the repeat query re-spent a real round trip (1, not 0).
        assert spent["extra_round_trips"] == 0
        assert caching.stats.hits >= 1
