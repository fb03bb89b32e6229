"""Metamorphic invariant sweep: the conservation laws hold everywhere.

Rather than asserting hand-computed numbers, these tests run the full
pipeline across a grid of configurations — two domains, several dataset
seeds, faults off/on — and require the
:class:`~repro.obs.InvariantChecker` to find zero violations in every
cell. Any missed or double-counted call anywhere in the engine stack
breaks a conservation law, so the sweep is a whole-stack correctness
test, not a unit test of the checker.

The companion class asserts observation is read-only: attaching ``obs``
must leave every payload and account of a run bit-identical.
"""

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.obs import InvariantChecker, ObsConfig, check_run
from repro.resilience import BreakerPolicy, FaultProfile, ResilienceConfig

N_INTERFACES = 4

DOMAINS = ("book", "auto")
SEEDS = (1, 2, 3)


def resilience_on():
    # Breaker parked out of reach so fault fates stay in the retry loop's
    # books; rate high enough that every component sees faults.
    return ResilienceConfig(
        profile=FaultProfile(fault_rate=0.15, seed=5),
        breaker=BreakerPolicy(failure_threshold=10_000),
    )


def run_cell(domain: str, seed: int, faults: bool):
    config = WebIQConfig(
        resilience=resilience_on() if faults else None,
        obs=ObsConfig(),
    )
    dataset = build_domain_dataset(domain, N_INTERFACES, seed)
    return WebIQMatcher(config).run(dataset)


#: Every run reports its memo, so every cell is a cached one; the ids
#: keep the ``cached-`` prefix of the grid's former cache axis.
FAULTS_IDS = ("cached-clean", "cached-faulty")


class TestInvariantSweep:
    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("faults", (False, True), ids=FAULTS_IDS)
    def test_zero_violations(self, domain, seed, faults):
        result = run_cell(domain, seed, faults=faults)
        report = check_run(result)
        assert report.ok, report.summary()
        # the cell exercised the laws it was meant to
        assert "trace-well-formed" in report.checked
        assert "round-trip-conservation" in report.checked
        assert "cache-entry-conservation" in report.checked
        if faults:
            assert "fault-fate-conservation" in report.checked
            assert "retry-conservation" in report.checked

    def test_default_observed_run_checks_cache_entry_conservation(self):
        # No knob but obs: the default run's memo misses are the observed
        # engine calls, one each.
        result = WebIQMatcher(WebIQConfig(obs=ObsConfig())).run(
            build_domain_dataset("book", N_INTERFACES, 1))
        report = check_run(result)
        assert report.ok, report.summary()
        assert "cache-entry-conservation" in report.checked
        assert result.obs.tracer.count_events(
            "web_call", substrate="engine") == result.cache.misses > 0

    def test_faulty_cells_saw_real_faults(self):
        # Guard against the sweep silently testing a fault-free Web.
        result = run_cell("book", 2, faults=True)
        assert result.degradation.total_faults > 0
        assert result.degradation.total_retries > 0


class TestCheckerDetectsCorruption:
    """The oracle itself must be falsifiable: cook the books, get caught."""

    def make_result(self):
        return run_cell("book", 1, faults=True)

    def test_missing_round_trip_is_caught(self):
        result = self.make_result()
        event = next(result.obs.tracer.iter_events(
            "web_call", substrate="engine", component="surface"))
        event.attrs["round_trips"] -= 1
        report = check_run(result)
        assert report.violations_for("round-trip-conservation")

    def test_phantom_cache_hit_is_caught(self):
        result = self.make_result()
        result.cache.hits += 1
        report = check_run(result)
        assert not report.ok

    def test_phantom_memo_miss_is_caught(self):
        # Consistent per-kind books, but one more miss than the memo
        # sent to the engine: only the entry law can see it.
        result = self.make_result()
        result.cache.note_miss("marginal")
        report = check_run(result)
        assert report.violations_for("cache-entry-conservation")
        assert not report.violations_for("cache-kind-accounting")

    def test_unclosed_span_is_caught(self):
        result = self.make_result()
        result.obs.tracer.roots[0].seq_end = None
        report = check_run(result)
        assert report.violations_for("trace-well-formed")

    def test_untraced_retry_is_caught(self):
        result = self.make_result()
        tracer = result.obs.tracer
        retry = next(tracer.iter_events("retry"))
        next(span for span in tracer.iter_spans()
             if retry in span.events).events.remove(retry)
        report = check_run(result)
        assert report.violations_for("retry-conservation")

    def test_lost_retry_is_caught(self):
        result = self.make_result()
        component = next(iter(result.degradation.retries_by_component))
        result.degradation.retries_by_component[component] += 1
        report = check_run(result)
        assert report.violations_for("retry-conservation")

    def test_checker_instance_reusable(self):
        checker = InvariantChecker()
        first = checker.check(self.make_result())
        second = checker.check(self.make_result())
        assert first.ok and second.ok
        assert first.checked == second.checked


class TestObservationIsReadOnly:
    """obs attached vs. absent: everything but the artifacts is identical."""

    def run_pair(self, faults: bool):
        def one(obs: bool):
            config = WebIQConfig(
                resilience=resilience_on() if faults else None,
                obs=ObsConfig() if obs else None,
            )
            dataset = build_domain_dataset("book", N_INTERFACES, 2)
            result = WebIQMatcher(config).run(dataset)
            payload = {
                "instances": {
                    (interface.interface_id, attribute.name):
                        tuple(attribute.acquired)
                    for interface in dataset.interfaces
                    for attribute in interface.attributes
                },
                "metrics": result.metrics,
                "stopwatch": result.stopwatch.seconds_by_account,
                "queries": result.stopwatch.queries_by_account,
            }
            return payload, result
        return one(obs=False), one(obs=True)

    @pytest.mark.parametrize("faults", (False, True), ids=FAULTS_IDS)
    def test_run_bit_identical_with_and_without_obs(self, faults):
        (plain_payload, plain), (observed_payload, observed) = \
            self.run_pair(faults=faults)
        assert plain.obs is None
        assert observed.obs is not None
        assert observed_payload == plain_payload
        assert observed.cache.hits == plain.cache.hits
        assert observed.cache.misses == plain.cache.misses
        if faults:
            assert (observed.degradation.faults_by_kind
                    == plain.degradation.faults_by_kind)
            assert (observed.degradation.retries_by_component
                    == plain.degradation.retries_by_component)
