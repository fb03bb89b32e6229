"""Memo-equivalence properties: warm starts change cost, never answers.

The central contract of :mod:`repro.perf`: every run asks each Surface
question once through its own memo, and a warm rerun seeded with a cold
run's memo asks nothing at all — yet every payload of the warm run
(acquired instances, clusters, accuracy metrics) must be bit-identical
to the cold run's, on a pristine Web and on a faulty one.

Under faults the comparisons park the load-dependent safety valves:
query budgets unbounded and the breaker threshold out of reach. Budgets
and breakers react to *traffic volume*, which is what a warm start
changes. See DESIGN.md.

Every run here executes instrumented and is audited by the
:class:`~repro.obs.InvariantChecker` before any equivalence assertion:
the cross-layer conservation laws must hold in the exact configurations
whose payload equality this module certifies.
"""

from collections import Counter
from dataclasses import replace

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import NO_PROVENANCE_DIVERGENCE, ObsConfig, check_run, diff_runs
from repro.perf.cache import normalize_query
from repro.resilience import (
    BreakerPolicy,
    FaultProfile,
    ResilienceConfig,
    RetryPolicy,
)

DOMAIN = "book"
N_INTERFACES = 6
SEED = 3


def record_round_trips(engine, asked):
    """Count each raw round trip of ``engine`` in ``asked`` by its
    ``(kind, normalised query, ...)`` key."""
    search, num_hits = engine.search, engine.num_hits
    proximity = engine.num_hits_proximity

    def recorded_search(query, max_results=10):
        asked["search", normalize_query(query), max_results] += 1
        return search(query, max_results)

    def recorded_num_hits(query):
        asked["num_hits", normalize_query(query)] += 1
        return num_hits(query)

    def recorded_proximity(phrase_a, phrase_b, window):
        asked["proximity", normalize_query(phrase_a),
              normalize_query(phrase_b), window] += 1
        return proximity(phrase_a, phrase_b, window)

    engine.search = recorded_search
    engine.num_hits = recorded_num_hits
    engine.num_hits_proximity = recorded_proximity


def run_once(resilience=None, asked=None, warm=None):
    """One full pipeline run; returns (payload, result, real_queries).

    ``asked``, when given, is a :class:`~collections.Counter` that counts
    the run's raw round trips by question."""
    dataset = build_domain_dataset(DOMAIN, N_INTERFACES, SEED)
    if asked is not None:
        record_round_trips(dataset.engine, asked)
    config = WebIQConfig(resilience=resilience, obs=ObsConfig())
    result = WebIQMatcher(config).run(dataset, warm=warm)
    invariants = check_run(result)
    assert invariants.ok, invariants.summary()
    payload = {
        "instances": {
            (interface.interface_id, attribute.name): tuple(attribute.acquired)
            for interface in dataset.interfaces
            for attribute in interface.attributes
        },
        "clusters": sorted(
            sorted([list(m.key) for m in cluster.members])
            for cluster in result.match_result.clusters
        ),
        "metrics": (
            result.metrics.precision,
            result.metrics.recall,
            result.metrics.f1,
            result.metrics.n_predicted,
            result.metrics.n_truth,
            result.metrics.n_correct,
        ),
    }
    return payload, result, dataset.engine.query_count


def faulty_resilience():
    # Unbounded budgets, breaker out of reach: the valves that react to
    # traffic volume are parked so payloads stay comparable (module docs).
    return ResilienceConfig(
        profile=FaultProfile(fault_rate=0.15, seed=5),
        breaker=BreakerPolicy(failure_threshold=10_000),
    )


def assert_each_question_once(asked, queries):
    """A cold run asks each question once."""
    repeated = [key for key, n in asked.items() if n > 1]
    assert not repeated, repeated[:5]
    assert queries == sum(asked.values()) > 0


def warm_rerun(cold_result, resilience=None):
    """A rerun warmed with the cold run's memo; it asks nothing."""
    warm, warm_result, warm_queries = run_once(
        resilience=resilience, warm=cold_result.cache_content)
    assert warm_queries == 0
    return warm, warm_result


class TestEquivalencePristine:
    def test_payload_identical_and_each_question_asked_once(self):
        asked = Counter()
        cold, cold_result, cold_queries = run_once(asked=asked)
        assert_each_question_once(asked, cold_queries)
        assert cold_result.cache.misses == cold_queries
        warm, warm_result = warm_rerun(cold_result)
        assert warm == cold
        assert warm_result.cache.misses == 0

    def test_cached_run_is_deterministic(self):
        first, first_result, first_queries = run_once()
        second, second_result, second_queries = run_once()
        assert first == second
        assert first_queries == second_queries
        assert first_result.cache.hits == second_result.cache.hits
        assert first_result.cache.misses == second_result.cache.misses

    def test_overhead_not_inflated(self):
        # A memo hit charges nothing: total simulated overhead of the
        # warm run can only stay or shrink.
        _, cold_result, _ = run_once()
        _, warm_result = warm_rerun(cold_result)
        assert warm_result.stopwatch.total_seconds <= \
            cold_result.stopwatch.total_seconds


class TestEquivalenceUnderFaults:
    def test_payload_identical_under_faults(self):
        asked = Counter()
        cold, cold_result, _ = run_once(
            resilience=faulty_resilience(), asked=asked)

        # The run saw real faults — this is not the pristine case again.
        assert cold_result.degradation.total_faults > 0
        # A faulted attempt is charged as a round trip without reaching
        # the raw engine, so ``asked`` counts only the attempts that got
        # through: at most one per question.
        assert max(asked.values()) == 1
        warm, _ = warm_rerun(cold_result, faulty_resilience())
        assert warm == cold

    def test_degraded_answers_outlive_the_run(self):
        # No retries: a raised fault is given up on at once, so the
        # donor's memo holds the resilient proxy's neutral answers.
        no_retry = replace(faulty_resilience(),
                           retry=RetryPolicy(max_attempts=1))
        _, donor, _ = run_once(resilience=no_retry)
        assert sum(donor.degradation.giveups_by_component.values()) > 0
        memo = donor.cache_content.validation
        # A cold run's every miss added one memo entry; nothing fell
        # through the accounting.
        assert donor.cache.misses == len(memo)
        assert donor.cache.misses_by_kind == {
            "search": len(memo.searches),
            "marginal": len(memo.marginal_hits),
            "joint": len(memo.joint_hits),
        }
        # The memo kept answers the faults spoiled (given up on, or
        # garbled), not only clean ones.
        pristine = build_domain_dataset(DOMAIN, N_INTERFACES, SEED).engine
        spoiled = {
            key: count for key, count in memo.marginal_hits.items()
            if count != pristine.num_hits(f'"{key}"')
        }
        assert spoiled

        # A warm run with the same profile answers those questions from
        # the preload: no round trip, the donor's answer kept.
        _, warm = warm_rerun(donor, no_retry)
        assert warm.cache.misses == 0
        assert warm.cache.hits_by_kind["marginal"] >= len(spoiled)
        warm_memo = warm.cache_content.validation
        for key, count in spoiled.items():
            assert warm_memo.marginal_hits[key] == count

    def test_faulty_runs_deterministic(self):
        first, _, first_queries = run_once(resilience=faulty_resilience())
        second, _, second_queries = run_once(resilience=faulty_resilience())
        assert first == second
        assert first_queries == second_queries


class TestProvenanceEquivalence:
    """Stronger than payload equality: the warm run must make every
    decision for the same recorded reason as the cold run."""

    def test_no_provenance_divergence_pristine(self):
        _, cold_result, _ = run_once()
        _, warm_result = warm_rerun(cold_result)
        diff = diff_runs(run_result_to_dict(cold_result),
                         run_result_to_dict(warm_result))
        assert not diff.provenance_diverged, diff.summary()
        assert NO_PROVENANCE_DIVERGENCE in diff.summary()

    def test_no_provenance_divergence_under_faults(self):
        _, cold_result, _ = run_once(resilience=faulty_resilience())
        _, warm_result = warm_rerun(cold_result, faulty_resilience())
        assert cold_result.degradation.total_faults > 0
        diff = diff_runs(run_result_to_dict(cold_result),
                         run_result_to_dict(warm_result))
        assert not diff.provenance_diverged, diff.summary()
