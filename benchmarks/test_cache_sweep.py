"""Cache sweep: what the run's memo saves, and that it costs nothing.

One domain's pipeline runs cold, then once more warmed with the cold
run's memo. Every run asks each Surface question once through its own
memo (extraction searches and hit counts alike), so the cold run sends
each question once; its ``cache_hits`` counts the repeats its memo
answered. The warm start is where the memo pays across runs: a rerun
sends no round trip at all (paper §5 charges each one 0.1–0.5 s, so
saved queries are saved Figure 8 minutes), and it must be
*bit-identical* in every payload — acquired instances, clusters,
metrics. Process wall-clock is measured and printed for reference only.

The measured numbers are exported as ``BENCH_cache.json`` (path override:
``BENCH_CACHE_JSON``) as a versioned bench envelope (:mod:`repro.bench`)
so CI gates query-reduction trends with ``repro bench diff``.
"""

import time
from collections import Counter

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import (
    NO_PROVENANCE_DIVERGENCE,
    ObsConfig,
    build_profile,
    diff_runs,
)
from repro.perf.cache import normalize_query

from .conftest import (
    BENCH_SEED,
    TOL_COUNT,
    TOL_INFO,
    TOL_SCORE,
    TOL_TIGHT,
    emit_bench,
    print_table,
)

#: the full 20-interface evaluation set of the domain with the paper's
#: most label-redundant interfaces — repeated labels re-ask the same
#: extraction and validation queries, which is the redundancy the memo
#: exists to absorb
DOMAIN = "job"
N_INTERFACES = 20


def record_round_trips(engine, asked):
    """Append each real round trip's key, ``(kind, normalised query,
    ...)``, to ``asked``."""
    search, num_hits = engine.search, engine.num_hits
    proximity = engine.num_hits_proximity

    def recorded_search(query, max_results=10):
        asked.append(("search", normalize_query(query), max_results))
        return search(query, max_results)

    def recorded_num_hits(query):
        asked.append(("num_hits", normalize_query(query)))
        return num_hits(query)

    def recorded_proximity(phrase_a, phrase_b, window):
        asked.append(("proximity", normalize_query(phrase_a),
                      normalize_query(phrase_b), window))
        return proximity(phrase_a, phrase_b, window)

    engine.search = recorded_search
    engine.num_hits = recorded_num_hits
    engine.num_hits_proximity = recorded_proximity


def run_once(asked=None, warm=None):
    dataset = build_domain_dataset(DOMAIN, N_INTERFACES, BENCH_SEED)
    if asked is not None:
        record_round_trips(dataset.engine, asked)
    started = time.perf_counter()
    result = WebIQMatcher(WebIQConfig(obs=ObsConfig())).run(
        dataset, warm=warm)
    elapsed = time.perf_counter() - started
    payload = {
        "instances": {
            f"{interface.interface_id}/{attribute.name}":
                list(attribute.acquired)
            for interface in dataset.interfaces
            for attribute in interface.attributes
        },
        "clusters": sorted(
            sorted([list(m.key) for m in cluster.members])
            for cluster in result.match_result.clusters
        ),
        "metrics": [
            result.metrics.precision,
            result.metrics.recall,
            result.metrics.f1,
        ],
    }
    return payload, result, dataset.engine.query_count, elapsed


@pytest.mark.benchmark(group="cache-sweep")
def test_cache_sweep(benchmark):
    asked = []
    cached_payload, cached_result, cached_queries, cached_secs = \
        run_once(asked=asked)

    benchmark.pedantic(run_once, rounds=1, iterations=1)

    warm_payload, warm_result, warm_queries, warm_secs = run_once(
        warm=cached_result.cache_content)

    stats = cached_result.cache
    rows = [
        ("cold", cached_queries, stats.hits,
         f"{cached_result.stopwatch.total_minutes:.3f}",
         f"{cached_secs:.2f}", f"{cached_result.metrics.f1:.3f}"),
        ("warm", warm_queries, warm_result.cache.hits,
         f"{warm_result.stopwatch.total_minutes:.3f}",
         f"{warm_secs:.2f}", f"{warm_result.metrics.f1:.3f}"),
    ]
    print_table(
        f"Cache sweep — {DOMAIN}, {N_INTERFACES} interfaces",
        ("run", "real queries", "cache hits", "sim minutes", "seconds",
         "F1"),
        rows,
    )

    # The memo may never change an answer, only avoid re-asking.
    assert warm_payload == cached_payload

    # Stronger than answer equality: the warm run must have made every
    # decision for the same recorded reason — the run diff may find no
    # provenance divergence between the cold and warm runs.
    diff = diff_runs(
        run_result_to_dict(cached_result), run_result_to_dict(warm_result)
    )
    assert not diff.provenance_diverged, diff.summary()
    assert NO_PROVENANCE_DIVERGENCE in diff.summary()

    # The cold run's real round trips, recorded below the memo, ask each
    # question once: every memo miss is one round trip.
    assert len(asked) == cached_queries == stats.misses
    repeated = sorted(key for key, n in Counter(asked).items() if n > 1)
    assert not repeated, repeated[:5]

    # The warm start: a rerun warmed with the cold run's memo sends no
    # round trip, so its simulated overhead (Figure 8's currency) can
    # only shrink.
    assert warm_queries == 0
    assert warm_result.stopwatch.total_seconds <= \
        cached_result.stopwatch.total_seconds

    emit_bench(
        "BENCH_CACHE_JSON",
        "cache-sweep",
        workload={
            "domain": DOMAIN,
            "n_interfaces": N_INTERFACES,
            "seed": BENCH_SEED,
        },
        metrics={
            "cached_queries": cached_queries,
            "warm_queries": warm_queries,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "cached_overhead_minutes": cached_result.stopwatch.total_minutes,
            "f1": cached_result.metrics.f1,
            "cached_wall_seconds": cached_secs,
        },
        tolerances={
            "cached_queries": TOL_COUNT,
            "warm_queries": TOL_COUNT,
            "cache_hits": TOL_TIGHT,
            "cache_misses": TOL_COUNT,
            "cached_overhead_minutes": TOL_COUNT,
            "f1": TOL_SCORE,
            "cached_wall_seconds": TOL_INFO,
        },
        # the deterministic run fingerprint: a digest drift between two
        # artifacts with equal metrics means the workload itself changed
        profile_digest=build_profile(cached_result)["digest"],
        default="BENCH_cache.json",
    )
