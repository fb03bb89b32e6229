"""Cache sweep: what the shared query cache saves, and that it costs nothing.

One domain's pipeline runs with the query cache off and on. The cached run
must be *bit-identical* in every payload — acquired instances, clusters,
metrics — while its real search-engine round trips ask no question twice
(paper §5 charges each one 0.1–0.5 s, so saved queries are saved Figure 8
minutes). Every run already shares one validation memo between Surface and
Attr-Surface, so what the cache adds within a run is the rest: repeated
extraction searches, and any text two validation keys share. Process
wall-clock is measured and printed for reference only.

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
from repro.perf import CacheConfig
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
#: extraction and validation queries, which is the redundancy the cache
#: exists to absorb
DOMAIN = "job"
N_INTERFACES = 20


def record_round_trips(engine, asked):
    """Append each real round trip's cache key, ``(kind, normalised
    query, ...)`` as :class:`~repro.perf.CachingSearchEngine` forms it,
    to ``asked``."""
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


def run_once(cache, asked=None):
    dataset = build_domain_dataset(DOMAIN, N_INTERFACES, BENCH_SEED)
    if asked is not None:
        record_round_trips(dataset.engine, asked)
    started = time.perf_counter()
    result = WebIQMatcher(WebIQConfig(cache=cache, obs=ObsConfig())).run(
        dataset)
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
    uncached_payload, uncached_result, uncached_queries, uncached_secs = \
        run_once(cache=None)
    asked = []
    cached_payload, cached_result, cached_queries, cached_secs = \
        run_once(cache=CacheConfig(), asked=asked)

    benchmark.pedantic(lambda: run_once(cache=CacheConfig()),
                       rounds=1, iterations=1)

    stats = cached_result.cache
    reduction = 1.0 - cached_queries / uncached_queries
    speedup = uncached_secs / cached_secs if cached_secs else float("inf")
    rows = [
        ("uncached", uncached_queries, "-", "-",
         f"{uncached_secs:.2f}", f"{uncached_result.metrics.f1:.3f}"),
        ("cached", cached_queries, stats.hits,
         f"{stats.hit_rate:.1%}", f"{cached_secs:.2f}",
         f"{cached_result.metrics.f1:.3f}"),
    ]
    print_table(
        f"Cache sweep — {DOMAIN}, {N_INTERFACES} interfaces "
        f"({reduction:.1%} fewer real queries, {speedup:.2f}x wall-clock)",
        ("run", "real queries", "hits", "hit rate", "seconds", "F1"),
        rows,
    )

    # The cache may never change an answer, only avoid re-asking.
    assert cached_payload == uncached_payload

    # Stronger than answer equality: the cached run must have made every
    # decision for the same recorded reason — the run diff may find no
    # provenance divergence between the cached and uncached runs.
    diff = diff_runs(
        run_result_to_dict(uncached_result), run_result_to_dict(cached_result)
    )
    assert not diff.provenance_diverged, diff.summary()
    assert NO_PROVENANCE_DIVERGENCE in diff.summary()

    # The cache's own property: its real round trips ask no question
    # twice, and they are fewer than the uncached run's.
    assert len(asked) == cached_queries
    repeated = sorted(key for key, n in Counter(asked).items() if n > 1)
    assert not repeated, repeated[:5]
    assert cached_queries < uncached_queries

    # Simulated overhead (Figure 8's currency) can only shrink.
    assert cached_result.stopwatch.total_seconds <= \
        uncached_result.stopwatch.total_seconds

    emit_bench(
        "BENCH_CACHE_JSON",
        "cache-sweep",
        workload={
            "domain": DOMAIN,
            "n_interfaces": N_INTERFACES,
            "seed": BENCH_SEED,
        },
        metrics={
            "uncached_queries": uncached_queries,
            "cached_queries": cached_queries,
            "query_reduction": reduction,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "hit_rate": stats.hit_rate,
            "uncached_overhead_minutes":
                uncached_result.stopwatch.total_minutes,
            "cached_overhead_minutes": cached_result.stopwatch.total_minutes,
            "f1": cached_result.metrics.f1,
            "uncached_wall_seconds": uncached_secs,
            "cached_wall_seconds": cached_secs,
        },
        tolerances={
            "uncached_queries": TOL_COUNT,
            "cached_queries": TOL_COUNT,
            "query_reduction": TOL_SCORE,
            "cache_hits": TOL_TIGHT,
            "cache_misses": TOL_COUNT,
            "hit_rate": TOL_SCORE,
            "uncached_overhead_minutes": TOL_COUNT,
            "cached_overhead_minutes": TOL_COUNT,
            "f1": TOL_SCORE,
            "uncached_wall_seconds": TOL_INFO,
            "cached_wall_seconds": TOL_INFO,
        },
        # the deterministic run fingerprint: a digest drift between two
        # artifacts with equal metrics means the workload itself changed
        profile_digest=build_profile(cached_result)["digest"],
        default="BENCH_cache.json",
    )
