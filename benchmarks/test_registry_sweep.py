"""Registry sweep: blocking's candidate-pair reduction, equivalence held.

Every domain's 20-interface set is matched twice: batch IceQ (full O(n²)
pair evaluation) and incremental registry assimilation (blocking index +
sparse cache). The ISSUE's floor: **≥ 60% candidate-pair reduction** per
domain, with the induced matching byte-identical to batch on every one —
the reduction must never buy a different answer.

Also measured: the marginal cost of assimilating interface #20 into a
19-interface registry, the operation the batch matcher cannot do without
re-evaluating everything.

The measured numbers are exported as ``BENCH_registry.json`` (path
override: ``BENCH_REGISTRY_JSON``) as a versioned bench envelope
(:mod:`repro.bench`) so CI gates reduction trends with ``repro bench
diff``.
"""

import statistics
import time

import pytest

from repro.datasets import DOMAINS, build_domain_dataset
from repro.io import induced_matching_to_dict
from repro.matching.clustering import IceQMatcher
from repro.registry import RegistryAssimilator, build_registry
from repro.registry.assimilate import batch_induced_clusters, induced_clusters

from .conftest import (
    BENCH_SEED,
    TOL_COUNT,
    TOL_EXACT,
    TOL_INFO,
    TOL_SCORE,
    emit_bench,
    print_table,
)

N_INTERFACES = 20
#: the ISSUE's floor: fraction of cross pairs blocking must skip
MIN_REDUCTION = 0.60


def batch_once(interfaces):
    ordered = sorted(interfaces, key=lambda i: i.interface_id)
    started = time.perf_counter()
    result = IceQMatcher().match(ordered, threshold=0.0)
    elapsed = time.perf_counter() - started
    clusters = tuple(tuple(sorted(c.keys)) for c in result.clusters)
    return clusters, result.similarity_evaluations, elapsed


def incremental_once(domain, interfaces):
    started = time.perf_counter()
    store, report = build_registry(domain, interfaces)
    elapsed = time.perf_counter() - started
    return store, report, elapsed


def marginal_add(domain, interfaces):
    """Time to assimilate interface #20 into a 19-interface registry."""
    store, _ = build_registry(domain, interfaces[:-1])
    assimilator = RegistryAssimilator(store)
    started = time.perf_counter()
    assimilator.assimilate(interfaces[-1])
    return time.perf_counter() - started


@pytest.mark.benchmark(group="registry-sweep")
def test_registry_sweep(benchmark):
    per_domain = {}
    rows = []
    for domain in DOMAINS:
        dataset = build_domain_dataset(domain, N_INTERFACES, BENCH_SEED)
        interfaces = list(dataset.interfaces)

        batch_clusters, batch_evals, batch_seconds = batch_once(interfaces)
        store, report, incremental_seconds = incremental_once(
            domain, interfaces)
        add_seconds = marginal_add(domain, interfaces)

        # equivalence first: the reduction is worthless if it changes
        # one byte of the answer
        assert report.induced == batch_clusters, (
            f"{domain}: incremental diverged from batch IceQ")
        assert batch_induced_clusters(store) == induced_clusters(store)[0]

        reduction = store.stats.reduction
        assert reduction >= MIN_REDUCTION, (
            f"{domain}: blocking skipped only {reduction:.1%} of cross "
            f"pairs (floor {MIN_REDUCTION:.0%})")

        per_domain[domain] = {
            "n_views": store.n_views,
            "n_entries": len(store.entries),
            "batch_evaluations": batch_evals,
            "incremental_evaluations": store.stats.evaluated,
            "blocked": store.stats.blocked,
            "pairs_considered": store.stats.pairs_considered,
            "reduction": reduction,
            "batch_seconds": batch_seconds,
            "incremental_build_seconds": incremental_seconds,
            "marginal_add_seconds": add_seconds,
            "induced_clusters": len(
                induced_matching_to_dict(store)["clusters"]),
        }
        rows.append((
            domain, store.n_views, batch_evals, store.stats.evaluated,
            f"{reduction:.1%}", f"{batch_seconds:.2f}",
            f"{incremental_seconds:.2f}", f"{add_seconds * 1000:.1f}",
        ))

    benchmark.pedantic(
        lambda: incremental_once(
            DOMAINS[0],
            list(build_domain_dataset(
                DOMAINS[0], N_INTERFACES, BENCH_SEED).interfaces)),
        rounds=1, iterations=1)

    mean_reduction = statistics.mean(
        d["reduction"] for d in per_domain.values())
    print_table(
        f"Registry sweep — {N_INTERFACES} interfaces/domain (mean "
        f"candidate-pair reduction {mean_reduction:.1%}, floor "
        f"{MIN_REDUCTION:.0%}; incremental == batch on every domain)",
        ("domain", "views", "batch evals", "incr evals", "reduction",
         "batch s", "build s", "add #20 ms"),
        rows,
    )

    emit_bench(
        "BENCH_REGISTRY_JSON",
        "registry-sweep",
        workload={
            "domains": list(DOMAINS),
            "n_interfaces": N_INTERFACES,
            "seed": BENCH_SEED,
            "min_reduction": MIN_REDUCTION,
        },
        metrics={
            "mean_reduction": mean_reduction,
            "total_batch_evaluations": sum(
                d["batch_evaluations"] for d in per_domain.values()),
            "total_incremental_evaluations": sum(
                d["incremental_evaluations"] for d in per_domain.values()),
            "total_blocked": sum(d["blocked"] for d in per_domain.values()),
            "equivalent_to_batch": True,
            "total_batch_seconds": sum(
                d["batch_seconds"] for d in per_domain.values()),
            "total_incremental_seconds": sum(
                d["incremental_build_seconds"] for d in per_domain.values()),
        },
        tolerances={
            "mean_reduction": TOL_SCORE,
            "total_batch_evaluations": TOL_COUNT,
            "total_incremental_evaluations": TOL_COUNT,
            "total_blocked": TOL_SCORE,
            "equivalent_to_batch": TOL_EXACT,
            "total_batch_seconds": TOL_INFO,
            "total_incremental_seconds": TOL_INFO,
        },
        detail={"domains": per_domain},
        default="BENCH_registry.json",
    )
