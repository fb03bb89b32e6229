"""Service sweep: sustained request throughput and the warm/cold split.

One :class:`~repro.service.MatchingService` drives a seeded two-tenant
workload of identical book runs. The first dispatch is cold (empty boot
epoch); every later one starts from the previous request's published
cache epoch, so the sweep measures exactly what the service exists to
provide: the simulated-seconds gap between a cold run and a warm one,
and the sustained requests/second of the serve loop itself.

Simulated-seconds metrics are deterministic (the stats ledger is
wall-clock-free by design) and gate tightly; process wall-clock and
requests/second gate loosely, like every other sweep. The artifact is
exported as ``BENCH_service.json`` (path override:
``BENCH_SERVICE_JSON``) and diffed in CI with ``repro bench diff``.
"""

import time

import pytest

from repro.service import (
    MatchingService,
    ServiceConfig,
    build_workload,
    check_service,
)

from .conftest import (
    BENCH_SEED,
    TOL_EXACT,
    TOL_INFO,
    TOL_TIGHT,
    emit_bench,
    print_table,
)

DOMAIN = "book"
N_REQUESTS = 8
N_INTERFACES = 4
#: a warm run must need at most this share of a cold run's simulated time
MAX_WARM_COLD_RATIO = 0.25


def run_workload():
    service = MatchingService(ServiceConfig(max_queue_depth=N_REQUESTS))
    requests = build_workload(
        seed=BENCH_SEED, tenants=("acme", "globex"),
        n_requests=N_REQUESTS, domains=(DOMAIN,),
        n_interfaces=N_INTERFACES)
    started = time.perf_counter()
    responses = service.drive(requests)
    elapsed = time.perf_counter() - started
    return service, responses, elapsed


@pytest.mark.benchmark(group="service-sweep")
def test_service_sweep(benchmark):
    service, responses, elapsed = run_workload()
    benchmark.pedantic(run_workload, rounds=1, iterations=1)

    stats = service.stats
    assert stats.completed == N_REQUESTS
    assert stats.cold_runs == 1 and stats.warm_runs == N_REQUESTS - 1
    report = check_service(service)
    assert report.ok, report.summary()

    warm_mean = stats.warm_mean_seconds
    cold_mean = stats.cold_mean_seconds
    rps = N_REQUESTS / elapsed if elapsed else float("inf")
    rows = [
        ("cold", stats.cold_runs, f"{cold_mean:.2f}",
         sum(r.queries for r in responses if not r.warm)),
        ("warm", stats.warm_runs, f"{warm_mean:.2f}",
         sum(r.queries for r in responses if r.warm)),
    ]
    print_table(
        f"Service sweep — {DOMAIN}, {N_REQUESTS} requests, 2 tenants "
        f"({rps:.1f} req/s, warm/cold = {warm_mean / cold_mean:.1%})",
        ("epoch start", "runs", "mean sim-sec", "engine queries"),
        rows,
    )

    # The reason the service exists: published cache epochs make every
    # follow-up run drastically cheaper than the cold one.
    assert warm_mean <= cold_mean * MAX_WARM_COLD_RATIO, (
        f"warm runs cost {warm_mean:.2f} sim-sec vs cold "
        f"{cold_mean:.2f} — the warm epoch saved too little")
    # Warm runs re-ask no engine queries at all on this workload: every
    # request is the same dataset, fully absorbed by the preload.
    assert all(r.queries == 0 for r in responses if r.warm)

    emit_bench(
        "BENCH_SERVICE_JSON",
        "service-sweep",
        workload={
            "domain": DOMAIN,
            "n_requests": N_REQUESTS,
            "n_interfaces": N_INTERFACES,
            "seed": BENCH_SEED,
        },
        metrics={
            "completed": stats.completed,
            "cold_runs": stats.cold_runs,
            "warm_runs": stats.warm_runs,
            "cold_mean_sim_seconds": cold_mean,
            "warm_mean_sim_seconds": warm_mean,
            "warm_cold_ratio": warm_mean / cold_mean,
            "warm_engine_queries":
                sum(r.queries for r in responses if r.warm),
            "requests_per_second": rps,
            "wall_seconds": elapsed,
        },
        tolerances={
            "completed": TOL_EXACT,
            "cold_runs": TOL_EXACT,
            "warm_runs": TOL_EXACT,
            "cold_mean_sim_seconds": TOL_TIGHT,
            "warm_mean_sim_seconds": TOL_TIGHT,
            "warm_cold_ratio": TOL_TIGHT,
            "warm_engine_queries": TOL_EXACT,
            "requests_per_second": TOL_INFO,
            "wall_seconds": TOL_INFO,
        },
        default="BENCH_service.json",
    )
