"""Supervisor benchmark: what self-healing recovery saves and costs.

One domain's pipeline runs under the :class:`RunSupervisor` against a
deterministic chaos schedule — killed twice at journal boundaries, with
the journal's tail record torn between the second death and its resume.
The supervisor must absorb every failure without intervention and finish
with an export byte-identical to the uninterrupted run; the measured
numbers quantify the recovery economics: per-attempt round trips restored
by resume (what a cold restart would have re-paid), round trips wasted in
crashes, and records salvaged from the torn journal.

The numbers are exported as ``BENCH_supervisor.json`` (path override:
``BENCH_SUPERVISOR_JSON``) as a versioned bench envelope
(:mod:`repro.bench`) so CI can gate self-healing trends with ``repro
bench diff``.
"""

import os
import tempfile
import time

import pytest

from repro.checkpoint import CheckpointConfig
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.supervisor import RunSupervisor

from .conftest import (
    BENCH_SEED,
    TOL_COUNT,
    TOL_EXACT,
    TOL_SCORE,
    TOL_WALL,
    emit_bench,
    print_table,
)

DOMAIN = "book"
N_INTERFACES = 8


def comparable(result):
    payload = run_result_to_dict(result)
    for key in ("checkpoint", "format", "supervisor"):
        payload.pop(key, None)
    return payload


def corrupt_tail_record(directory):
    """Tear the journal's newest record line (simulated torn write)."""
    with open(os.path.join(directory, "journal.log"), "r+b") as handle:
        data = handle.read()
        handle.seek(data.rstrip(b"\n").rfind(b"\n") + 1)
        handle.truncate()
        handle.write(b'{"format": 1, "crc": 0, "body"')


@pytest.mark.benchmark(group="supervisor-sweep")
def test_supervisor_sweep(benchmark):
    workdir = tempfile.mkdtemp(prefix="bench-supervisor-")

    dataset = build_domain_dataset(DOMAIN, N_INTERFACES, BENCH_SEED)
    started = time.perf_counter()
    full_result = WebIQMatcher(WebIQConfig(checkpoint=CheckpointConfig(
        directory=os.path.join(workdir, "uninterrupted")))).run(dataset)
    full_secs = time.perf_counter() - started
    boundaries = full_result.checkpoint.boundaries
    kill_schedule = (boundaries // 3, 2 * boundaries // 3, None)

    def chaos(attempt_index, directory):
        if attempt_index == 1:
            corrupt_tail_record(directory)

    def supervised_run():
        config = WebIQConfig(checkpoint=CheckpointConfig(
            directory=os.path.join(workdir, "journal")))
        chaos_dataset = build_domain_dataset(DOMAIN, N_INTERFACES,
                                             BENCH_SEED)
        started = time.perf_counter()
        result = RunSupervisor(
            config, kill_schedule=kill_schedule, chaos=chaos).run(
                chaos_dataset)
        return result, time.perf_counter() - started

    result, supervised_secs = benchmark.pedantic(
        supervised_run, rounds=1, iterations=1)
    report = result.supervisor

    # The contract the subsystem exists for: any kill/corruption schedule
    # heals to the uninterrupted run's bytes, with the books balanced.
    assert comparable(result) == comparable(full_result)
    # Two kills + one corruption discovered at the next open = 3 restarts.
    assert report.completed and report.restarts == 3
    assert [a.outcome for a in report.attempts] == [
        "preemption", "preemption", "corruption", "completed"]
    assert report.salvages == 1 and report.salvaged_records == 1
    assert report.total_round_trips == (
        result.checkpoint.replayed_round_trips
        + result.checkpoint.fresh_round_trips
        + report.wasted_round_trips
        + report.salvage_trimmed_round_trips)

    attempts = [
        {
            "index": a.index,
            "outcome": a.outcome,
            "round_trips": a.round_trips,
            "committed_round_trips": a.committed_round_trips,
            # what resume restored at attempt start = the round trips a
            # cold restart would have re-paid before reaching new work
            "round_trips_saved_vs_cold_restart": a.restored_round_trips,
            "salvaged_records": (
                a.salvage.quarantined_records if a.salvage else 0),
        }
        for a in report.attempts
    ]
    rows = [
        (a["index"], a["outcome"], a["round_trips"],
         a["round_trips_saved_vs_cold_restart"], a["salvaged_records"])
        for a in attempts
    ]
    print_table(
        f"Supervisor sweep — {DOMAIN}, {N_INTERFACES} interfaces "
        f"(kills at {kill_schedule[0]}/{kill_schedule[1]} of "
        f"{boundaries} boundaries + torn tail record: "
        f"{report.restarts} restarts, {report.salvaged_records} records "
        f"salvaged, {report.wasted_round_trips} round trips wasted)",
        ("attempt", "outcome", "round trips", "restored", "salvaged"),
        rows,
    )

    emit_bench(
        "BENCH_SUPERVISOR_JSON",
        "supervisor-sweep",
        workload={
            "domain": DOMAIN,
            "n_interfaces": N_INTERFACES,
            "seed": BENCH_SEED,
            "kill_schedule": [k for k in kill_schedule if k is not None],
        },
        metrics={
            "boundaries": boundaries,
            "restarts": report.restarts,
            "salvages": report.salvages,
            "salvaged_records": report.salvaged_records,
            "salvage_trimmed_round_trips":
                report.salvage_trimmed_round_trips,
            "wasted_round_trips": report.wasted_round_trips,
            "total_round_trips": report.total_round_trips,
            "uninterrupted_round_trips":
                full_result.checkpoint.fresh_round_trips,
            "backoff_seconds": report.backoff_seconds,
            "f1": result.metrics.f1,
            "uninterrupted_wall_seconds": full_secs,
            "supervised_wall_seconds": supervised_secs,
        },
        tolerances={
            "boundaries": TOL_EXACT,
            "restarts": TOL_EXACT,
            "salvages": TOL_EXACT,
            "salvaged_records": TOL_EXACT,
            "salvage_trimmed_round_trips": TOL_COUNT,
            "wasted_round_trips": TOL_COUNT,
            "total_round_trips": TOL_COUNT,
            "uninterrupted_round_trips": TOL_COUNT,
            "backoff_seconds": TOL_COUNT,
            "f1": TOL_SCORE,
            "uninterrupted_wall_seconds": TOL_WALL,
            "supervised_wall_seconds": TOL_WALL,
        },
        detail={"attempts": attempts},
        default="BENCH_supervisor.json",
    )
