"""Self-healing supervision: kills, torn journals and poisoned units.

Crash recovery (see ``examples/crash_recovery.py``) needs someone to
notice the death and restart the run. The :class:`RunSupervisor` is that
someone: it executes the pipeline in a supervised loop, classifies every
failure, and recovers without intervention. This walkthrough throws the
full arsenal at one run:

1. a deterministic kill schedule (two preemptions at journal boundaries);
2. a journal record torn during the downtime after the second death —
   salvaged back to the longest valid prefix, the damage quarantined to
   ``journal/quarantine/`` for inspection;
3. a poisoned unit that crashes the run on every attempt — quarantined
   after ``poison_threshold`` consecutive strikes so the run completes
   gracefully, reporting the unit with its full exception chain.

The run ends byte-identical to an uninterrupted one, minus only the
quarantined unit's instances.

Run:  python examples/self_healing.py
"""

import json
import os
import tempfile

from repro import (
    RestartPolicy,
    RunSupervisor,
    SupervisorConfig,
    UnitFaultInjector,
    WebIQConfig,
    WebIQMatcher,
    build_domain_dataset,
)
from repro.checkpoint import CheckpointConfig, RunJournal
from repro.io import run_result_to_dict

DOMAIN = "book"
N_INTERFACES = 6
SEED = 3


def comparable(result):
    """The export minus the (intentionally run-local) recovery sections."""
    payload = run_result_to_dict(result)
    for key in ("checkpoint", "format", "supervisor"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def tear_newest_record(directory):
    """Cut the journal log's last line short: a torn write, mid-envelope.
    Returns the torn record's index."""
    with open(os.path.join(directory, "journal.log"), "r+b") as handle:
        data = handle.read()
        handle.seek(data.rstrip(b"\n").rfind(b"\n") + 1)
        handle.truncate()
        handle.write(b'{"torn')
    return data.count(b"\n") - 1


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="webiq-self-healing-")
    journal = os.path.join(workdir, "journal")

    print(f"Reference run ({DOMAIN}, {N_INTERFACES} interfaces)...")
    dataset = build_domain_dataset(DOMAIN, N_INTERFACES, SEED)
    reference = WebIQMatcher(WebIQConfig()).run(dataset)
    print(f"  F-1={reference.metrics.f1:.3f}")

    # A throwaway journaled run tells us the unit keys and boundaries.
    probe = WebIQMatcher(WebIQConfig(checkpoint=CheckpointConfig(
        directory=journal))).run(
            build_domain_dataset(DOMAIN, N_INTERFACES, SEED))
    units = [tuple(body["unit"])
             for body in RunJournal.open(journal).records]
    boundaries = probe.checkpoint.boundaries
    poisoned = units[len(units) // 2]
    print(f"\nChaos schedule against a fresh supervised run:")
    print(f"  - kills at journal boundaries {boundaries // 4} and "
          f"{boundaries // 2}")
    print(f"  - the newest journal record torn after the second death")
    print(f"  - unit {list(poisoned)} crashes on every attempt")

    def chaos(attempt_index, directory):
        if attempt_index == 1:
            torn = tear_newest_record(directory)
            print(f"    [downtime after attempt 1] tore record {torn} "
                  "in journal.log")

    config = WebIQConfig(
        checkpoint=CheckpointConfig(directory=journal),
        supervisor=SupervisorConfig(
            restart=RestartPolicy(max_restarts=8, poison_threshold=2),
            unit_faults=UnitFaultInjector({poisoned: -1}),
        ),
    )
    supervised_dataset = build_domain_dataset(DOMAIN, N_INTERFACES, SEED)
    result = RunSupervisor(
        config,
        kill_schedule=(boundaries // 4, boundaries // 2),
        chaos=chaos,
    ).run(supervised_dataset)

    report = result.supervisor
    print(f"\n{report.summary()}")
    for attempt in report.attempts:
        line = f"  attempt {attempt.index}: {attempt.outcome}"
        if attempt.error:
            line += f" ({attempt.error.split(':')[0]})"
        if attempt.salvage is not None:
            line += f" -> {attempt.salvage.summary()}"
        print(line)
    for q in report.quarantined_units:
        print(f"  quarantined {list(q.unit)} after {q.crashes} crashes "
              f"at attempts {list(q.restart_indices)}:")
        for entry in q.error_chain:
            print(f"    {entry}")

    # The oracle: a plain run told to skip the poisoned unit up front.
    oracle_config = WebIQConfig(
        checkpoint=CheckpointConfig(
            directory=os.path.join(workdir, "oracle")),
        supervisor=SupervisorConfig(quarantine=(poisoned,)),
    )
    oracle_dataset = build_domain_dataset(DOMAIN, N_INTERFACES, SEED)
    oracle = WebIQMatcher(oracle_config).run(oracle_dataset)

    print(f"\nSupervised export == clean run minus the quarantined unit: "
          f"{comparable(result) == comparable(oracle)}")
    print(f"F-1 with the poisoned unit quarantined: "
          f"{result.metrics.f1:.3f} (reference {reference.metrics.f1:.3f})")
    print(f"Damaged records preserved for inspection in "
          f"{os.path.join(journal, 'quarantine')}")


if __name__ == "__main__":
    main()
