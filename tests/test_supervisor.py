"""The self-healing contract: any kill/corruption schedule, same bytes.

A run executed by :class:`~repro.supervisor.RunSupervisor` must complete
without intervention under any deterministic schedule of kills, journal
corruption, deadlines and unit crashes — and its exported payload must be
byte-identical to the uninterrupted run's, minus only the units it
explicitly quarantined. Every supervised run is additionally audited by
the cross-layer invariant checker, whose two supervision laws
(``restart-spend-conservation``, ``quarantine-accounting``) prove the
recovery books from the raw substrate counters.
"""

import json
import os

import pytest

from repro.checkpoint import CheckpointConfig, RunJournal
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import RUN_RESULT_FORMAT, run_result_to_dict
from repro.obs import ObsConfig, check_run
from repro.resilience import BreakerPolicy, FaultProfile, ResilienceConfig
from repro.supervisor import (
    COMPLETED,
    FAILURE_CORRUPTION,
    FAILURE_CRASH,
    FAILURE_DEADLINE,
    FAILURE_PREEMPTION,
    RestartPolicy,
    RunSupervisor,
    SupervisorConfig,
    UnitFaultInjector,
)
from repro.util.clock import SimulatedClock
from repro.util.errors import (
    InjectedCrashError,
    JournalMismatchError,
    ResumeError,
    SupervisionExhaustedError,
)

N_INTERFACES = 3
SUPERVISION_LAWS = ("restart-spend-conservation", "quarantine-accounting")


def faulty_resilience():
    # Volume-reactive valves parked so runs of different crash histories
    # stay comparable — same reasoning as the checkpoint-resume suite.
    return ResilienceConfig(
        profile=FaultProfile(fault_rate=0.15, seed=5),
        breaker=BreakerPolicy(failure_threshold=10_000),
    )


def make_config(resilience=False, checkpoint=None, supervisor=None,
                obs=None):
    return WebIQConfig(
        resilience=faulty_resilience() if resilience else None,
        checkpoint=checkpoint,
        supervisor=supervisor,
        obs=obs,
    )


def canonical(dataset, result):
    """The full export plus raw acquired state, as comparable bytes.

    Checkpoint, supervisor and format are stripped: they legitimately
    differ between a supervised and a plain run, and equality of
    everything else is exactly the self-healing guarantee under test.
    """
    payload = run_result_to_dict(result)
    for key in ("checkpoint", "format", "supervisor"):
        payload.pop(key, None)
    payload["_acquired"] = {
        interface.interface_id: {
            attribute.name: list(attribute.acquired)
            for attribute in interface.attributes
        }
        for interface in dataset.interfaces
    }
    return json.dumps(payload, sort_keys=True)


_BASELINES = {}


def baseline(domain, seed, resilience=False):
    """Memoised uninterrupted (checkpoint-free) reference payload."""
    key = (domain, seed, resilience)
    if key not in _BASELINES:
        dataset = build_domain_dataset(domain, N_INTERFACES, seed)
        result = WebIQMatcher(make_config(resilience=resilience)).run(dataset)
        _BASELINES[key] = canonical(dataset, result)
    return _BASELINES[key]


def supervise(tmp_path, domain="book", seed=1, resilience=False,
              supervisor=None, kill_schedule=(), chaos=None,
              directory=None):
    """One supervised run; returns (payload, result, dataset)."""
    directory = directory or str(tmp_path / "journal")
    config = make_config(
        resilience=resilience,
        checkpoint=CheckpointConfig(directory=directory),
        supervisor=supervisor,
    )
    dataset = build_domain_dataset(domain, N_INTERFACES, seed)
    result = RunSupervisor(
        config, kill_schedule=kill_schedule, chaos=chaos).run(dataset)
    return canonical(dataset, result), result, dataset


def probe_units(tmp_path, domain="book", seed=1):
    """The run's journal unit keys, from a throwaway journaled run."""
    directory = str(tmp_path / "probe")
    dataset = build_domain_dataset(domain, N_INTERFACES, seed)
    WebIQMatcher(make_config(
        checkpoint=CheckpointConfig(directory=directory))).run(dataset)
    return [tuple(body["unit"])
            for body in RunJournal.open(directory).records]


def assert_audited(result):
    audit = check_run(result)
    assert audit.ok, audit.summary()
    for law in SUPERVISION_LAWS:
        assert law in audit.checked
    return audit


def corrupt_tail_record(directory):
    """Tear the journal's newest record line (simulated torn write)."""
    with open(os.path.join(directory, "journal.log"), "r+b") as handle:
        data = handle.read()
        handle.seek(data.rstrip(b"\n").rfind(b"\n") + 1)
        handle.truncate()
        handle.write(b'{"format": 1, "crc": 0, "body"')


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError, match="poison_threshold"):
            RestartPolicy(poison_threshold=0)
        with pytest.raises(ValueError, match="jitter"):
            RestartPolicy(jitter=1.0)

    def test_delay_grows_and_clamps(self):
        policy = RestartPolicy(base_delay=1.0, multiplier=2.0,
                               max_delay=5.0, jitter=0.0)
        delays = [policy.delay(i, None) for i in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_seeded_and_bounded(self):
        from repro.util.rng import derive_rng
        policy = RestartPolicy(base_delay=8.0, jitter=0.25)
        a = [policy.delay(0, derive_rng(7, "supervisor", "backoff"))
             for _ in range(3)]
        assert a[0] == a[1] == a[2]
        assert 6.0 <= a[0] <= 10.0


class TestSupervisorConfig:
    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="unit_deadline"):
            SupervisorConfig(unit_deadline_seconds=0.0)
        with pytest.raises(ValueError, match="run_deadline"):
            SupervisorConfig(run_deadline_seconds=-1.0)

    def test_quarantine_normalised_to_tuples(self):
        config = SupervisorConfig(quarantine=[["surface", "i", "a"]])
        assert config.quarantine == (("surface", "i", "a"),)

    def test_fault_injector_schedule(self):
        unit = ("surface", "i", "a")
        injector = UnitFaultInjector({unit: 2})
        for _ in range(2):
            with pytest.raises(InjectedCrashError):
                injector.check(unit)
        injector.check(unit)  # healed
        always = UnitFaultInjector({unit: -1})
        for _ in range(3):
            with pytest.raises(InjectedCrashError):
                always.check(unit)


class TestRunSupervisorValidation:
    def test_requires_checkpoint(self):
        with pytest.raises(ResumeError, match="journal"):
            RunSupervisor(make_config())

    def test_refuses_observability(self, tmp_path):
        config = make_config(
            checkpoint=CheckpointConfig(directory=str(tmp_path / "j")),
            obs=ObsConfig(),
        )
        with pytest.raises(ResumeError, match="observability"):
            RunSupervisor(config)


class TestKillSchedule:
    """Repeated preemptions heal to the uninterrupted run's bytes."""

    def test_multi_kill_schedule_byte_identical(self, tmp_path):
        payload, result, _ = supervise(
            tmp_path, kill_schedule=(2, 7, None))
        assert payload == baseline("book", 1)
        report = result.supervisor
        assert [a.outcome for a in report.attempts] == \
            [FAILURE_PREEMPTION, FAILURE_PREEMPTION, COMPLETED]
        assert report.completed and report.restarts == 2
        # Preemption at a boundary loses nothing: every round trip the
        # dead attempts paid had already reached the journal.
        assert report.wasted_round_trips == 0
        assert report.salvage_trimmed_round_trips == 0
        # Later attempts start with more of the run restored.
        restored = [a.restored_round_trips for a in report.attempts]
        assert restored[0] == 0 and restored[1] <= restored[2]
        assert_audited(result)

    def test_backoff_recorded_not_charged(self, tmp_path):
        _, result, _ = supervise(tmp_path, kill_schedule=(2, 7, None))
        report = result.supervisor
        assert report.backoff_seconds > 0
        assert report.attempts[-1].backoff_seconds == 0.0
        assert report.backoff_seconds == pytest.approx(
            sum(a.backoff_seconds for a in report.attempts))
        # The run's own stopwatch never saw the supervision downtime.
        assert canonical(*_rerun_plain("book", 1)) == baseline("book", 1)

    def test_unsupervised_summary_absent_from_export(self, tmp_path):
        _, result, _ = supervise(tmp_path, kill_schedule=(2, None))
        payload = run_result_to_dict(result)
        assert payload["format"] == RUN_RESULT_FORMAT
        assert payload["supervisor"]["restarts"] == 1


def _rerun_plain(domain, seed):
    dataset = build_domain_dataset(domain, N_INTERFACES, seed)
    result = WebIQMatcher(make_config()).run(dataset)
    return dataset, result


class TestCorruptionSalvage:
    """A torn journal is salvaged, not fatal — and costs only the tail."""

    def test_salvage_then_byte_identical(self, tmp_path):
        def chaos(attempt_index, directory):
            if attempt_index == 0:
                corrupt_tail_record(directory)

        payload, result, _ = supervise(
            tmp_path, kill_schedule=(6, None), chaos=chaos)
        assert payload == baseline("book", 1)
        report = result.supervisor
        outcomes = [a.outcome for a in report.attempts]
        assert outcomes == [
            FAILURE_PREEMPTION, FAILURE_CORRUPTION, COMPLETED]
        assert report.salvages == 1
        assert report.salvaged_records == 1
        salvage = report.attempts[1].salvage
        assert salvage is not None and salvage.kept_records == 6
        assert_audited(result)

    def test_trimmed_spend_is_accounted(self, tmp_path):
        """The corrupted record's journaled spend moves to the trim
        ledger the moment chaos damages it — conservation holds."""
        def chaos(attempt_index, directory):
            if attempt_index == 0:
                corrupt_tail_record(directory)

        _, result, _ = supervise(
            tmp_path, kill_schedule=(6, None), chaos=chaos)
        report = result.supervisor
        checkpoint = result.checkpoint
        assert report.total_round_trips == (
            checkpoint.replayed_round_trips + checkpoint.fresh_round_trips
            + report.wasted_round_trips
            + report.salvage_trimmed_round_trips)


class TestDeadlines:
    """Wall-clock budgets preempt cleanly and the run still completes."""

    def _unit_seconds(self, tmp_path):
        clock = SimulatedClock()
        directory = str(tmp_path / "probe")
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        WebIQMatcher(make_config(
            checkpoint=CheckpointConfig(directory=directory))).run(dataset)
        return [
            body["queries"] * clock.search_query_seconds
            + body["probes"] * clock.deep_probe_seconds
            for body in RunJournal.open(directory).records
        ]

    def test_run_deadline_slices_run_into_attempts(self, tmp_path):
        seconds = self._unit_seconds(tmp_path)
        deadline = sum(seconds) / 3.0
        payload, result, _ = supervise(
            tmp_path,
            supervisor=SupervisorConfig(
                restart=RestartPolicy(max_restarts=50),
                run_deadline_seconds=deadline,
            ),
        )
        assert payload == baseline("book", 1)
        report = result.supervisor
        assert report.restarts >= 2
        assert all(a.outcome == FAILURE_DEADLINE
                   for a in report.attempts[:-1])
        assert report.attempts[-1].outcome == COMPLETED
        assert report.wasted_round_trips == 0
        assert_audited(result)

    def test_unit_deadline_preempts_heaviest_units(self, tmp_path):
        seconds = self._unit_seconds(tmp_path)
        deadline = max(seconds) - 0.01
        over_budget = sum(1 for s in seconds if s > deadline)
        assert over_budget >= 1
        payload, result, _ = supervise(
            tmp_path,
            supervisor=SupervisorConfig(
                restart=RestartPolicy(max_restarts=50),
                unit_deadline_seconds=deadline,
            ),
        )
        assert payload == baseline("book", 1)
        report = result.supervisor
        # Deadline fires after the record is durable, so each offending
        # unit preempts exactly once and is replayed thereafter.
        assert report.restarts == over_budget
        assert all(a.outcome == FAILURE_DEADLINE
                   for a in report.attempts[:-1])
        assert_audited(result)


class TestQuarantine:
    """A unit that keeps killing the run is isolated, not fatal."""

    def test_poisoned_unit_quarantined_and_run_completes(self, tmp_path):
        unit = probe_units(tmp_path)[4]
        payload, result, _ = supervise(
            tmp_path,
            supervisor=SupervisorConfig(
                restart=RestartPolicy(poison_threshold=2),
                unit_faults=UnitFaultInjector({unit: -1}),
            ),
        )
        report = result.supervisor
        assert report.completed
        assert [a.outcome for a in report.attempts] == \
            [FAILURE_CRASH, FAILURE_CRASH, COMPLETED]
        assert report.attempts[0].unit == unit
        [quarantined] = report.quarantined_units
        assert quarantined.unit == unit
        assert quarantined.crashes == 2
        assert quarantined.restart_indices == (0, 1)
        assert any("InjectedCrashError" in line
                   for line in quarantined.error_chain)
        assert_audited(result)
        # The poisoned unit is really absent: payload differs from the
        # clean baseline.
        assert payload != baseline("book", 1)

    def test_quarantine_oracle(self, tmp_path):
        """Supervised-with-quarantine == plain run told to skip the same
        unit up front: quarantine changes nothing else."""
        unit = probe_units(tmp_path)[4]
        payload, _, _ = supervise(
            tmp_path,
            supervisor=SupervisorConfig(
                restart=RestartPolicy(poison_threshold=2),
                unit_faults=UnitFaultInjector({unit: -1}),
            ),
        )
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        reference = WebIQMatcher(make_config(
            checkpoint=CheckpointConfig(
                directory=str(tmp_path / "reference")),
            supervisor=SupervisorConfig(quarantine=(unit,)),
        )).run(dataset)
        assert payload == canonical(dataset, reference)

    def test_transient_crash_heals_without_quarantine(self, tmp_path):
        unit = probe_units(tmp_path)[4]
        payload, result, _ = supervise(
            tmp_path,
            supervisor=SupervisorConfig(
                restart=RestartPolicy(poison_threshold=3),
                unit_faults=UnitFaultInjector({unit: 1}),
            ),
        )
        assert payload == baseline("book", 1)
        report = result.supervisor
        assert [a.outcome for a in report.attempts] == \
            [FAILURE_CRASH, COMPLETED]
        assert report.quarantined_units == []
        assert_audited(result)

    def test_degradation_report_mirrors_quarantine(self, tmp_path):
        unit = probe_units(tmp_path)[4]
        _, result, _ = supervise(
            tmp_path, resilience=True,
            supervisor=SupervisorConfig(
                restart=RestartPolicy(poison_threshold=1),
                unit_faults=UnitFaultInjector({unit: -1}),
            ),
        )
        degradation = result.degradation
        assert [q.unit for q in degradation.quarantined_units] == [unit]
        assert "quarantined" in degradation.summary()
        # In-memory visibility only: the exported degradation section is
        # byte-stable, so quarantine provenance exports via "supervisor".
        payload = run_result_to_dict(result)
        assert "quarantined" not in json.dumps(payload["degradation"])
        assert payload["supervisor"]["quarantined_units"][0]["unit"] == \
            list(unit)


class TestExhaustionAndConfigErrors:
    def test_restart_budget_exhaustion(self, tmp_path):
        unit = probe_units(tmp_path)[4]
        with pytest.raises(SupervisionExhaustedError, match="3 attempts"):
            supervise(
                tmp_path,
                supervisor=SupervisorConfig(
                    # Poison threshold out of reach: the unit keeps
                    # crashing the run until the budget runs out.
                    restart=RestartPolicy(max_restarts=2,
                                          poison_threshold=10),
                    unit_faults=UnitFaultInjector({unit: -1}),
                ),
            )

    def test_config_errors_are_not_retried(self, tmp_path):
        directory = str(tmp_path / "journal")
        dataset = build_domain_dataset("book", N_INTERFACES, 2)
        WebIQMatcher(make_config(
            checkpoint=CheckpointConfig(directory=directory))).run(dataset)
        config = make_config(
            checkpoint=CheckpointConfig(directory=directory, resume=True))
        with pytest.raises(JournalMismatchError, match="seed"):
            RunSupervisor(config).run(
                build_domain_dataset("book", N_INTERFACES, 1))


class TestMetamorphicSweep:
    """The acceptance sweep: domains × seeds × kill/corruption schedules
    all terminate without intervention, byte-identical, zero violations."""

    @pytest.mark.parametrize("domain", ("book", "airfare"))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_kill_and_corruption_schedule(self, tmp_path, domain, seed):
        def chaos(attempt_index, directory):
            if attempt_index == 1:
                corrupt_tail_record(directory)

        payload, result, _ = supervise(
            tmp_path, domain=domain, seed=seed,
            kill_schedule=(2, 5, None), chaos=chaos)
        assert payload == baseline(domain, seed), \
            f"diverged under chaos for {domain}/seed {seed}"
        report = result.supervisor
        assert report.completed
        assert report.salvages == 1
        assert_audited(result)
