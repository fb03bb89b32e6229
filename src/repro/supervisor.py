"""Self-healing run supervision: crash-domain isolation over the journal.

PR 5 made a single run crash-safe; this module makes *recovery*
automatic. A :class:`RunSupervisor` executes the pipeline inside a
supervised loop — every attempt is one crash domain — and drives the
state machine documented in DESIGN.md §13::

    RUNNING --crash/preempt/deadline--> CRASHED --[journal torn]--> SALVAGE
       ^                                   |                           |
       |                                   v                           |
       +------------- RESUME <------ (backoff) <-----------------------+
       |                |
       |                +--[unit crashed N times]--> QUARANTINE
       |                                                 |
       +-------------------------------------------------+
    RUNNING --all units done--> DONE

Failure classification, per attempt:

- :class:`~repro.util.errors.DeadlineExceededError` — a wall-clock budget
  fired *after* the offending unit's record reached disk. Treated exactly
  like a preemption: journal durable, resume eligible.
- :class:`~repro.util.errors.PreemptionError` — process death at a
  journal boundary (the kill switch, or a real SIGKILL stand-in).
- :class:`~repro.util.errors.JournalCorruptionError` while *opening* the
  journal — the previous death tore a record (or bit-rot set in during
  the downtime). :meth:`RunJournal.salvage` truncates to the longest
  valid prefix and the loop retries; resume re-runs the trimmed units.
- any other ``Exception`` — an arbitrary crash inside a unit. The
  acquirer stamps escaping exceptions with the open unit's key
  (``exc.webiq_unit``), so the supervisor can count crashes *per unit*:
  a unit that kills the run ``poison_threshold`` times consecutively is
  quarantined — skipped (and journaled as skipped) on every later
  attempt — and the run completes gracefully instead of crash-looping,
  reporting the poisoned unit with its full exception chain and restart
  indices.

Configuration errors are *not* retried: a journal belonging to a
different run (:class:`~repro.util.errors.JournalMismatchError`), a
newer-format journal (:class:`~repro.util.errors.JournalFormatError`) or
a resume/observability conflict (:class:`~repro.util.errors.ResumeError`)
will fail identically on every attempt, so they propagate immediately.

Determinism: restart backoff is drawn from
``derive_rng(seed, "supervisor", "backoff")`` — the same seeded-stream
discipline as every other RNG in the library — and is *recorded*, never
charged to the run's :class:`~repro.util.clock.SimulatedClock`. Given the
same failure schedule, a supervised run is bit-identical end to end; and
under *any* kill/corruption schedule, its export is byte-identical to an
uninterrupted run's, minus only the units it explicitly quarantined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checkpoint.journal import (
    RunJournal,
    SalvageReport,
    _scan_valid_prefix,
)
from repro.util.errors import (
    DeadlineExceededError,
    InjectedCrashError,
    JournalCorruptionError,
    JournalFormatError,
    JournalMismatchError,
    PreemptionError,
    ResumeError,
    SupervisionExhaustedError,
)
from repro.util.rng import derive_rng

__all__ = [
    "FAILURE_CRASH",
    "FAILURE_CORRUPTION",
    "FAILURE_DEADLINE",
    "FAILURE_PREEMPTION",
    "AttemptRecord",
    "QuarantinedUnit",
    "RestartPolicy",
    "RunSupervisor",
    "SupervisorConfig",
    "SupervisorReport",
    "UnitFaultInjector",
]

UnitKey = Tuple[str, str, str]

#: Attempt outcomes (:attr:`AttemptRecord.outcome`); ``"completed"`` is
#: the fifth.
FAILURE_PREEMPTION = "preemption"
FAILURE_DEADLINE = "deadline"
FAILURE_CORRUPTION = "corruption"
FAILURE_CRASH = "crash"
COMPLETED = "completed"


@dataclass(frozen=True)
class RestartPolicy:
    """How many deaths the supervisor absorbs, and how long it waits.

    The backoff before restart ``index`` (0-based) is
    ``base_delay * multiplier**index``, clamped to ``max_delay``, scaled
    by a jitter factor uniform in ``[1-jitter, 1+jitter]`` — the same
    shape as :class:`repro.resilience.RetryPolicy`, but drawn from its
    own seeded stream (``derive_rng(seed, "supervisor", "backoff")``) so
    supervision never perturbs the run's RNG positions.
    """

    #: restarts allowed after the first attempt (so ``max_restarts + 1``
    #: attempts total)
    max_restarts: int = 8
    #: consecutive crashes attributed to one unit before it is quarantined
    poison_threshold: int = 3
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.25
    #: seed of the backoff jitter stream
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    def delay(self, restart_index: int, rng) -> float:
        seconds = self.base_delay * (self.multiplier ** restart_index)
        seconds = min(seconds, self.max_delay)
        if self.jitter:
            seconds *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return seconds


class UnitFaultInjector:
    """Deterministic unit-level saboteur for chaos tests.

    ``crashes`` maps a unit key to how many times entering that unit
    raises :class:`~repro.util.errors.InjectedCrashError` (``-1`` means
    every time, forever — the shape of a genuinely poisoned unit). The
    injector is mutable shared state across attempts on purpose: "crash
    twice, then heal" is exactly the transient-fault shape the
    supervisor's quarantine threshold must distinguish from poison.
    """

    def __init__(
        self,
        crashes: Dict[UnitKey, int],
        error_factory: Optional[Callable[[UnitKey], Exception]] = None,
    ) -> None:
        self.crashes = {tuple(unit): count for unit, count in crashes.items()}
        self._error_factory = error_factory

    def check(self, unit_key: UnitKey) -> None:
        """Crash the unit if its schedule says so (called by the unit
        bracket, inside the crash domain)."""
        remaining = self.crashes.get(tuple(unit_key), 0)
        if remaining == 0:
            return
        if remaining > 0:
            self.crashes[tuple(unit_key)] = remaining - 1
        if self._error_factory is not None:
            raise self._error_factory(tuple(unit_key))
        raise InjectedCrashError(
            f"injected crash in unit {list(unit_key)}"
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs (attach to ``WebIQConfig.supervisor``).

    Like ``kill_at``, none of this enters the journal meta: the
    supervisor legitimately varies the quarantine set between attempts
    of one run, and deadlines/saboteurs are injected hostility, not run
    identity.
    """

    restart: RestartPolicy = field(default_factory=RestartPolicy)
    #: per-unit simulated-seconds budget; a unit exceeding it preempts
    #: the run (journal durable, resume eligible)
    unit_deadline_seconds: Optional[float] = None
    #: per-attempt simulated-seconds budget over *fresh* work (replayed
    #: units spent their seconds in an earlier attempt)
    run_deadline_seconds: Optional[float] = None
    #: units the acquirer must skip (journaled as quarantined, zero cost)
    quarantine: Tuple[UnitKey, ...] = ()
    #: chaos saboteur fired at unit entry (tests only)
    unit_faults: Optional[UnitFaultInjector] = None

    def __post_init__(self) -> None:
        if (self.unit_deadline_seconds is not None
                and self.unit_deadline_seconds <= 0):
            raise ValueError("unit_deadline_seconds must be positive")
        if (self.run_deadline_seconds is not None
                and self.run_deadline_seconds <= 0):
            raise ValueError("run_deadline_seconds must be positive")
        object.__setattr__(
            self, "quarantine",
            tuple(tuple(unit) for unit in self.quarantine),
        )


@dataclass(frozen=True)
class QuarantinedUnit:
    """One poisoned unit, with the provenance to debug it."""

    unit: UnitKey
    #: consecutive crashes attributed to the unit before quarantine
    crashes: int
    #: 0-based attempt indices at which the unit crashed the run
    restart_indices: Tuple[int, ...]
    #: ``"Type: message"`` lines of the final crash's exception chain
    #: (outermost first)
    error_chain: Tuple[str, ...]


@dataclass
class AttemptRecord:
    """One crash domain: what it did, how it died (or didn't)."""

    index: int
    #: ``"completed"`` or one of the ``FAILURE_*`` kinds
    outcome: str
    #: the crashing unit, when the failure could be attributed to one
    unit: Optional[UnitKey] = None
    #: ``"Type: message"`` of the failure, when there was one
    error: Optional[str] = None
    #: round trips this attempt really sent (raw substrate counters)
    round_trips: int = 0
    #: the subset of ``round_trips`` that reached the journal durably
    committed_round_trips: int = 0
    #: journal spend already durable when the attempt started — the round
    #: trips resume restored that a cold restart would have re-paid
    restored_round_trips: int = 0
    #: seeded backoff recorded before the *next* attempt (0 for the last)
    backoff_seconds: float = 0.0
    #: present when this attempt's journal needed salvage before resume
    salvage: Optional[SalvageReport] = None


@dataclass
class SupervisorReport:
    """What supervision did for one run (in-memory + exported)."""

    attempts: List[AttemptRecord] = field(default_factory=list)
    quarantined_units: List[QuarantinedUnit] = field(default_factory=list)
    #: round trips paid by failed attempts but never journaled (lost to
    #: the unit in flight when the attempt died)
    wasted_round_trips: int = 0
    #: journaled round trips lost again when salvage trimmed torn records
    salvage_trimmed_round_trips: int = 0
    #: total seeded backoff the supervisor waited (never charged to the
    #: run's simulated clock — supervision downtime is not run overhead)
    backoff_seconds: float = 0.0
    completed: bool = False

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def total_round_trips(self) -> int:
        """Raw spend across every attempt — the conservation law's left side."""
        return sum(a.round_trips for a in self.attempts)

    @property
    def salvages(self) -> int:
        return sum(1 for a in self.attempts if a.salvage is not None)

    @property
    def salvaged_records(self) -> int:
        return sum(
            a.salvage.quarantined_records
            for a in self.attempts if a.salvage is not None
        )

    def summary(self) -> str:
        """One CLI-ready line, mirroring the checkpoint summary's tone."""
        line = (
            f"supervisor: {len(self.attempts)} attempts "
            f"({self.restarts} restarts), "
            f"{self.wasted_round_trips} round trips lost to crashes"
        )
        if self.salvages:
            line += (
                f", {self.salvages} salvages "
                f"({self.salvage_trimmed_round_trips} round trips trimmed)"
            )
        if self.quarantined_units:
            line += f", {len(self.quarantined_units)} units quarantined"
        return line


def _error_chain(exc: BaseException) -> Tuple[str, ...]:
    """``"Type: message"`` lines for ``exc`` and its causes, outermost first."""
    chain: List[str] = []
    seen: set = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return tuple(chain)


class RunSupervisor:
    """Executes a pipeline run to completion across crash domains.

    ``kill_schedule`` arms the checkpoint kill switch per attempt (entry
    ``i`` preempts attempt ``i`` at that journal boundary; missing
    entries arm nothing) and ``chaos`` is called between attempts
    (``chaos(attempt_index, journal_directory)``) — together they let
    tests and the chaos CI job inject any deterministic kill/corruption
    schedule. Production use passes neither.

    Restart attempts reuse the run config, changing only the
    checkpoint's resume/kill settings and the supervisor's quarantine,
    so a resumed attempt replays the unit boundaries the crashed one
    journaled.
    """

    def __init__(
        self,
        config: Any,
        kill_schedule: Tuple[Optional[int], ...] = (),
        chaos: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        if config.checkpoint is None:
            raise ResumeError(
                "supervision requires a checkpoint journal — attach a "
                "CheckpointConfig to the run config"
            )
        if config.obs is not None:
            raise ResumeError(
                "cannot supervise under observability: recovery resumes "
                "from the journal, and resumed units issue no calls for "
                "the tracer to observe — rerun with obs=None"
            )
        self.config = config
        self.kill_schedule = tuple(kill_schedule)
        self.chaos = chaos

    # ------------------------------------------------------------------ run
    def run(self, dataset: Any) -> Any:
        """Run to completion (or exhaustion); returns the final attempt's
        :class:`~repro.core.pipeline.WebIQRunResult` with
        ``result.supervisor`` attached."""
        # Imported here, not at module top: the pipeline imports this
        # module for the config/report types, so the reverse import must
        # wait until call time.
        from repro.core.pipeline import WebIQMatcher

        base_supervisor = self.config.supervisor or SupervisorConfig()
        policy = base_supervisor.restart
        rng = derive_rng(policy.seed, "supervisor", "backoff")
        directory = self.config.checkpoint.directory

        report = SupervisorReport()
        # unit -> crash bookkeeping feeding the quarantine decision
        crash_counts: Dict[UnitKey, int] = {}
        crash_indices: Dict[UnitKey, List[int]] = {}
        crash_errors: Dict[UnitKey, Tuple[str, ...]] = {}
        quarantine: Dict[UnitKey, QuarantinedUnit] = {
            unit: QuarantinedUnit(
                unit=unit, crashes=0, restart_indices=(), error_chain=()
            )
            for unit in base_supervisor.quarantine
        }

        resume = self.config.checkpoint.resume
        journal_spend = self._journal_spend(directory) if resume else 0
        attempt_index = 0
        while True:
            attempt = AttemptRecord(
                index=attempt_index, outcome=COMPLETED,
                restored_round_trips=journal_spend,
            )
            kill_at = None
            if attempt_index < len(self.kill_schedule):
                kill_at = self.kill_schedule[attempt_index]
            attempt_config = replace(
                self.config,
                checkpoint=replace(
                    self.config.checkpoint, resume=resume, kill_at=kill_at,
                ),
                supervisor=replace(
                    base_supervisor,
                    quarantine=tuple(sorted(quarantine)),
                ),
            )

            failure: Optional[Tuple[str, Optional[UnitKey], Exception]] = None
            result = None
            try:
                result = WebIQMatcher(attempt_config).run(dataset)
            except (JournalFormatError, JournalMismatchError, ResumeError):
                # Configuration errors fail identically on every attempt:
                # restarting cannot cure them, so don't burn the budget.
                raise
            except JournalCorruptionError as exc:
                failure = (FAILURE_CORRUPTION, None, exc)
            except DeadlineExceededError as exc:
                failure = (FAILURE_DEADLINE, None, exc)
            except PreemptionError as exc:
                failure = (FAILURE_PREEMPTION, None, exc)
            except Exception as exc:  # the crash domain: anything else
                failure = (
                    FAILURE_CRASH, getattr(exc, "webiq_unit", None), exc
                )

            # ---- account the attempt's spend against the journal.
            # The pipeline resets the dataset's raw counters at attempt
            # start, so they measure exactly this attempt's wire traffic.
            attempt.round_trips = self._raw_round_trips(dataset)
            if failure is None or failure[0] != FAILURE_CORRUPTION:
                spend_now = self._journal_spend(directory)
                attempt.committed_round_trips = spend_now - journal_spend
                journal_spend = spend_now
                report.wasted_round_trips += (
                    attempt.round_trips - attempt.committed_round_trips
                )

            if failure is None:
                report.attempts.append(attempt)
                report.completed = True
                report.quarantined_units = [
                    quarantine[unit] for unit in sorted(quarantine)
                ]
                assert result is not None
                result.supervisor = report
                if result.degradation is not None:
                    result.degradation.quarantined_units.extend(
                        report.quarantined_units
                    )
                return result

            kind, unit, exc = failure
            attempt.outcome = kind
            attempt.unit = unit
            attempt.error = f"{type(exc).__name__}: {exc}"

            if kind == FAILURE_CORRUPTION:
                # The journal would not open: trim it to the longest
                # valid prefix, then account the spend the trim lost.
                salvage = RunJournal.salvage(directory)
                attempt.salvage = salvage
                spend_now = self._journal_spend(directory)
                report.salvage_trimmed_round_trips += (
                    journal_spend - spend_now
                )
                journal_spend = spend_now

            if kind == FAILURE_CRASH and unit is not None:
                unit = tuple(unit)
                crash_counts[unit] = crash_counts.get(unit, 0) + 1
                crash_indices.setdefault(unit, []).append(attempt_index)
                crash_errors[unit] = _error_chain(exc)
                if crash_counts[unit] >= policy.poison_threshold \
                        and unit not in quarantine:
                    quarantine[unit] = QuarantinedUnit(
                        unit=unit,
                        crashes=crash_counts[unit],
                        restart_indices=tuple(crash_indices[unit]),
                        error_chain=crash_errors[unit],
                    )

            if attempt_index >= policy.max_restarts:
                report.attempts.append(attempt)
                raise SupervisionExhaustedError(
                    f"run still failing after {attempt_index + 1} attempts "
                    f"({policy.max_restarts} restarts allowed); last "
                    f"failure: {attempt.error}"
                ) from exc

            attempt.backoff_seconds = policy.delay(attempt_index, rng)
            report.backoff_seconds += attempt.backoff_seconds
            report.attempts.append(attempt)

            if self.chaos is not None:
                # Downtime: bit-rot, torn writes — whatever the chaos
                # schedule wants to do to the journal before resume.
                # Re-measure at once: any spend the damage removed from
                # the valid prefix is trimmed *now*, keeping the books
                # telescoped even when the damage (say, a deleted tail
                # record) would not make the next open raise.
                self.chaos(attempt_index, directory)
                spend_after_chaos = self._journal_spend(directory)
                report.salvage_trimmed_round_trips += (
                    journal_spend - spend_after_chaos
                )
                journal_spend = spend_after_chaos

            resume = True
            attempt_index += 1

    # ------------------------------------------------------------ internals
    @staticmethod
    def _raw_round_trips(dataset: Any) -> int:
        return dataset.engine.query_count + sum(
            source.probe_count for source in dataset.sources.values()
        )

    @staticmethod
    def _journal_spend(directory: str) -> int:
        """Round trips durably journaled, by the checkpoint tally rule
        (probe spend for Attr-Deep units, query spend otherwise).

        Counts the journal's *valid prefix*: records past the first
        damaged one never count — they are exactly what salvage will
        trim, so the supervisor's books never include spend it cannot
        prove was journaled.
        """
        try:
            bodies, _, _ = _scan_valid_prefix(directory)
        except JournalMismatchError:
            return 0
        spend = 0
        for body in bodies:
            if body["unit"][0] == "attr_deep":
                spend += body["probes"]
            else:
                spend += body["queries"]
        return spend
