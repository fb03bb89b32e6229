"""Checkpoint sessions: record units of work, replay them bit-identically.

One :class:`CheckpointSession` accompanies one pipeline run. The
acquisition loop brackets every unit of work — one ``(phase, interface,
attribute)`` iteration — with :meth:`~CheckpointSession.replay_unit` /
:meth:`~CheckpointSession.begin_unit` / :meth:`~CheckpointSession.commit_unit`:

- **Fresh unit** (journal exhausted): ``begin_unit`` marks every counter
  and memo store, the real work runs, ``commit_unit`` captures the deltas
  — instances added, record fields, engine/probe round trips, growth of
  the run's question memo (searches and hit counts) and of the probe
  memo — plus a snapshot of the resilience and memo counters, and
  durably appends the record. The armed
  :class:`~repro.resilience.KillSwitch`, if any, fires *after* the append:
  the journal boundary is exactly where the process may die.
- **Replayed unit** (journal has a record left): the recorded effects are
  re-applied without touching the search engine or any Deep-Web source —
  zero transport calls, by construction. When the *last* record replays,
  the killed process's substrate state (degradation report, budgets,
  breakers, backoff and fault RNG positions, memo stats) is restored in
  one shot, so the first fresh unit continues exactly where the killed
  run stopped.

**Why resumed runs are byte-identical.** Every source of downstream
divergence is either a pure function of recorded inputs (discovery,
validation, clustering), a journaled delta (acquired values, memo
stores), or a restored stream position (backoff jitter,
per-source fault fates — engine fates are content-keyed and need no
position at all). The simulated clock is *recomputed*, not restored:
phase charges accumulate per-unit deltas, replayed ones from the journal
and fresh ones from live counters, landing on the same totals as an
uninterrupted run. See DESIGN.md §12 for the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint.journal import RunJournal
from repro.perf.cache import ValidationCache, dict_tail
from repro.resilience.client import ResilientClient
from repro.resilience.faults import KillSwitch
from repro.util.errors import (
    DeadlineExceededError,
    JournalMismatchError,
)

__all__ = [
    "CheckpointConfig",
    "CheckpointReport",
    "CheckpointSession",
    "ReplayedUnit",
    "open_session",
    "record_round_trips",
]

#: The mutable AcquisitionRecord fields a unit may change (journaled as a
#: post-unit snapshot; the identity fields are derivable from the unit key).
RECORD_FIELDS = (
    "surface_attempted",
    "borrow_deep_attempted",
    "borrow_surface_attempted",
    "n_after_surface",
    "n_after_borrow",
)


def record_round_trips(body: Dict[str, Any]) -> int:
    """Round trips a record's unit spent: probes for attr_deep, else queries."""
    return body["probes"] if body["unit"][0] == "attr_deep" else body["queries"]


@dataclass(frozen=True)
class CheckpointConfig:
    """Pipeline-facing checkpoint knobs (attach to ``WebIQConfig.checkpoint``)."""

    #: journal directory; created on a fresh run, read on resume
    directory: str
    #: replay an existing journal instead of starting over
    resume: bool = False
    #: arm a :class:`~repro.resilience.KillSwitch` at this journal boundary
    kill_at: Optional[int] = None


@dataclass
class CheckpointReport:
    """What checkpointing did for one run (in-memory diagnostics).

    Only the resume-invariant core (``boundaries``) is exported into run
    payloads — the replay/fresh split necessarily differs between an
    uninterrupted run and a resumed one, and must not break their byte
    equality.
    """

    directory: str
    resumed: bool
    replayed_records: int = 0
    fresh_records: int = 0
    #: component -> round trips satisfied from the journal (not re-spent)
    replayed_queries_by_component: Dict[str, int] = field(default_factory=dict)
    #: component -> round trips this process actually performed
    fresh_queries_by_component: Dict[str, int] = field(default_factory=dict)
    #: raw substrate counters at the end of the run — what this process
    #: really sent over the (simulated) wire
    engine_round_trips: int = 0
    source_round_trips: int = 0
    #: unit keys skipped because the supervisor quarantined them (both
    #: replayed and fresh quarantine records land here, in run order)
    quarantine_skips: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def boundaries(self) -> int:
        """Total journal boundaries of the run (resume-invariant)."""
        return self.replayed_records + self.fresh_records

    @property
    def replayed_round_trips(self) -> int:
        return sum(self.replayed_queries_by_component.values())

    @property
    def fresh_round_trips(self) -> int:
        return sum(self.fresh_queries_by_component.values())

    def summary(self) -> str:
        """One CLI-ready line, mirroring the cache summary's tone."""
        verb = "resumed" if self.resumed else "journaled"
        line = (
            f"checkpoint: {verb} — {self.replayed_records} units replayed "
            f"({self.replayed_round_trips} round trips saved), "
            f"{self.fresh_records} units written"
        )
        if self.quarantine_skips:
            line += f", {len(self.quarantine_skips)} units quarantined"
        return line


@dataclass(frozen=True)
class ReplayedUnit:
    """What one replayed record charged, for phase-end clock accounting."""

    queries: int
    probes: int


@dataclass
class UnitCapture:
    """Pre-unit marks a fresh unit's deltas are measured against."""

    unit_key: Tuple[str, str, str]
    engine_before: int
    probes_before: int
    acquired_before: int
    validation_mark: Tuple[int, int, int]
    memo_mark: int
    #: resilience backoff seconds already accrued when the unit began —
    #: the unit's wall-clock deadline charge includes its backoff delta
    backoff_before: float = 0.0


class CheckpointSession:
    """Journals fresh units and replays recorded ones for one run."""

    def __init__(self, journal: RunJournal, report: CheckpointReport,
                 kill_switch: Optional[KillSwitch] = None) -> None:
        self.journal = journal
        self.report = report
        self._kill_switch = kill_switch
        self._cursor = 0
        # Replay horizon: only records that existed when the session opened
        # are replayable — records this process appends are *fresh*, and
        # must never be re-consumed by the unit that follows them.
        self._replay_limit = len(journal.records)
        # Substrate references (attached by the pipeline once the layer
        # stack is built).
        self._engine: Any = None
        self._sources: Dict[str, Any] = {}
        self._client: Optional[ResilientClient] = None
        # Memo stores (registered by the acquirer).
        self._validation: Optional[ValidationCache] = None
        self._probe_memo: Optional[Dict[tuple, bool]] = None
        # Supervision hooks (attached via supervise(); all inert without).
        self._quarantine: frozenset = frozenset()
        self._unit_faults: Any = None
        self._unit_deadline: Optional[float] = None
        self._run_deadline: Optional[float] = None
        self._clock: Any = None
        self._fresh_seconds = 0.0

    # --------------------------------------------------------------- wiring
    def attach_substrates(
        self,
        engine: Any,
        sources: Dict[str, Any],
        client: Optional[ResilientClient] = None,
    ) -> None:
        """Point the session at the run's layer stack.

        ``engine``/``sources`` are the *top-of-stack* objects the acquirer
        talks to (their counters delegate to the raw substrates, so deltas
        measure real round trips only).
        """
        self._engine = engine
        self._sources = dict(sources)
        self._client = client

    def register_validation_cache(self, cache: ValidationCache) -> None:
        """Declare the run's memo of Surface questions (its growth is
        journaled as ``validation``, its stats in the state snapshot)."""
        self._validation = cache

    def register_probe_memo(self, memo: Dict[tuple, bool]) -> None:
        """Declare the Attr-Deep probe memo (the live dict)."""
        self._probe_memo = memo

    def supervise(self, supervisor_config: Any, clock: Any) -> None:
        """Attach supervision hooks (:class:`repro.supervisor.SupervisorConfig`).

        Installs the quarantine set (units the acquirer must skip), the
        unit/run wall-clock deadlines charged against ``clock``'s rates,
        and the unit-fault saboteur for chaos testing. Deadline budgets
        count only the *fresh* work of this attempt — replayed units
        spent their seconds in an earlier attempt, and charging them
        again would make every resume instantly over budget.
        """
        self._quarantine = frozenset(
            tuple(unit) for unit in supervisor_config.quarantine
        )
        self._unit_faults = supervisor_config.unit_faults
        self._unit_deadline = supervisor_config.unit_deadline_seconds
        self._run_deadline = supervisor_config.run_deadline_seconds
        self._clock = clock

    def is_quarantined(self, unit_key: Tuple[str, str, str]) -> bool:
        """True when the supervisor ordered this unit skipped."""
        return tuple(unit_key) in self._quarantine

    # --------------------------------------------------------------- replay
    def replay_unit(self, unit_key: Tuple[str, str, str], attribute,
                    record) -> Optional[ReplayedUnit]:
        """Consume the next journal record if one is pending.

        Returns ``None`` when the journal is exhausted (the caller runs
        the unit fresh). Records are consumed strictly sequentially; a
        unit-key disagreement means the journal belongs to a different
        run shape and resume is refused.
        """
        if self._cursor >= self._replay_limit:
            return None
        body = self.journal.records[self._cursor]
        if tuple(body["unit"]) != tuple(unit_key):
            raise JournalMismatchError(
                f"record {self._cursor}: journal unit {body['unit']} does "
                f"not match the run's next unit {list(unit_key)} — refusing "
                "to resume a diverging run"
            )
        self._cursor += 1

        attribute.acquired.extend(body["added"])
        for field_name in RECORD_FIELDS:
            setattr(record, field_name, body["record"][field_name])
        for name, delta in body["stores"].items():
            if name != "validation" or self._validation is None:
                raise JournalMismatchError(
                    f"record {body['index']}: journal carries validation "
                    f"store {name!r} this configuration does not have"
                )
            self._validation.merge_delta(delta)
        if body["probe_memo"]:
            if self._probe_memo is None:
                raise JournalMismatchError(
                    f"record {body['index']}: journal carries probe-memo "
                    "entries but no Attr-Deep validator is registered"
                )
            for raw_key, verdict in body["probe_memo"]:
                self._probe_memo[tuple(raw_key)] = verdict

        self.report.replayed_records += 1
        self._tally(self.report.replayed_queries_by_component, body)
        if body.get("quarantined"):
            self.report.quarantine_skips.append(tuple(body["unit"]))
        if self._cursor == self._replay_limit:
            # The killed process stopped right after this record: restore
            # its substrate state before any fresh unit (or the end-of-run
            # accounting, if the journal covers the whole run).
            self._restore_state(body["state"])
        return ReplayedUnit(queries=body["queries"], probes=body["probes"])

    # ---------------------------------------------------------- fresh units
    def begin_unit(self, unit_key: Tuple[str, str, str], attribute,
                   sabotage: bool = True) -> UnitCapture:
        """Mark every counter a fresh unit's deltas are measured against.

        With supervision attached, this is also where the unit-fault
        saboteur fires (``sabotage=False`` suppresses it — used for
        quarantine-skip commits, which must not re-trip the very fault
        that got the unit quarantined).
        """
        if sabotage and self._unit_faults is not None:
            self._unit_faults.check(tuple(unit_key))
        return UnitCapture(
            unit_key=tuple(unit_key),
            engine_before=self._engine_count(),
            probes_before=self._probe_count(),
            acquired_before=len(attribute.acquired),
            validation_mark=(
                self._validation.mark() if self._validation is not None
                else (0, 0, 0)
            ),
            memo_mark=(
                len(self._probe_memo) if self._probe_memo is not None else 0
            ),
            backoff_before=self._client_backoff(),
        )

    def commit_unit(self, capture: UnitCapture, attribute, record,
                    skipped: bool = False, quarantined: bool = False) -> int:
        """Durably journal a completed fresh unit; then maybe die.

        The armed kill switch is checked *after* the append returns — the
        record is on disk before the simulated crash, which is exactly
        the write-ahead guarantee resume relies on. Supervision deadlines
        are checked after the kill switch for the same reason: a
        deadline kill with the record already durable loses nothing, and
        because every attempt replays the journaled prefix for free, each
        attempt commits at least one new unit before a deadline can fire
        again — deadlines preempt, they cannot livelock.
        """
        stores: Dict[str, Any] = {}
        if self._validation is not None:
            delta = self._validation.delta_since(capture.validation_mark)
            if any(delta.values()):
                stores["validation"] = delta
        memo_delta: List[List[Any]] = []
        if self._probe_memo is not None:
            memo_delta = [
                [list(key), verdict]
                for key, verdict in dict_tail(self._probe_memo,
                                              capture.memo_mark)
            ]
        body = {
            "unit": list(capture.unit_key),
            "skipped": skipped,
            "quarantined": quarantined,
            "added": list(attribute.acquired[capture.acquired_before:]),
            "record": {
                field_name: getattr(record, field_name)
                for field_name in RECORD_FIELDS
            },
            "queries": self._engine_count() - capture.engine_before,
            "probes": self._probe_count() - capture.probes_before,
            "stores": stores,
            "probe_memo": memo_delta,
            "state": self._snapshot_state(),
        }
        index = self.journal.append(body)
        self.report.fresh_records += 1
        self._tally(self.report.fresh_queries_by_component, body)
        if quarantined:
            self.report.quarantine_skips.append(capture.unit_key)
        if self._kill_switch is not None:
            self._kill_switch.check(index)
        self._check_deadlines(capture, body)
        return index

    def _check_deadlines(self, capture: UnitCapture,
                         body: Dict[str, Any]) -> None:
        """Charge the committed unit against its wall-clock budgets."""
        if self._unit_deadline is None and self._run_deadline is None:
            return
        unit_seconds = self._unit_seconds(body)
        unit_seconds += self._client_backoff() - capture.backoff_before
        self._fresh_seconds += unit_seconds
        if (self._unit_deadline is not None
                and unit_seconds > self._unit_deadline):
            raise DeadlineExceededError(
                f"unit {list(capture.unit_key)} spent {unit_seconds:.1f}s "
                f"(simulated) against a {self._unit_deadline:.1f}s unit "
                "deadline — preempting (journal durable, resume eligible)",
                scope="unit", seconds=unit_seconds,
                deadline=self._unit_deadline,
            )
        if (self._run_deadline is not None
                and self._fresh_seconds > self._run_deadline):
            raise DeadlineExceededError(
                f"run spent {self._fresh_seconds:.1f}s (simulated, this "
                f"attempt) against a {self._run_deadline:.1f}s run deadline "
                "— preempting (journal durable, resume eligible)",
                scope="run", seconds=self._fresh_seconds,
                deadline=self._run_deadline,
            )

    def _unit_seconds(self, body: Dict[str, Any]) -> float:
        """Simulated wall-clock of one unit, at the clock's nominal rates."""
        if self._clock is None:
            return 0.0
        return (body["queries"] * self._clock.search_query_seconds
                + body["probes"] * self._clock.deep_probe_seconds)

    # ------------------------------------------------------------ finishing
    def finalize(self) -> CheckpointReport:
        """Seal the report with the raw substrate counters."""
        self.report.engine_round_trips = self._engine_count()
        self.report.source_round_trips = self._probe_count()
        return self.report

    # ------------------------------------------------------------ internals
    def _client_backoff(self) -> float:
        if self._client is None:
            return 0.0
        return self._client.report.total_backoff_seconds

    def _engine_count(self) -> int:
        return self._engine.query_count if self._engine is not None else 0

    def _probe_count(self) -> int:
        return sum(s.probe_count for s in self._sources.values())

    def _tally(self, counter: Dict[str, int], body: Dict[str, Any]) -> None:
        phase = body["unit"][0]
        counter[phase] = counter.get(phase, 0) + record_round_trips(body)

    def _snapshot_state(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        if self._client is not None:
            state["client"] = self._client.state_payload()
        if self._validation is not None:
            state["cache_stats"] = self._validation.stats.state_payload()
        return state

    def _restore_state(self, state: Dict[str, Any]) -> None:
        client_state = state.get("client")
        if client_state is not None:
            if self._client is None:
                raise JournalMismatchError(
                    "journal carries resilience state but this run has no "
                    "resilience layer"
                )
            self._client.restore_state(client_state)
        cache_state = state.get("cache_stats")
        if cache_state is not None:
            if self._validation is None:
                raise JournalMismatchError(
                    "journal carries memo stats but this run has no "
                    "Surface memo"
                )
            self._validation.stats.restore_state(cache_state)


def open_session(config: CheckpointConfig, meta: Dict[str, Any],
                 kill_switch: Optional[KillSwitch] = None) -> CheckpointSession:
    """Create or reopen the journal for one run and wrap it in a session.

    On resume the on-disk meta must match the run's identity coordinates
    exactly — resuming a ``book`` journal into an ``airfare`` run, or a
    journal written with a different fault profile, is refused with the
    differing keys named.
    """
    if config.resume:
        journal = RunJournal.open(config.directory)
        if journal.meta != meta:
            differing = sorted(
                key
                for key in set(journal.meta) | set(meta)
                if journal.meta.get(key) != meta.get(key)
            )
            raise JournalMismatchError(
                f"journal at {config.directory} belongs to a different run "
                f"(differing keys: {', '.join(differing)})"
            )
        report = CheckpointReport(directory=config.directory, resumed=True)
    else:
        journal = RunJournal.create(config.directory, meta)
        report = CheckpointReport(directory=config.directory, resumed=False)
    return CheckpointSession(journal, report, kill_switch=kill_switch)
