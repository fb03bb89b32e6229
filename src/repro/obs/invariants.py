"""Cross-layer conservation laws over a finished pipeline run.

The pipeline now has four accounting systems that observe the same
underlying traffic from different layers:

- the :class:`~repro.util.clock.SimulatedClock` stopwatch (per-account
  seconds *and* round-trip counts, charged per phase);
- the resilience layer's :class:`~repro.resilience.DegradationReport`
  (faults, retries, give-ups, breaker trips, budget spend);
- the run memo's :class:`~repro.perf.CacheStats` (hits and misses, per
  map);
- the :mod:`repro.obs` trace (one event per call of one observer per
  substrate, directly below the memo, with measured round-trip deltas,
  and one event per retry-loop decision).

None of them is derived from another: the stopwatch differences substrate
counters per phase, the degradation report counts retry-loop decisions,
the memo counts its lookups, and the observed wrappers count individual
calls. When the stack is wired correctly they must agree exactly — every
memo miss is one observed engine call, every observed round trip is
charged to the stopwatch and to the component's budget, every raised fault ends in a retry, a give-up or a
breaker trip. :class:`InvariantChecker` asserts those identities, turning
any benchmark or test run into a whole-stack correctness check: a single
missed or double-counted call anywhere breaks a conservation law.

Checks degrade gracefully with the run's configuration: each law is only
evaluated when the layers it relates were active, and the report lists
which checks ran so a suite can assert it exercised what it meant to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.obs.instrument import DEFAULT_COMPONENT, Observability
from repro.obs.provenance import PRUNE_STAGES, ProvenanceRecorder

__all__ = ["InvariantViolation", "InvariantReport", "InvariantChecker", "check_run"]

#: The pipeline components with their own budgets and stopwatch accounts.
COMPONENTS = ("surface", "attr_surface", "attr_deep")

#: Fault kind whose injection does not raise (and so never enters the
#: retry loop): the payload is corrupted but the call "succeeds".
_SILENT_FAULT_KIND = "garbled"


@dataclass(frozen=True)
class InvariantViolation:
    """One broken conservation law."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message}"


@dataclass
class InvariantReport:
    """Which laws were evaluated and which were broken."""

    checked: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_for(self, invariant: str) -> List[InvariantViolation]:
        return [v for v in self.violations if v.invariant == invariant]

    def summary(self) -> str:
        status = "all hold" if self.ok else f"{len(self.violations)} VIOLATED"
        line = f"invariants: {len(self.checked)} checked, {status}"
        for violation in self.violations:
            line += f"\n  !! {violation}"
        return line


class InvariantChecker:
    """Audits a :class:`~repro.core.pipeline.WebIQRunResult`.

    Violation messages carry a ``[domain=... seed=...]`` prefix naming
    the run that broke the law, so a failure inside a multi-domain,
    multi-seed sweep is attributable without re-running the sweep.
    """

    def __init__(self) -> None:
        self._context = ""

    def check(self, result) -> InvariantReport:
        """Evaluate every applicable conservation law on ``result``."""
        report = InvariantReport()
        obs: Optional[Observability] = getattr(result, "obs", None)
        cache = result.cache
        degradation = result.degradation
        domain = getattr(result, "domain", None) or "?"
        seed = getattr(result, "seed", None)
        self._context = (
            f"[domain={domain} seed={'?' if seed is None else seed}] "
        )

        if obs is not None:
            self._check_trace_well_formed(report, obs)
            self._check_phase_spans(report, obs, result)
            self._check_profile_time_conservation(report, obs)
        if cache is not None:
            self._check_cache_kind_accounting(report, cache)
        if obs is not None and cache is not None:
            self._check_cache_entry_conservation(report, obs, cache)
        if obs is not None and result.acquisition is not None:
            self._check_round_trip_conservation(report, obs, result)
        if result.acquisition is not None:
            self._check_stopwatch_accounting(report, result)
        if degradation is not None:
            self._check_fault_fate_conservation(report, degradation)
            self._check_budget_conservation(report, result, obs)
        if obs is not None and degradation is not None:
            self._check_retry_conservation(report, obs, degradation)
        provenance = obs.provenance if obs is not None else None
        if provenance is not None:
            self._check_lineage_conservation(report, provenance, result)
            self._check_prune_conservation(report, provenance)
            self._check_match_conservation(report, provenance, result)
        checkpoint = getattr(result, "checkpoint", None)
        if checkpoint is not None and result.acquisition is not None:
            self._check_checkpoint_spend_conservation(report, checkpoint,
                                                      result)
            self._check_checkpoint_replay_isolation(report, checkpoint)
        supervisor = getattr(result, "supervisor", None)
        if supervisor is not None and checkpoint is not None:
            self._check_restart_spend_conservation(report, supervisor,
                                                   checkpoint)
            if result.acquisition is not None:
                self._check_quarantine_accounting(report, supervisor,
                                                  checkpoint, result)
        registry = getattr(result, "registry", None)
        if registry is not None:
            self._check_registry_blocking_conservation(report, registry)
            self._check_registry_batch_equivalence(report, registry, result)
        return report

    # ------------------------------------------------------------ the laws
    def _check_trace_well_formed(self, report: InvariantReport,
                                 obs: Observability) -> None:
        name = "trace-well-formed"
        report.checked.append(name)
        if not obs.tracer.all_closed:
            open_spans = [s.name for s in obs.tracer.iter_spans()
                          if not s.closed]
            self._fail(report, name, f"unclosed spans: {open_spans}")
            return
        roots = [span.name for span in obs.tracer.roots]
        if roots != ["run"]:
            self._fail(report, name, f"expected a single 'run' root, got {roots}")
        seqs = []
        for span in obs.tracer.iter_spans():
            seqs.extend([span.seq_start, span.seq_end])
            seqs.extend(event.seq for event in span.events)
        seqs.extend(event.seq for event in obs.tracer.orphan_events)
        if sorted(seqs) != list(range(len(seqs))):
            self._fail(report, name, "sequence numbers are not gap-free")

    def _check_phase_spans(self, report: InvariantReport, obs: Observability,
                           result) -> None:
        name = "phase-spans"
        report.checked.append(name)
        config = result.config
        expected = []
        if result.acquisition is not None:
            if config.enable_surface:
                expected.append("surface")
            if config.enable_attr_deep:
                expected.append("attr_deep")
            if config.enable_attr_surface:
                expected.append("attr_surface")
        expected.append("matching")
        for phase in expected:
            spans = list(obs.tracer.iter_spans(phase))
            if len(spans) != 1:
                self._fail(
                    report, name,
                    f"expected exactly one '{phase}' span, found {len(spans)}",
                )

    def _check_profile_time_conservation(self, report: InvariantReport,
                                         obs: Observability) -> None:
        """The span tree's time attribution is sound: every span closed,
        no span's children cumulatively exceed it (self time ≥ 0 within
        float epsilon), and summed self times reproduce the root spans'
        cumulative time exactly — so the profiler's flame graph neither
        invents nor loses a single simulated second."""
        name = "profile-time-conservation"
        report.checked.append(name)
        # Imported here: profile sits above instrument in the module
        # graph, and the checker is imported by the obs package root.
        from repro.obs.profile import span_time_violations

        for message in span_time_violations(obs.tracer):
            self._fail(
                report, name,
                message.replace("profile-time-conservation: ", ""),
            )

    def _check_cache_kind_accounting(self, report: InvariantReport,
                                     cache) -> None:
        name = "cache-kind-accounting"
        report.checked.append(name)
        self._equal(
            report, name, sum(cache.hits_by_kind.values()), cache.hits,
            "memo hits by kind", "memo hits",
        )
        self._equal(
            report, name, sum(cache.misses_by_kind.values()), cache.misses,
            "memo misses by kind", "memo misses",
        )

    def _check_cache_entry_conservation(self, report: InvariantReport,
                                        obs: Observability, cache) -> None:
        name = "cache-entry-conservation"
        report.checked.append(name)
        self._equal(
            report, name,
            obs.tracer.count_events("web_call", substrate="engine"),
            cache.misses,
            "observed engine calls", "memo misses",
        )

    def _check_round_trip_conservation(self, report: InvariantReport,
                                       obs: Observability, result) -> None:
        name = "round-trip-conservation"
        report.checked.append(name)
        stopwatch = result.stopwatch
        for component, substrate in (
            ("surface", "engine"),
            ("attr_surface", "engine"),
            ("attr_deep", "source"),
        ):
            traced = obs.tracer.sum_event_attr(
                "round_trips", "web_call",
                substrate=substrate, component=component,
            )
            self._equal(
                report, name, traced, stopwatch.queries(component),
                f"traced {component} round trips",
                f"stopwatch queries[{component}]",
            )
        stray = obs.tracer.sum_event_attr(
            "round_trips", "web_call", component=DEFAULT_COMPONENT,
        )
        if stray:
            self._fail(
                report, name,
                f"{stray} observed round trips outside any component scope",
            )

    def _check_stopwatch_accounting(self, report: InvariantReport,
                                    result) -> None:
        name = "stopwatch-acquisition-accounting"
        report.checked.append(name)
        acquisition = result.acquisition
        stopwatch = result.stopwatch
        for component, reported in (
            ("surface", acquisition.surface_queries),
            ("attr_surface", acquisition.attr_surface_queries),
            ("attr_deep", acquisition.attr_deep_probes),
        ):
            self._equal(
                report, name, stopwatch.queries(component), reported,
                f"stopwatch queries[{component}]",
                f"acquisition report {component} count",
            )

    def _check_fault_fate_conservation(self, report: InvariantReport,
                                       degradation) -> None:
        name = "fault-fate-conservation"
        report.checked.append(name)
        raised = degradation.total_faults - degradation.faults_by_kind.get(
            _SILENT_FAULT_KIND, 0)
        caught = sum(degradation.faults_by_component.values())
        self._equal(
            report, name, raised, caught,
            "injected raising faults", "faults caught in the retry loop",
        )
        fates = (
            degradation.total_retries
            + sum(degradation.giveups_by_component.values())
            + sum(degradation.breaker_trips.values())
        )
        self._equal(
            report, name, caught, fates,
            "faults caught in the retry loop",
            "retries + give-ups + breaker trips",
        )

    def _check_budget_conservation(self, report: InvariantReport, result,
                                   obs: Optional[Observability]) -> None:
        name = "budget-conservation"
        report.checked.append(name)
        degradation = result.degradation
        stopwatch = result.stopwatch
        spent = degradation.budget_spent_by_component
        components = sorted(
            set(spent)
            | {c for c in COMPONENTS if stopwatch.queries(c) > 0}
        )
        for component in components:
            self._equal(
                report, name, spent.get(component, 0),
                stopwatch.queries(component),
                f"budget spend[{component}]",
                f"stopwatch queries[{component}]",
            )
        if obs is not None:
            traced_probes = obs.tracer.sum_event_attr(
                "round_trips", "web_call",
                substrate="source", component="attr_deep",
            )
            self._equal(
                report, name, traced_probes, spent.get("attr_deep", 0),
                "traced probes", "attr_deep budget spend",
            )

    def _check_retry_conservation(self, report: InvariantReport,
                                  obs: Observability, degradation) -> None:
        name = "retry-conservation"
        report.checked.append(name)
        self._equal(
            report, name, obs.tracer.count_events("retry"),
            degradation.total_retries,
            "traced retry events", "degradation retries",
        )
        self._equal(
            report, name, obs.tracer.count_events("fault"),
            sum(degradation.faults_by_component.values()),
            "traced fault events", "degradation faults caught",
        )
        self._equal(
            report, name, obs.tracer.count_events("giveup"),
            sum(degradation.giveups_by_component.values()),
            "traced give-up events", "degradation give-ups",
        )
        self._equal(
            report, name, obs.tracer.count_events("breaker_trip"),
            sum(degradation.breaker_trips.values()),
            "traced breaker trips", "degradation breaker trips",
        )

    def _check_lineage_conservation(self, report: InvariantReport,
                                    provenance: ProvenanceRecorder,
                                    result) -> None:
        """Every acquired instance has exactly one lineage record."""
        name = "provenance-lineage-conservation"
        report.checked.append(name)
        acquisition = result.acquisition
        acquired_total = (
            sum(r.n_after_borrow for r in acquisition.records)
            if acquisition is not None
            else 0
        )
        recorded = len(provenance.lineage) + provenance.dropped.get(
            "lineage", 0)
        self._equal(
            report, name, recorded, acquired_total,
            "lineage records (incl. dropped)", "instances acquired",
        )
        if provenance.dropped.get("lineage", 0) or acquisition is None:
            return
        by_key = Counter(record.key for record in provenance.lineage)
        for record in acquisition.records:
            key = (record.interface_id, record.attribute)
            self._equal(
                report, name, by_key.get(key, 0), record.n_after_borrow,
                f"lineage records for {key}",
                f"acquired instances for {key}",
            )

    def _check_prune_conservation(self, report: InvariantReport,
                                  provenance: ProvenanceRecorder) -> None:
        """Every discovered candidate is either kept or pruned exactly once."""
        name = "provenance-prune-conservation"
        report.checked.append(name)
        for event in provenance.prunes:
            if event.stage not in PRUNE_STAGES:
                self._fail(
                    report, name,
                    f"unknown prune stage {event.stage!r} for "
                    f"{(event.interface_id, event.attribute)}",
                )
        if provenance.dropped.get("prunes", 0) or provenance.dropped.get(
            "discoveries", 0
        ):
            return
        prunes_by_key = Counter(
            (event.interface_id, event.attribute)
            for event in provenance.prunes
        )
        for summary in provenance.discoveries:
            key = (summary.interface_id, summary.attribute)
            self._equal(
                report, name, prunes_by_key.get(key, 0),
                summary.discovered - summary.kept,
                f"prune events for {key}",
                f"discovered - kept for {key}",
            )

    def _check_match_conservation(self, report: InvariantReport,
                                  provenance: ProvenanceRecorder,
                                  result) -> None:
        """Explanations cover every pairwise evaluation and recompute
        float-exactly; committed merges beat the threshold."""
        name = "provenance-match-conservation"
        report.checked.append(name)
        match_result = result.match_result
        recorded = len(provenance.explanations) + provenance.dropped.get(
            "explanations", 0)
        self._equal(
            report, name, recorded, match_result.similarity_evaluations,
            "match explanations (incl. dropped)",
            "pairwise similarity evaluations",
        )
        for e in provenance.explanations:
            blend = e.alpha * e.label_sim + e.beta * e.dom_sim
            if blend != e.sim:
                self._fail(
                    report, name,
                    f"explanation for ({e.a}, {e.b}) does not recompute: "
                    f"{e.alpha}*{e.label_sim} + {e.beta}*{e.dom_sim} = "
                    f"{blend} != {e.sim}",
                )
        for merge in provenance.merges:
            if not merge.linkage_value > merge.threshold:
                self._fail(
                    report, name,
                    f"merge step {merge.step} committed at linkage "
                    f"{merge.linkage_value} <= threshold {merge.threshold}",
                )

    def _check_checkpoint_spend_conservation(self, report: InvariantReport,
                                             checkpoint, result) -> None:
        """Replayed + fresh spend per component equals the stopwatch's.

        The checkpoint layer accounts each unit's round trips exactly
        once — either from the journal (replayed) or from live substrate
        counters (fresh). Their per-component sum must land on the same
        totals the stopwatch charged; a gap means a unit was journaled
        with the wrong cost or double-consumed on replay.
        """
        name = "checkpoint-spend-conservation"
        report.checked.append(name)
        stopwatch = result.stopwatch
        for component in COMPONENTS:
            replayed = checkpoint.replayed_queries_by_component.get(
                component, 0)
            fresh = checkpoint.fresh_queries_by_component.get(component, 0)
            self._equal(
                report, name, replayed + fresh, stopwatch.queries(component),
                f"checkpoint replayed+fresh[{component}]",
                f"stopwatch queries[{component}]",
            )

    def _check_checkpoint_replay_isolation(self, report: InvariantReport,
                                           checkpoint) -> None:
        """Replayed units consume zero Web round trips.

        The raw substrate counters see only what *this* process sent over
        the wire — which must be exactly the fresh units' spend. Any
        excess means a replayed unit leaked a real engine query or source
        probe, breaking the zero-respend guarantee of resume.
        """
        name = "checkpoint-replay-isolation"
        report.checked.append(name)
        fresh = checkpoint.fresh_queries_by_component
        self._equal(
            report, name, checkpoint.engine_round_trips,
            fresh.get("surface", 0) + fresh.get("attr_surface", 0),
            "raw engine round trips", "fresh surface + attr_surface spend",
        )
        self._equal(
            report, name, checkpoint.source_round_trips,
            fresh.get("attr_deep", 0),
            "raw source round trips", "fresh attr_deep spend",
        )

    def _check_restart_spend_conservation(self, report: InvariantReport,
                                          supervisor, checkpoint) -> None:
        """Every round trip of every attempt is accounted exactly once.

        The supervisor's raw spend across all attempts must decompose
        into the final run's journal (replayed + fresh), the spend failed
        attempts paid but never journaled (``wasted_round_trips`` — lost
        to the unit in flight), and journaled spend that salvage/chaos
        trimmed back out (``salvage_trimmed_round_trips``, re-paid by a
        later attempt and so counted on both sides). A gap means an
        attempt's traffic escaped the ledger — restarts would be
        silently re-billing (or comping) Web round trips.
        """
        name = "restart-spend-conservation"
        report.checked.append(name)
        self._equal(
            report, name,
            supervisor.total_round_trips,
            checkpoint.replayed_round_trips + checkpoint.fresh_round_trips
            + supervisor.wasted_round_trips
            + supervisor.salvage_trimmed_round_trips,
            "raw round trips across all attempts",
            "journaled (replayed+fresh) + wasted + salvage-trimmed",
        )

    def _check_quarantine_accounting(self, report: InvariantReport,
                                     supervisor, checkpoint, result) -> None:
        """Attempted units == completed + quarantined, with agreement on
        *which* units: the journal's quarantine skips must be exactly the
        units the supervisor reports as quarantined, and together with
        the completed units they must cover every unit the acquisition
        policy attempts for this configuration — a quarantined unit may
        be skipped, never silently dropped from the run's shape.
        """
        name = "quarantine-accounting"
        report.checked.append(name)
        config = result.config
        attempted = 0
        for record in result.acquisition.records:
            if record.had_instances:
                attempted += 1 if config.enable_attr_surface else 0
            else:
                attempted += 1 if config.enable_surface else 0
                attempted += 1 if config.enable_attr_deep else 0
        self._equal(
            report, name, checkpoint.boundaries, attempted,
            "journal boundaries", "attempted units (from acquisition shape)",
        )
        skipped = sorted(tuple(unit) for unit in checkpoint.quarantine_skips)
        reported = sorted(tuple(q.unit) for q in supervisor.quarantined_units)
        if skipped != reported:
            self._fail(
                report, name,
                f"journal quarantine skips {skipped} != supervisor-reported "
                f"quarantined units {reported}",
            )
        completed = checkpoint.boundaries - len(checkpoint.quarantine_skips)
        self._equal(
            report, name, completed + len(reported), attempted,
            "completed + quarantined units", "attempted units",
        )

    # ------------------------------------------------------------ plumbing
    def _check_registry_blocking_conservation(self, report: InvariantReport,
                                              registry) -> None:
        """Every cross pair an assimilation was accountable for was either
        fully evaluated or charged to the blocking ledger — per add,
        ``evaluated + blocked == new_views · existing_views`` — and the
        registry's totals are exactly the ledger's column sums."""
        name = "registry-blocking-conservation"
        report.checked.append(name)
        for record in registry.adds:
            self._equal(
                report, name,
                record.evaluated + record.blocked,
                record.new_views * record.existing_views,
                f"add[{record.interface_id}] evaluated+blocked",
                "new_views*existing_views",
            )
            if record.evaluated < 0 or record.blocked < 0:
                self._fail(
                    report, name,
                    f"add[{record.interface_id}] has a negative ledger "
                    f"line (evaluated={record.evaluated}, "
                    f"blocked={record.blocked})",
                )
        self._equal(
            report, name,
            registry.evaluated + registry.blocked,
            registry.pairs_considered,
            "registry evaluated+blocked", "registry pairs_considered",
        )
        expected_views = sum(
            record.new_views for record in registry.adds)
        self._equal(
            report, name, registry.n_views, expected_views,
            "registry views", "sum of assimilated views",
        )

    def _check_registry_batch_equivalence(self, report: InvariantReport,
                                          registry, result) -> None:
        """The registry's induced matching (built incrementally, under
        blocking) must equal the run's batch IceQ clusters exactly —
        same clusters, same order, same members."""
        name = "registry-batch-equivalence"
        report.checked.append(name)
        batch = tuple(
            tuple(sorted(cluster.keys))
            for cluster in result.match_result.clusters
        )
        if registry.induced != batch:
            induced_only = set(registry.induced) - set(batch)
            batch_only = set(batch) - set(registry.induced)
            self._fail(
                report, name,
                f"registry induced matching diverged from batch IceQ: "
                f"{len(induced_only)} cluster(s) only in registry, "
                f"{len(batch_only)} only in batch "
                f"(first registry-only: "
                f"{sorted(induced_only)[:1]!r}, first batch-only: "
                f"{sorted(batch_only)[:1]!r})",
            )
        self._equal(
            report, name, registry.n_entries, len(batch),
            "registry entries", "batch clusters",
        )

    def _fail(self, report: InvariantReport, invariant: str,
              message: str) -> None:
        report.violations.append(
            InvariantViolation(invariant, self._context + message)
        )

    def _equal(self, report: InvariantReport, invariant: str,
               actual: Any, expected: Any,
               actual_label: str, expected_label: str) -> None:
        if actual != expected:
            self._fail(
                report, invariant,
                f"{actual_label} ({actual}) != {expected_label} ({expected})",
            )


def check_run(result) -> InvariantReport:
    """Convenience wrapper: audit one run result."""
    return InvariantChecker().check(result)
