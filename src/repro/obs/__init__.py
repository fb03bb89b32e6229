"""Run-trace observability: tracer, metrics, and the invariant oracle.

``repro.obs`` watches a pipeline run from inside the Web stack and turns
what it sees into three artifacts:

- a deterministic **trace** (:class:`~repro.obs.trace.Tracer`) — phase
  spans and per-call events timestamped from the run's simulated clock;
- a **metrics registry** (:class:`~repro.obs.metrics.MetricsRegistry`) —
  labelled counters/gauges/histograms over calls, round trips and
  retries;
- an **invariant report**
  (:class:`~repro.obs.invariants.InvariantChecker`) — cross-layer
  conservation laws relating the trace and metrics to the stopwatch,
  degradation and memo accounting, making every run a correctness test
  of the whole stack;
- a **decision provenance** record
  (:class:`~repro.obs.provenance.ProvenanceRecorder`) — the full lineage
  of every acquired instance and an explanation of every match decision,
  digestible into a :class:`~repro.obs.report.RunReport` and diffable
  across runs with :func:`~repro.obs.report.diff_runs`;
- a **span profile** (:mod:`repro.obs.profile`) — self/cumulative time
  attribution per span path plus hot-path work counters, split into a
  deterministic digestible section and an advisory wall-clock section,
  exportable as collapsed stacks for flamegraph tooling. Enable the work
  counters with ``ObsConfig(profile=True)``.

Attach an :class:`ObsConfig` to ``WebIQConfig.obs`` to enable; the
default (``None``) leaves the pipeline bit-identical to an uninstrumented
run.
"""

from repro.obs.instrument import (
    Observability,
    ObsConfig,
    ObservedDeepWebSource,
    ObservedSearchEngine,
)
from repro.obs.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    check_run,
)
from repro.obs.metrics import (
    HISTOGRAM_SAMPLE_CAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PROFILE_FORMAT,
    PathStats,
    aggregate_spans,
    build_profile,
    collapsed_stacks,
    hottest_paths,
    span_time_violations,
    write_profile,
)
from repro.obs.provenance import (
    DEFAULT_PROVENANCE_CAPACITY,
    DiscoverySummary,
    InstanceLineage,
    MatchExplanation,
    MergeStep,
    ProbeVerdict,
    ProvenanceRecorder,
    PruneEvent,
    ThresholdSearchRecord,
    ValidationEvidence,
)
from repro.obs.report import (
    NO_PROVENANCE_DIVERGENCE,
    DomainReport,
    Drift,
    HardDecision,
    RunDiff,
    RunReport,
    build_run_report,
    diff_runs,
)
from repro.obs.trace import Span, TraceEvent, Tracer

__all__ = [
    "ObsConfig",
    "Observability",
    "ObservedSearchEngine",
    "ObservedDeepWebSource",
    "Tracer",
    "Span",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_SAMPLE_CAP",
    "PROFILE_FORMAT",
    "PathStats",
    "aggregate_spans",
    "build_profile",
    "collapsed_stacks",
    "hottest_paths",
    "span_time_violations",
    "write_profile",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "check_run",
    "DEFAULT_PROVENANCE_CAPACITY",
    "ProvenanceRecorder",
    "InstanceLineage",
    "PruneEvent",
    "DiscoverySummary",
    "MatchExplanation",
    "MergeStep",
    "ProbeVerdict",
    "ThresholdSearchRecord",
    "ValidationEvidence",
    "RunReport",
    "DomainReport",
    "HardDecision",
    "build_run_report",
    "RunDiff",
    "Drift",
    "diff_runs",
    "NO_PROVENANCE_DIVERGENCE",
]
