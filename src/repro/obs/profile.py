"""The deterministic span profiler: where a run's time and work went.

The tracer records *what happened in which order*; this module folds that
tree into *attribution*: for every span path (``run;surface``, ``run;
attr_deep``, ...) the number of calls plus **self** and **cumulative**
simulated seconds, rolled up per phase and per component, joined with the
hot-path work counters (:mod:`repro.util.counters`) and the stopwatch's
per-account ledger. The result is the answer ROADMAP item 5 asks for —
"profile the inner loops" — in a form a CI gate can diff.

The profile has two strictly separated sections:

``deterministic``
    Everything derived from the :class:`~repro.util.clock.SimulatedClock`,
    the trace structure, the work counters and the metrics registry. Two
    runs with equal seed and configuration produce byte-identical
    deterministic sections; its CRC (``digest``) is therefore a run
    fingerprint a bench envelope can embed.
``wall``
    Host wall-clock attribution per span path (from the span's
    ``perf_counter`` bounds, which never enter the trace export). Advisory
    by nature: it varies machine to machine and run to run, which is
    exactly why it lives outside the digest — see DESIGN.md §16.

:func:`collapsed_stacks` renders the deterministic section as
Brendan-Gregg collapsed-stack lines (``run;surface 123456`` — self time
in integer simulated microseconds), directly consumable by
``flamegraph.pl`` or speedscope.

Profiling is strictly read-only: enabling it changes no export byte (the
metamorphic suite proves this), and the *profile-time-conservation* law
in :mod:`repro.obs.invariants` audits that the attribution itself is
sound — every span closed, self times non-negative, and children never
claiming more time than their parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import Span, Tracer
from repro.util.atomicio import atomic_write_json, atomic_write_text
from repro.util.envelope import record_crc

__all__ = [
    "PROFILE_FORMAT",
    "PathStats",
    "aggregate_spans",
    "span_time_violations",
    "build_profile",
    "collapsed_stacks",
    "write_profile",
    "hottest_paths",
]

#: Schema version of profile exports.
PROFILE_FORMAT = 1

#: Self-time sums may differ from the parent's cumulative time by float
#: accumulation error only; anything beyond this is a real leak.
TIME_EPSILON = 1e-9


@dataclass
class PathStats:
    """Aggregated timing of every span sharing one root-to-node path."""

    path: str
    count: int = 0
    #: simulated seconds including children
    t_cum: float = 0.0
    #: simulated seconds excluding children
    t_self: float = 0.0
    #: host wall seconds including children (advisory)
    wall_cum: float = 0.0
    #: host wall seconds excluding children (advisory)
    wall_self: float = 0.0
    events: int = 0


def _walk(span: Span, prefix: str, table: Dict[str, PathStats]) -> None:
    path = f"{prefix};{span.name}" if prefix else span.name
    stats = table.get(path)
    if stats is None:
        stats = table[path] = PathStats(path)
    if span.t_end is None or span.seq_end is None:
        raise ValueError(f"unclosed span {path!r}: profile a finished run")
    t_cum = span.t_end - span.t_start
    wall_cum = (span.wall_end or span.wall_start) - span.wall_start
    child_t = 0.0
    child_wall = 0.0
    for child in span.children:
        if child.t_end is None:
            raise ValueError(
                f"unclosed span {path};{child.name!r}: profile a finished run"
            )
        child_t += child.t_end - child.t_start
        child_wall += (child.wall_end or child.wall_start) - child.wall_start
        _walk(child, path, table)
    stats.count += 1
    stats.t_cum += t_cum
    stats.t_self += t_cum - child_t
    stats.wall_cum += wall_cum
    stats.wall_self += wall_cum - child_wall
    stats.events += len(span.events)


def aggregate_spans(tracer: Tracer) -> Dict[str, PathStats]:
    """Fold the span tree into per-path self/cumulative attribution.

    Paths are ``;``-joined span names from the root down — the collapsed
    stack identity. Self time is cumulative time minus the children's
    cumulative time; summed over the whole table, self times reproduce
    the roots' cumulative time exactly (the conservation law).
    """
    table: Dict[str, PathStats] = {}
    for root in tracer.roots:
        _walk(root, "", table)
    return table


def span_time_violations(tracer: Tracer) -> List[str]:
    """The profile-time-conservation audit, as violation strings.

    Checks (all in simulated seconds, to :data:`TIME_EPSILON`):

    - every span is closed and spans non-negative time;
    - no span's children cumulatively exceed it (self time ≥ 0);
    - total self time equals the roots' total cumulative time.

    Shared by :func:`build_profile` callers and the
    :class:`~repro.obs.invariants.InvariantChecker` law so the CLI and
    the test oracle can never disagree.
    """
    violations: List[str] = []
    for span in tracer.iter_spans():
        if not span.closed or span.t_end is None:
            violations.append(
                f"profile-time-conservation: span {span.name!r} never closed"
            )
    if violations:
        return violations
    try:
        table = aggregate_spans(tracer)
    except ValueError as exc:  # pragma: no cover - guarded above
        return [f"profile-time-conservation: {exc}"]
    for stats in table.values():
        if stats.t_cum < -TIME_EPSILON:
            violations.append(
                f"profile-time-conservation: span path {stats.path!r} "
                f"spans negative simulated time ({stats.t_cum})"
            )
        if stats.t_self < -TIME_EPSILON:
            violations.append(
                f"profile-time-conservation: span path {stats.path!r} "
                f"children claim more time than the parent "
                f"(self {stats.t_self})"
            )
    total_self = sum(stats.t_self for stats in table.values())
    total_roots = sum(
        (root.t_end or 0.0) - root.t_start for root in tracer.roots
    )
    if abs(total_self - total_roots) > max(
        TIME_EPSILON, TIME_EPSILON * abs(total_roots)
    ):
        violations.append(
            f"profile-time-conservation: self times sum to {total_self} "
            f"but root spans cover {total_roots}"
        )
    return violations


def _phase_rollup(tracer: Tracer) -> Dict[str, Dict[str, Any]]:
    """Per-phase-name count and self/cumulative simulated seconds.

    Aggregates every span carrying ``kind="phase"`` by name, whatever its
    depth — two phases sharing a name sum, they do not overwrite.
    """
    phases: Dict[str, Dict[str, Any]] = {}
    for span in tracer.iter_spans():
        if span.attrs.get("kind") != "phase" or span.t_end is None:
            continue
        t_cum = span.t_end - span.t_start
        child_t = sum(
            (child.t_end or child.t_start) - child.t_start
            for child in span.children
        )
        row = phases.setdefault(
            span.name, {"count": 0, "t_self": 0.0, "t_cum": 0.0}
        )
        row["count"] += 1
        row["t_self"] += t_cum - child_t
        row["t_cum"] += t_cum
    return {name: phases[name] for name in sorted(phases)}


def _component_rollup(metrics) -> Dict[str, Dict[str, int]]:
    """Per-component observed call and round-trip totals."""
    components: Dict[str, Dict[str, int]] = {}
    for labels in metrics.counter_labels("web.calls"):
        component = labels.get("component", "?")
        if component not in components:
            components[component] = {
                "calls": metrics.sum_counters(
                    "web.calls", component=component
                ),
                "round_trips": metrics.sum_counters(
                    "web.round_trips", component=component
                ),
            }
    return {name: components[name] for name in sorted(components)}


def build_profile(result) -> Dict[str, Any]:
    """Build the full profile dict for a finished ``WebIQRunResult``.

    Requires the run to have executed with observability attached
    (``result.obs``); work counters appear when the run profiled
    (``ObsConfig(profile=True)``), an empty dict otherwise, so the
    deterministic digest distinguishes the two explicitly.
    """
    obs = result.obs
    if obs is None:
        raise ValueError(
            "cannot profile a run without observability: pass "
            "WebIQConfig(obs=ObsConfig(profile=True))"
        )
    table = aggregate_spans(obs.tracer)
    ordered = [table[path] for path in sorted(table)]
    deterministic: Dict[str, Any] = {
        "domain": result.domain,
        "seed": result.seed,
        "spans": [
            {
                "path": stats.path,
                "count": stats.count,
                "t_self": stats.t_self,
                "t_cum": stats.t_cum,
                "events": stats.events,
            }
            for stats in ordered
        ],
        "phases": _phase_rollup(obs.tracer),
        "components": _component_rollup(obs.metrics),
        "counters": (
            obs.counters.as_dict() if obs.counters is not None else {}
        ),
        "clock": {
            "seconds_by_account": dict(
                sorted(result.stopwatch.seconds_by_account.items())
            ),
            "queries_by_account": dict(
                sorted(result.stopwatch.queries_by_account.items())
            ),
            "total_seconds": result.stopwatch.total_seconds,
        },
    }
    digest = record_crc(deterministic)

    wall: Dict[str, Any] = {
        "spans": [
            {
                "path": stats.path,
                "wall_self": stats.wall_self,
                "wall_cum": stats.wall_cum,
            }
            for stats in ordered
        ],
    }
    return {
        "format": PROFILE_FORMAT,
        "digest": digest,
        "deterministic": deterministic,
        "wall": wall,
    }


def collapsed_stacks(profile: Dict[str, Any]) -> str:
    """Render the deterministic section as collapsed-stack lines.

    One line per span path: ``run;surface 123456`` where the value is the
    path's *self* time in integer simulated microseconds — the exact
    input format of ``flamegraph.pl``. Deterministic: same run, same
    bytes.
    """
    lines = []
    for row in profile["deterministic"]["spans"]:
        micros = int(round(max(row["t_self"], 0.0) * 1_000_000))
        lines.append(f"{row['path']} {micros}")
    return "\n".join(lines) + "\n"


def write_profile(path: str, profile: Dict[str, Any]) -> str:
    """Persist the profile JSON plus ``<path>.folded`` collapsed stacks.

    Returns the folded-file path. Both writes are atomic and sorted, so
    artifacts are byte-stable for equal runs.
    """
    atomic_write_json(path, profile)
    folded = path + ".folded"
    atomic_write_text(folded, collapsed_stacks(profile))
    return folded


def hottest_paths(
    profile: Dict[str, Any], limit: int = 5
) -> List[Dict[str, Any]]:
    """The ``limit`` span paths with the largest deterministic self time
    (ties break on path for stable output)."""
    rows = sorted(
        profile["deterministic"]["spans"],
        key=lambda row: (-row["t_self"], row["path"]),
    )
    return rows[:limit]
