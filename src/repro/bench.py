"""Versioned benchmark envelopes and the bench regression gate.

Every ``benchmarks/test_*_sweep.py`` historically dumped a bare metrics
dict to ``BENCH_*.json`` — no schema, no integrity guard, no environment
metadata, no tolerance declarations, and therefore nothing a CI gate
could compare. This module gives benchmark artifacts the same discipline
the journal and registry stores already have:

- an **envelope** ``{"format": N, "crc": <crc32>, "body": {...}}`` sealed
  and verified by the same codec as the journal and registry stores
  (:mod:`repro.util.envelope`), so a torn or hand-edited artifact is
  detected on load;
- a **body schema**: benchmark name, a *workload fingerprint* (the knobs
  that define what was measured — domains, interface counts, seeds),
  the measured ``metrics``, per-metric **tolerance declarations**, an
  ``env`` block (python/platform), and optionally the profiler digest of
  the run that produced the numbers plus a free-form ``detail`` payload
  (per-domain tables, sweep rows);
- a **differ** :func:`diff_benches` that classifies per-metric drift
  against the declared tolerances and drives ``repro bench diff``
  (exit 1 on regression, mirroring the run ``diff`` contract; exit 2
  when the two artifacts do not describe the same workload).

Tolerance declarations live *in the baseline artifact*, next to the
numbers they guard, so refreshing a baseline re-declares its contract in
one place. Each is ``{"rel": <float>, "direction": <str>}`` where
direction is one of:

``lower_is_better``
    counts, durations, round trips — exceeding baseline by more than
    ``rel`` is a regression; undercutting it is an improvement.
``higher_is_better``
    F1, hit rates, speedups, reductions — mirrored.
``two_sided``
    determinism guards — any drift beyond ``rel`` regresses (use
    ``rel: 0.0`` for values that must be bit-equal).
``info``
    recorded, compared, reported — but never gates.

Deterministic metrics (query counts, F1, reductions) should declare
tight bands (``rel`` ≈ 0.02 or 0.0); wall-clock metrics of gated sweeps
are ``info``, so the gate is trustworthy on loaded CI runners — wall time
is gated by alternating base/candidate runs on one runner
(``tools/perf_ab.py``), and a real substrate slowdown shows up first in
the deterministic work counters.
"""

from __future__ import annotations

import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.util.atomicio import atomic_write_json
from repro.util.envelope import envelope, read_sealed, seal
from repro.util.errors import ReproError

__all__ = [
    "BENCH_FORMAT",
    "BenchArtifactError",
    "BenchWorkloadMismatch",
    "MetricDrift",
    "BenchDiff",
    "bench_environment",
    "make_envelope",
    "write_bench",
    "load_bench",
    "diff_benches",
]

#: Schema version of bench envelopes.
BENCH_FORMAT = 1

#: Tolerance applied to metrics with no declaration anywhere.
DEFAULT_TOLERANCE = {"rel": 0.02, "direction": "two_sided"}

_DIRECTIONS = ("lower_is_better", "higher_is_better", "two_sided", "info")


class BenchArtifactError(ReproError):
    """A bench artifact is unreadable, torn, or from a newer schema."""


class BenchWorkloadMismatch(ReproError):
    """Two artifacts do not describe the same benchmark workload."""


def bench_environment() -> Dict[str, Any]:
    """The environment block stamped into every envelope (info only)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def make_envelope(
    name: str,
    workload: Mapping[str, Any],
    metrics: Mapping[str, Any],
    tolerances: Mapping[str, Mapping[str, Any]],
    *,
    profile_digest: Optional[int] = None,
    detail: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a sealed bench envelope.

    ``workload`` is the fingerprint of *what* was measured; two artifacts
    are only comparable when their fingerprints are equal. ``metrics``
    are the gated numbers; anything structured or merely descriptive
    belongs in ``detail``. Every tolerance must name a metric that exists
    and a known direction — a typo in a tolerance key would otherwise
    silently un-gate the metric it meant to guard.
    """
    for metric, spec in tolerances.items():
        if metric not in metrics:
            raise ValueError(f"tolerance declared for unknown metric {metric!r}")
        direction = spec.get("direction")
        if direction not in _DIRECTIONS:
            raise ValueError(
                f"metric {metric!r}: unknown direction {direction!r} "
                f"(expected one of {_DIRECTIONS})"
            )
    body: Dict[str, Any] = {
        "bench": name,
        "workload": dict(workload),
        "metrics": dict(metrics),
        "tolerances": {k: dict(v) for k, v in tolerances.items()},
        "env": bench_environment(),
    }
    if profile_digest is not None:
        body["profile_digest"] = profile_digest
    if detail is not None:
        body["detail"] = dict(detail)
    return envelope(body, BENCH_FORMAT)


def write_bench(path: str, envelope: Mapping[str, Any]) -> None:
    """Atomically persist an envelope as canonical JSON (stable bytes).

    The file is sealed from ``envelope["body"]``, so its CRC always
    matches the body written.
    """
    atomic_write_json(path, seal(envelope["body"], envelope["format"]))


def load_bench(path: str) -> Dict[str, Any]:
    """Load and verify an envelope; refuse torn or newer-schema files."""
    return read_sealed(
        path, "bench", BENCH_FORMAT, BenchArtifactError, BenchArtifactError
    )


@dataclass(frozen=True)
class MetricDrift:
    """One metric's classified movement between baseline and current."""

    metric: str
    baseline: Any
    current: Any
    #: Signed relative drift ``(current - baseline) / |baseline|`` for
    #: numeric pairs; ``None`` for non-numeric or missing values.
    rel_drift: Optional[float]
    #: ``regression`` | ``improvement`` | ``stable`` | ``info`` |
    #: ``missing`` | ``new``
    status: str
    direction: str
    tolerance_rel: float

    def describe(self) -> str:
        if self.status == "missing":
            return f"{self.metric}: missing from current artifact"
        if self.status == "new":
            return f"{self.metric}: new metric (no baseline) = {self.current!r}"
        if self.rel_drift is None:
            return (
                f"{self.metric}: {self.baseline!r} -> {self.current!r} "
                f"[{self.status}]"
            )
        return (
            f"{self.metric}: {self.baseline} -> {self.current} "
            f"({self.rel_drift:+.1%}, tol ±{self.tolerance_rel:.0%} "
            f"{self.direction}) [{self.status}]"
        )


@dataclass
class BenchDiff:
    """The classified comparison of two bench artifacts."""

    bench: str
    workload: Dict[str, Any]
    drifts: List[MetricDrift] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDrift]:
        return [d for d in self.drifts if d.status in ("regression", "missing")]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions)

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for drift in self.drifts:
            counts[drift.status] = counts.get(drift.status, 0) + 1
        parts = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
        verdict = "REGRESSION" if self.has_regression else "ok"
        return f"bench {self.bench}: {verdict} ({parts})"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _classify(
    metric: str,
    baseline: Any,
    current: Any,
    spec: Mapping[str, Any],
) -> MetricDrift:
    direction = spec.get("direction", DEFAULT_TOLERANCE["direction"])
    rel = float(spec.get("rel", DEFAULT_TOLERANCE["rel"]))

    if not (_is_number(baseline) and _is_number(current)):
        # Non-numeric metrics gate on equality (unless merely info).
        if direction == "info":
            status = "info"
        elif baseline == current:
            status = "stable"
        else:
            status = "regression"
        return MetricDrift(metric, baseline, current, None, status, direction, rel)

    if baseline == 0:
        drift = 0.0 if current == 0 else float("inf") * (1 if current > 0 else -1)
    else:
        drift = (current - baseline) / abs(baseline)

    if direction == "info":
        status = "info"
    elif direction == "lower_is_better":
        if drift > rel:
            status = "regression"
        elif drift < -rel:
            status = "improvement"
        else:
            status = "stable"
    elif direction == "higher_is_better":
        if drift < -rel:
            status = "regression"
        elif drift > rel:
            status = "improvement"
        else:
            status = "stable"
    else:  # two_sided
        status = "regression" if abs(drift) > rel else "stable"
    return MetricDrift(metric, baseline, current, drift, status, direction, rel)


def diff_benches(
    baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> BenchDiff:
    """Classify every baseline metric's drift in ``current``.

    Tolerances come from the baseline's declarations (falling back to the
    current artifact's, then to :data:`DEFAULT_TOLERANCE`): the committed
    baseline *is* the contract, so editing tolerances in a working copy
    cannot loosen the gate. A ``profile_digest`` that differs between
    the two (or is present on one side only) is a regression. Raises
    :class:`BenchWorkloadMismatch` when the artifacts measured different
    things — comparing a 20-interface sweep against a 5-interface one is
    never a drift, it is a mistake.
    """
    base_body = baseline["body"]
    cur_body = current["body"]
    if base_body.get("bench") != cur_body.get("bench"):
        raise BenchWorkloadMismatch(
            f"bench name mismatch: baseline {base_body.get('bench')!r} "
            f"vs current {cur_body.get('bench')!r}"
        )
    if base_body.get("workload") != cur_body.get("workload"):
        raise BenchWorkloadMismatch(
            f"workload fingerprint mismatch for bench "
            f"{base_body.get('bench')!r}: baseline {base_body.get('workload')!r} "
            f"vs current {cur_body.get('workload')!r}"
        )

    base_metrics: Dict[str, Any] = base_body.get("metrics", {})
    cur_metrics: Dict[str, Any] = cur_body.get("metrics", {})
    base_tol: Dict[str, Any] = base_body.get("tolerances", {})
    cur_tol: Dict[str, Any] = cur_body.get("tolerances", {})

    diff = BenchDiff(bench=base_body.get("bench", "?"),
                     workload=dict(base_body.get("workload", {})))
    for metric in sorted(base_metrics):
        spec = base_tol.get(metric) or cur_tol.get(metric) or DEFAULT_TOLERANCE
        rel = float(spec.get("rel", DEFAULT_TOLERANCE["rel"]))
        direction = spec.get("direction", DEFAULT_TOLERANCE["direction"])
        if metric not in cur_metrics:
            diff.drifts.append(
                MetricDrift(metric, base_metrics[metric], None, None,
                            "missing", direction, rel)
            )
            continue
        diff.drifts.append(
            _classify(metric, base_metrics[metric], cur_metrics[metric], spec)
        )
    for metric in sorted(cur_metrics):
        if metric in base_metrics:
            continue
        spec = cur_tol.get(metric) or DEFAULT_TOLERANCE
        diff.drifts.append(
            MetricDrift(metric, None, cur_metrics[metric], None, "new",
                        spec.get("direction", "info"),
                        float(spec.get("rel", DEFAULT_TOLERANCE["rel"])))
        )
    # The profiler digest fingerprints the work the run did: a change, or
    # a digest on one side only, means the workload itself changed, so it
    # fails until the baseline is re-sealed with it.
    base_digest = base_body.get("profile_digest")
    cur_digest = cur_body.get("profile_digest")
    if base_digest != cur_digest:
        diff.drifts.append(
            MetricDrift("profile_digest", base_digest, cur_digest, None,
                        "regression", "two_sided", 0.0)
        )
    return diff
