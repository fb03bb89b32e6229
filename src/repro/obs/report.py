"""Run reports and run diffing over provenance-bearing results.

:func:`build_run_report` condenses one or more pipeline runs into a
:class:`RunReport`: per-domain accuracy against the gold clustering,
per-phase acquisition yield, cache and resilience rollups, and the top-k
*hardest decisions* — the pairwise match evaluations whose blended
similarity landed closest to the threshold τ, exactly the calls a human
auditor should double-check first. Reports render deterministically (no
wall-clock anywhere), both as text and as JSON, so two reports of the
same run are byte-identical.

:func:`diff_runs` compares two *exported* run payloads (the dicts
:func:`repro.io.run_result_to_dict` produces and
:func:`repro.io.load_run_result` reads back) and classifies the drift:

- ``accuracy`` — precision/recall/F1 moved (a drop in F1 is flagged as a
  regression);
- ``overhead`` — the query/probe/latency accounts grew;
- ``provenance`` — the decision streams diverge; the drift names the
  first diverging decision so a bisecting investigation starts at the
  right record rather than at "the run is different".

The tests and benchmarks assert cold-vs-warm and fault-0-vs-clean runs
show **no provenance divergence**: a warm start and the resilience layer
must change the accounting, never the decisions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # import cycle: pipeline imports the obs package
    from repro.core.pipeline import WebIQRunResult

__all__ = [
    "HardDecision",
    "DomainReport",
    "RunReport",
    "build_run_report",
    "Drift",
    "RunDiff",
    "diff_runs",
    "NO_PROVENANCE_DIVERGENCE",
]

#: The exact phrase :meth:`RunDiff.summary` emits when the decision
#: streams of the two runs are identical (benchmarks grep for it).
NO_PROVENANCE_DIVERGENCE = "no provenance divergence"

#: Ordered provenance streams compared record by record.
_PROVENANCE_STREAMS = ("lineage", "prunes", "explanations", "merges")


@dataclass(frozen=True)
class HardDecision:
    """One match evaluation that landed close to the threshold."""

    a: Tuple[str, str]
    b: Tuple[str, str]
    sim: float
    threshold: float
    margin: float
    exceeds_threshold: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "sim": self.sim,
            "threshold": self.threshold,
            "margin": self.margin,
            "exceeds_threshold": self.exceeds_threshold,
        }


@dataclass
class DomainReport:
    """One domain's section of a run report."""

    domain: str
    seed: Optional[int]
    precision: float
    recall: float
    f1: float
    #: instances entering the final result, by acquisition phase
    phase_yield: Dict[str, int] = field(default_factory=dict)
    surface_success_rate: Optional[float] = None
    final_success_rate: Optional[float] = None
    #: search queries / probes by stopwatch account
    queries_by_account: Dict[str, int] = field(default_factory=dict)
    cache_hit_rate: Optional[float] = None
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    degraded: Optional[bool] = None
    faults_injected: Optional[int] = None
    retries: Optional[int] = None
    #: match evaluations closest to τ, hardest first
    hardest_decisions: List[HardDecision] = field(default_factory=list)
    provenance_summary: Optional[str] = None
    provenance_dropped: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "seed": self.seed,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "phase_yield": dict(sorted(self.phase_yield.items())),
            "surface_success_rate": self.surface_success_rate,
            "final_success_rate": self.final_success_rate,
            "queries_by_account": dict(
                sorted(self.queries_by_account.items())
            ),
            "cache_hit_rate": self.cache_hit_rate,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded": self.degraded,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "hardest_decisions": [
                d.to_dict() for d in self.hardest_decisions
            ],
            "provenance_summary": self.provenance_summary,
            "provenance_dropped": self.provenance_dropped,
        }


@dataclass
class RunReport:
    """A deterministic digest of one or more pipeline runs."""

    domains: List[DomainReport] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"domains": [d.to_dict() for d in self.domains]}

    def render(self) -> str:
        """Human-readable text form; deterministic line for line."""
        lines: List[str] = []
        for section in self.domains:
            seed = "?" if section.seed is None else section.seed
            lines.append(f"== {section.domain} (seed {seed}) ==")
            lines.append(
                f"  accuracy: P={section.precision:.3f} "
                f"R={section.recall:.3f} F1={section.f1:.3f}"
            )
            if section.phase_yield:
                yields = ", ".join(
                    f"{phase}={count}"
                    for phase, count in sorted(section.phase_yield.items())
                )
                lines.append(f"  acquisition yield: {yields}")
            if section.final_success_rate is not None:
                lines.append(
                    f"  success rate: surface "
                    f"{section.surface_success_rate:.1f}% -> final "
                    f"{section.final_success_rate:.1f}%"
                )
            if section.queries_by_account:
                spend = ", ".join(
                    f"{account}={count}"
                    for account, count in sorted(
                        section.queries_by_account.items()
                    )
                )
                lines.append(f"  web spend: {spend}")
            if section.cache_hit_rate is not None:
                lines.append(
                    f"  cache: {section.cache_hits} hits / "
                    f"{section.cache_misses} misses "
                    f"({100.0 * section.cache_hit_rate:.1f}% hit rate)"
                )
            if section.degraded is not None:
                lines.append(
                    f"  resilience: degraded={section.degraded}, "
                    f"{section.faults_injected} faults, "
                    f"{section.retries} retries"
                )
            if section.provenance_summary is not None:
                lines.append(f"  {section.provenance_summary}")
                if section.provenance_dropped:
                    lines.append(
                        "  warning: provenance dropped "
                        f"{section.provenance_dropped} records at capacity"
                    )
            if section.hardest_decisions:
                lines.append("  hardest decisions (|Sim - tau| ascending):")
                for decision in section.hardest_decisions:
                    verdict = (
                        "match" if decision.exceeds_threshold else "no-match"
                    )
                    lines.append(
                        f"    {_key_text(decision.a)} ~ "
                        f"{_key_text(decision.b)}: sim={decision.sim:.4f} "
                        f"tau={decision.threshold:.2f} "
                        f"margin={decision.margin:.4f} -> {verdict}"
                    )
        return "\n".join(lines) + "\n"


def _key_text(key: Sequence[str]) -> str:
    return f"{key[0]}.{key[1]}"


def build_run_report(
    results: Sequence["WebIQRunResult"],
    top_k_hardest: int = 5,
) -> RunReport:
    """Digest ``results`` (one per domain/config) into a :class:`RunReport`."""
    report = RunReport()
    for result in results:
        section = DomainReport(
            domain=result.domain,
            seed=result.seed,
            precision=result.metrics.precision,
            recall=result.metrics.recall,
            f1=result.metrics.f1,
            queries_by_account=dict(result.stopwatch.queries_by_account),
        )
        if result.acquisition is not None:
            section.surface_success_rate = (
                result.acquisition.surface_success_rate
            )
            section.final_success_rate = (
                result.acquisition.final_success_rate
            )
        if result.cache is not None:
            section.cache_hit_rate = result.cache.hit_rate
            section.cache_hits = result.cache.hits
            section.cache_misses = result.cache.misses
        if result.degradation is not None:
            section.degraded = result.degradation.degraded
            section.faults_injected = sum(
                result.degradation.faults_by_kind.values()
            )
            section.retries = sum(
                result.degradation.retries_by_component.values()
            )
        provenance = (
            result.obs.provenance if result.obs is not None else None
        )
        if provenance is not None:
            section.phase_yield = dict(
                Counter(record.phase for record in provenance.lineage)
            )
            section.provenance_summary = provenance.summary()
            section.provenance_dropped = provenance.total_dropped
            ranked = sorted(
                provenance.explanations,
                key=lambda e: (e.margin, e.a, e.b),
            )
            section.hardest_decisions = [
                HardDecision(
                    a=e.a,
                    b=e.b,
                    sim=e.sim,
                    threshold=e.threshold,
                    margin=e.margin,
                    exceeds_threshold=e.exceeds_threshold,
                )
                for e in ranked[:top_k_hardest]
            ]
        elif result.acquisition is not None:
            # Fallback yield accounting when the run kept no provenance:
            # phase attribution is coarser (surface vs borrowed) but the
            # report still says where the instances came from.
            surface = sum(
                r.n_after_surface for r in result.acquisition.records
            )
            borrowed = sum(
                max(0, r.n_after_borrow - r.n_after_surface)
                for r in result.acquisition.records
            )
            section.phase_yield = {"surface": surface, "borrowed": borrowed}
        report.domains.append(section)
    return report


# ---------------------------------------------------------------------------
# Run diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Drift:
    """One classified difference between two exported runs."""

    #: ``accuracy`` | ``overhead`` | ``provenance`` | ``config``
    kind: str
    #: is the change a regression (worse in the newer run)?
    regression: bool
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "regression": self.regression,
            "detail": self.detail,
        }


@dataclass
class RunDiff:
    """Outcome of :func:`diff_runs`."""

    drifts: List[Drift] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.drifts

    @property
    def has_regression(self) -> bool:
        return any(d.regression for d in self.drifts)

    def drifts_of(self, kind: str) -> List[Drift]:
        return [d for d in self.drifts if d.kind == kind]

    @property
    def provenance_diverged(self) -> bool:
        return bool(self.drifts_of("provenance"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "identical": self.identical,
            "drifts": [d.to_dict() for d in self.drifts],
        }

    def summary(self) -> str:
        """Deterministic text digest; benchmarks grep its phrasing."""
        lines: List[str] = []
        if self.identical:
            lines.append("runs are equivalent: zero drift")
        for drift in self.drifts:
            marker = "REGRESSION" if drift.regression else "drift"
            lines.append(f"{marker} [{drift.kind}] {drift.detail}")
        if not self.provenance_diverged:
            lines.append(NO_PROVENANCE_DIVERGENCE)
        return "\n".join(lines) + "\n"


def diff_runs(a: Dict[str, Any], b: Dict[str, Any]) -> RunDiff:
    """Classify the drift between two exported run payloads.

    ``a`` is the reference (older) run, ``b`` the candidate (newer) one;
    both are the plain dicts of :func:`repro.io.run_result_to_dict` or
    :func:`repro.io.load_run_result`. Equal payloads yield a diff with
    ``identical == True`` and zero drifts.
    """
    diff = RunDiff()
    _diff_config(a, b, diff)
    _diff_accuracy(a, b, diff)
    _diff_overhead(a, b, diff)
    _diff_provenance(a, b, diff)
    return diff


def _diff_config(a: Dict[str, Any], b: Dict[str, Any], diff: RunDiff) -> None:
    if a.get("domain") != b.get("domain"):
        diff.drifts.append(Drift(
            "config", False,
            f"different domains: {a.get('domain')!r} vs {b.get('domain')!r}",
        ))
    if a.get("seed") != b.get("seed"):
        diff.drifts.append(Drift(
            "config", False,
            f"different seeds: {a.get('seed')!r} vs {b.get('seed')!r}",
        ))
    if a.get("config") != b.get("config"):
        diff.drifts.append(Drift(
            "config", False,
            f"different configs: {a.get('config')!r} vs {b.get('config')!r}",
        ))


def _diff_accuracy(a: Dict[str, Any], b: Dict[str, Any],
                   diff: RunDiff) -> None:
    metrics_a = a.get("metrics") or {}
    metrics_b = b.get("metrics") or {}
    for name in ("precision", "recall", "f1"):
        old = metrics_a.get(name)
        new = metrics_b.get(name)
        if old == new:
            continue
        regression = (
            old is not None and new is not None and new < old
        )
        diff.drifts.append(Drift(
            "accuracy", regression,
            f"{name} moved {old} -> {new}",
        ))


def _diff_overhead(a: Dict[str, Any], b: Dict[str, Any],
                   diff: RunDiff) -> None:
    for key, unit in (
        ("overhead_queries", "calls"),
        ("overhead_seconds", "seconds"),
    ):
        accounts_a = a.get(key) or {}
        accounts_b = b.get(key) or {}
        for account in sorted(set(accounts_a) | set(accounts_b)):
            old = accounts_a.get(account, 0)
            new = accounts_b.get(account, 0)
            if old == new:
                continue
            diff.drifts.append(Drift(
                "overhead", new > old,
                f"{key}[{account}] moved {old} -> {new} {unit}",
            ))


def _diff_provenance(a: Dict[str, Any], b: Dict[str, Any],
                     diff: RunDiff) -> None:
    prov_a = a.get("provenance")
    prov_b = b.get("provenance")
    if prov_a is None and prov_b is None:
        return
    if prov_a is None or prov_b is None:
        present = "first" if prov_b is None else "second"
        diff.drifts.append(Drift(
            "provenance", False,
            f"only the {present} run recorded provenance — decision "
            "streams cannot be compared",
        ))
        return
    for stream in _PROVENANCE_STREAMS:
        records_a = prov_a.get(stream) or []
        records_b = prov_b.get(stream) or []
        divergence = _first_divergence(records_a, records_b)
        if divergence is None:
            continue
        index, record_a, record_b = divergence
        diff.drifts.append(Drift(
            "provenance", True,
            f"{stream} diverge at decision #{index}: "
            f"{_record_text(record_a)} vs {_record_text(record_b)}",
        ))


def _first_divergence(
    records_a: List[Any], records_b: List[Any]
) -> Optional[Tuple[int, Any, Any]]:
    for index, (record_a, record_b) in enumerate(zip(records_a, records_b)):
        if record_a != record_b:
            return index, record_a, record_b
    if len(records_a) != len(records_b):
        index = min(len(records_a), len(records_b))
        longer = records_a if len(records_a) > len(records_b) else records_b
        extra = longer[index]
        if len(records_a) > len(records_b):
            return index, extra, None
        return index, None, extra
    return None


def _record_text(record: Any) -> str:
    if record is None:
        return "<absent>"
    if isinstance(record, dict):
        keys = ("interface_id", "attribute", "value", "stage", "a", "b",
                "step", "sim")
        parts = [
            f"{key}={record[key]!r}" for key in keys if key in record
        ]
        if parts:
            return "{" + ", ".join(parts) + "}"
    return repr(record)
