"""JSON import/export for interfaces, ground truth and run results.

A reproduction is only useful if its artifacts can leave the process:
these helpers serialise generated interface sets (so a dataset can be
inspected, diffed, or versioned), ground-truth clusters, acquisition
reports and matching metrics. Everything round-trips losslessly except the
corpus and sources, which are regenerated from the seed (recorded in the
dataset payload) rather than stored.

Run payloads carry a schema version (:data:`RUN_RESULT_FORMAT`, under the
``"format"`` key), and every run writes the current one. The
``"checkpoint"``, ``"supervisor"`` and ``"service"`` sections are optional
keys, present only when the run was checkpointed, supervised or executed
by the matching service. :func:`strip_service_section` drops the service
section, which is how the service-equivalence oracle byte-compares a
service response against the same run executed standalone.

Format history: format 2 added ``"format"``, ``"seed"`` and
``"provenance"``; formats 3, 4 and 5 added the checkpoint, supervisor and
service sections, and their writer stamped the lowest format that could
represent a run. Format **6** stamps one number on every run; the keys
are unchanged. :func:`load_run_result` does not upgrade anything: it
returns the payload as written, and rejects a missing, non-integer or
newer format with ``ValueError``. A payload that does not parse at all
(or is not UTF-8) raises a typed
:class:`~repro.util.errors.ExportCorruptionError` naming the path and
byte offset of the damage. All dumps use ``sort_keys=True`` — byte
equality between two dumps then means payload equality — and every dump
is written atomically (:mod:`repro.util.atomicio`): a crash mid-dump
leaves the previous file intact, never a torn half-payload.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence, Tuple

#: Schema version written into every run-result payload.
RUN_RESULT_FORMAT = 6

from repro.checkpoint.journal import JOURNAL_FORMAT
from repro.checkpoint.session import CheckpointReport
from repro.core.acquisition import AcquisitionReport
from repro.core.pipeline import WebIQRunResult
from repro.datasets.dataset import DomainDataset
from repro.datasets.interfaces import GroundTruth
from repro.deepweb.models import Attribute, AttributeKind, QueryInterface
from repro.obs.instrument import Observability, counter_rows
from repro.perf.cache import CacheStats
from repro.resilience.client import DegradationReport
from repro.supervisor import SupervisorReport
from repro.util.atomicio import atomic_write_json
from repro.util.errors import ExportCorruptionError

__all__ = [
    "RUN_RESULT_FORMAT",
    "interface_to_dict",
    "interface_from_dict",
    "dataset_to_dict",
    "ground_truth_to_dict",
    "ground_truth_from_dict",
    "acquisition_report_to_dict",
    "degradation_report_to_dict",
    "cache_stats_to_dict",
    "checkpoint_report_to_dict",
    "supervisor_report_to_dict",
    "observability_to_dict",
    "run_result_to_dict",
    "strip_service_section",
    "dump_dataset",
    "dump_run_result",
    "load_run_result",
    "matching_to_dict",
    "induced_matching_to_dict",
    "dump_induced_matching",
]


def interface_to_dict(interface: QueryInterface) -> Dict[str, Any]:
    """One interface, including any WebIQ-acquired instances."""
    return {
        "interface_id": interface.interface_id,
        "domain": interface.domain,
        "object_name": interface.object_name,
        "attributes": [
            {
                "name": a.name,
                "label": a.label,
                "kind": a.kind.value,
                "instances": list(a.instances),
                "acquired": list(a.acquired),
            }
            for a in interface.attributes
        ],
    }


def interface_from_dict(payload: Dict[str, Any]) -> QueryInterface:
    """Inverse of :func:`interface_to_dict`."""
    attributes = []
    for item in payload["attributes"]:
        attribute = Attribute(
            name=item["name"],
            label=item["label"],
            kind=AttributeKind(item["kind"]),
            instances=tuple(item["instances"]),
        )
        attribute.acquired.extend(item.get("acquired", ()))
        attributes.append(attribute)
    return QueryInterface(
        interface_id=payload["interface_id"],
        domain=payload["domain"],
        object_name=payload["object_name"],
        attributes=attributes,
    )


def ground_truth_to_dict(truth: GroundTruth) -> Dict[str, Any]:
    return {
        "clusters": {
            concept: sorted([list(member) for member in members])
            for concept, members in truth.clusters.items()
        }
    }


def ground_truth_from_dict(payload: Dict[str, Any]) -> GroundTruth:
    truth = GroundTruth()
    for concept, members in payload["clusters"].items():
        for interface_id, attribute in members:
            truth.add(concept, interface_id, attribute)
    return truth


def dataset_to_dict(dataset: DomainDataset) -> Dict[str, Any]:
    """Snapshot a dataset: interfaces, ground truth, and regeneration info.

    The corpus and sources are deterministic functions of
    ``(domain, n_interfaces, seed)`` and are not stored; the seed in the
    payload regenerates them bit-identically.
    """
    return {
        "domain": dataset.domain,
        "seed": dataset.seed,
        "n_interfaces": len(dataset.interfaces),
        "n_documents": dataset.engine.n_documents,
        "interfaces": [interface_to_dict(i) for i in dataset.interfaces],
        "ground_truth": ground_truth_to_dict(dataset.ground_truth),
    }


def acquisition_report_to_dict(report: AcquisitionReport) -> Dict[str, Any]:
    return {
        "k": report.k,
        "surface_queries": report.surface_queries,
        "attr_surface_queries": report.attr_surface_queries,
        "attr_deep_probes": report.attr_deep_probes,
        "surface_success_rate": report.surface_success_rate,
        "final_success_rate": report.final_success_rate,
        "records": [
            {
                "interface_id": r.interface_id,
                "attribute": r.attribute,
                "label": r.label,
                "had_instances": r.had_instances,
                "n_after_surface": r.n_after_surface,
                "n_after_borrow": r.n_after_borrow,
                "surface_attempted": r.surface_attempted,
                "borrow_deep_attempted": r.borrow_deep_attempted,
                "borrow_surface_attempted": r.borrow_surface_attempted,
            }
            for r in report.records
        ],
    }


def degradation_report_to_dict(report: DegradationReport) -> Dict[str, Any]:
    """The resilience layer's account of faults survived and work given up."""
    return {
        "degraded": report.degraded,
        "faults_by_kind": dict(report.faults_by_kind),
        "faults_by_component": dict(report.faults_by_component),
        "retries_by_component": dict(report.retries_by_component),
        "backoff_seconds_by_component": dict(
            report.backoff_seconds_by_component
        ),
        "giveups_by_component": dict(report.giveups_by_component),
        "breaker_trips": dict(report.breaker_trips),
        "breaker_rejections": dict(report.breaker_rejections),
        "budgets_exhausted": list(report.budgets_exhausted),
        "attributes_skipped": [list(pair) for pair in report.attributes_skipped],
        "budget_spent_by_component": dict(report.budget_spent_by_component),
    }


def cache_stats_to_dict(stats: CacheStats) -> Dict[str, Any]:
    """The memo's account of questions answered and sent on."""
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "hits_by_kind": dict(stats.hits_by_kind),
        "misses_by_kind": dict(stats.misses_by_kind),
    }


def checkpoint_report_to_dict(report: CheckpointReport) -> Dict[str, Any]:
    """The resume-invariant core of a checkpoint report.

    Only what is identical between an uninterrupted run and a
    kill-and-resume of it may be exported: the replay/fresh split (and
    the journal directory) necessarily differ, and exporting them would
    break the byte-identity guarantee the whole subsystem exists for.
    They stay in-memory diagnostics (``result.checkpoint.summary()``).
    """
    return {
        "journal_format": JOURNAL_FORMAT,
        "boundaries": report.boundaries,
    }


def supervisor_report_to_dict(report: SupervisorReport) -> Dict[str, Any]:
    """What supervision did: attempts, quarantine provenance, spend ledger.

    Unlike the checkpoint section, this *is* the full failure history —
    the supervisor section is the one part of a supervised export that
    legitimately differs from the uninterrupted reference run, and the
    byte-identity oracle strips it before comparing.
    """
    return {
        "completed": report.completed,
        "restarts": report.restarts,
        "attempts": [
            {
                "index": a.index,
                "outcome": a.outcome,
                "unit": list(a.unit) if a.unit is not None else None,
                "error": a.error,
                "round_trips": a.round_trips,
                "committed_round_trips": a.committed_round_trips,
                "restored_round_trips": a.restored_round_trips,
                "backoff_seconds": a.backoff_seconds,
                "salvage": (
                    {
                        "kept_records": a.salvage.kept_records,
                        "quarantined_records": [
                            {"filename": q.filename, "reason": q.reason}
                            for q in a.salvage.quarantined
                        ],
                    }
                    if a.salvage is not None
                    else None
                ),
            }
            for a in report.attempts
        ],
        "quarantined_units": [
            {
                "unit": list(q.unit),
                "crashes": q.crashes,
                "restart_indices": list(q.restart_indices),
                "error_chain": list(q.error_chain),
            }
            for q in report.quarantined_units
        ],
        "wasted_round_trips": report.wasted_round_trips,
        "salvage_trimmed_round_trips": report.salvage_trimmed_round_trips,
        "backoff_seconds": report.backoff_seconds,
    }


def observability_to_dict(obs: Observability) -> Dict[str, Any]:
    """The run's trace and the counters derived from it, ready for
    byte-stable JSON.

    Both halves export deterministically (logical sequence numbers,
    simulated-clock timestamps, sorted counter rows), so serialising with
    ``sort_keys=True`` makes byte equality across runs meaningful. No
    gauge or histogram is recorded; their keys stay, empty, so the export
    format is unchanged.
    """
    return {
        "trace": obs.tracer.export(),
        "metrics": {
            "counters": counter_rows(obs.tracer),
            "gauges": [],
            "histograms": [],
        },
    }


def run_result_to_dict(result: WebIQRunResult) -> Dict[str, Any]:
    """A full pipeline run: config, metrics, clusters, overhead.

    Post-run bookkeeping is deliberately absent: ``result.registry`` and
    ``result.cache_content`` are in-memory only, so runs with and without
    them export byte-identical payloads.
    """
    provenance = (
        result.obs.provenance if result.obs is not None else None
    )
    payload = {
        "format": RUN_RESULT_FORMAT,
        "domain": result.domain,
        "seed": result.seed,
        "config": {
            "enable_surface": result.config.enable_surface,
            "enable_attr_deep": result.config.enable_attr_deep,
            "enable_attr_surface": result.config.enable_attr_surface,
            "threshold": result.config.threshold,
            "linkage": result.config.linkage,
        },
        "metrics": {
            "precision": result.metrics.precision,
            "recall": result.metrics.recall,
            "f1": result.metrics.f1,
            "n_predicted": result.metrics.n_predicted,
            "n_truth": result.metrics.n_truth,
            "n_correct": result.metrics.n_correct,
        },
        "clusters": [
            sorted([list(m.key) for m in cluster.members])
            for cluster in result.match_result.clusters
        ],
        "overhead_seconds": dict(result.stopwatch.seconds_by_account),
        "overhead_queries": dict(result.stopwatch.queries_by_account),
        "acquisition": (
            acquisition_report_to_dict(result.acquisition)
            if result.acquisition is not None
            else None
        ),
        "degradation": (
            degradation_report_to_dict(result.degradation)
            if result.degradation is not None
            else None
        ),
        "cache": (
            cache_stats_to_dict(result.cache)
            if result.cache is not None
            else None
        ),
        "observability": (
            observability_to_dict(result.obs)
            if result.obs is not None
            else None
        ),
        "provenance": (
            provenance.to_dict() if provenance is not None else None
        ),
    }
    if result.checkpoint is not None:
        payload["checkpoint"] = checkpoint_report_to_dict(result.checkpoint)
    if result.supervisor is not None:
        payload["supervisor"] = supervisor_report_to_dict(result.supervisor)
    if result.service is not None:
        # Duck-typed on purpose: the service section is produced by
        # repro.service (which imports this module), so io cannot import
        # the concrete type without a cycle.
        payload["service"] = result.service.to_export_dict()
    return payload


def strip_service_section(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``payload`` with the service section removed.

    The service-equivalence oracle promises that an admitted request's
    export is byte-identical to the same run executed standalone — *except*
    for the service section itself, which records coordinates (request id,
    tenant, epoch lineage) that a standalone run cannot have. Without it
    the result compares byte-for-byte against a standalone export.
    """
    stripped = dict(payload)
    stripped.pop("service", None)
    return stripped


def dump_dataset(dataset: DomainDataset, path: str) -> None:
    """Write a dataset snapshot as JSON to ``path`` (atomically)."""
    atomic_write_json(path, dataset_to_dict(dataset))


def dump_run_result(result: WebIQRunResult, path: str) -> None:
    """Write a pipeline run as JSON to ``path`` (atomically)."""
    atomic_write_json(path, run_result_to_dict(result))


def matching_to_dict(
    domain: str,
    threshold: float,
    linkage: str,
    n_interfaces: int,
    clusters: Sequence[Sequence[Tuple[str, str]]],
) -> Dict[str, Any]:
    """The induced-matching JSON: clusters of sorted member keys in the
    run export's cluster shape. The registry's induced matching and the
    ``registry batch`` oracle both write through here, so CI's registry
    smoke can ``cmp`` their bytes."""
    return {
        "domain": domain,
        "threshold": threshold,
        "linkage": linkage,
        "n_interfaces": n_interfaces,
        "clusters": [
            [list(key) for key in cluster] for cluster in clusters
        ],
    }


def induced_matching_to_dict(store: "RegistryStore") -> Dict[str, Any]:
    """The registry's induced matching in the run export's cluster shape.

    Identical bytes to what batch IceQ over the same (id-sorted)
    interfaces exports — the equality CI's registry smoke ``cmp``-checks.
    """
    from repro.registry.assimilate import induced_clusters

    clusters, _ = induced_clusters(store)
    return matching_to_dict(store.domain, store.threshold, store.linkage,
                            len(store.interfaces), clusters)


def dump_induced_matching(store: "RegistryStore", path: str) -> None:
    """Write the induced matching as JSON to ``path`` (atomically)."""
    atomic_write_json(path, induced_matching_to_dict(store))


def load_run_result(path: str) -> Dict[str, Any]:
    """Read back a :func:`dump_run_result` payload (as plain dicts).

    The corpus-backed objects are not reconstructed — the payload is the
    archival form; tests use it to assert the dump was lossless for the
    accounting layers (degradation, cache, trace, metrics, provenance).

    The payload comes back as written: optional sections that the run did
    not have are absent. A missing or non-integer ``"format"``, or one
    newer than :data:`RUN_RESULT_FORMAT`, raises ``ValueError`` rather
    than being silently misread; a file that is not UTF-8 JSON at all
    (truncated export, bit-rot) raises
    :class:`~repro.util.errors.ExportCorruptionError` naming the path and
    byte offset of the damage."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        offset = exc.start if isinstance(exc, UnicodeDecodeError) \
            else exc.pos
        raise ExportCorruptionError(
            f"run export {path} is corrupt at byte {offset}: {exc}",
            path=path, offset=offset,
        ) from exc
    version = payload.get("format") if isinstance(payload, dict) else None
    if type(version) is not int or version < 1:
        raise ValueError(f"unrecognised run-result format: {version!r}")
    if version > RUN_RESULT_FORMAT:
        raise ValueError(
            f"run-result format {version} is newer than this reader "
            f"(knows up to {RUN_RESULT_FORMAT})"
        )
    return payload
