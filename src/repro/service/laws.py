"""Service-level conservation laws, audited like run invariants.

Three laws, reported through the same
:class:`~repro.obs.invariants.InvariantReport` machinery the per-run
:class:`~repro.obs.invariants.InvariantChecker` uses (so suites can
assert ``report.ok`` uniformly):

- **service-admission-accounting** — every submission is accounted
  exactly once: ``submitted == admitted + Σ rejected``, and every
  admitted request is either still queued or reached exactly one outcome
  (``admitted == completed + shed + deadline_expired + crashed +
  queued``). Per-tenant ledgers sum to the same totals.
- **service-epoch-publication** — the published chain has no gaps and no
  forks: ids are consecutive from the boot epoch, each epoch's parent is
  its predecessor, ``published == len(chain)``, and every begun
  derivation either published or abandoned (``begun == published +
  abandoned``). This is the atomicity audit: a crashed/expired/shed
  request provably left no trace in the chain.
- **service-quota-conservation** — charged spend is conserved across
  three independent books: each tenant's ledger equals the sum of that
  tenant's per-request records, and each completed request's record
  equals the stopwatch totals in its own export (queries = surface +
  attr-surface accounts, probes = attr-deep, seconds = Σ accounts). A
  request the service charged but the export didn't see (or vice versa)
  breaks the law. Records round seconds to 6 decimals while ledgers keep
  them raw, so the ledger-vs-records seconds check allows half a unit in
  the 6th decimal per summed record; every other comparison is exact.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.invariants import InvariantReport, InvariantViolation

__all__ = ["check_service"]

#: worst-case error of one record's ``round(seconds, 6)``
_RECORD_ROUNDING = 5e-7

_LAWS = (
    "service-admission-accounting",
    "service-epoch-publication",
    "service-quota-conservation",
)


def _fail(report: InvariantReport, invariant: str, message: str) -> None:
    report.violations.append(
        InvariantViolation(invariant=invariant, message=message))


def _equal(report: InvariantReport, invariant: str, actual, expected,
           what: str) -> None:
    if actual != expected:
        _fail(report, invariant, f"{what}: {actual!r} != {expected!r}")


def check_service(service) -> InvariantReport:
    """Audit a :class:`~repro.service.MatchingService` against the laws."""
    report = InvariantReport(checked=list(_LAWS))
    stats = service.stats
    warm = service.warm

    # ---- service-admission-accounting
    law = "service-admission-accounting"
    _equal(report, law, stats.submitted,
           stats.admitted + sum(stats.rejected.values()),
           "submitted vs admitted + rejected")
    _equal(report, law,
           stats.admitted,
           stats.completed + stats.shed + stats.deadline_expired
           + stats.crashed + len(service.admission),
           "admitted vs outcomes + queued")
    for name, total in (
        ("admitted", stats.admitted),
        ("completed", stats.completed),
        ("shed", stats.shed),
        ("deadline_expired", stats.deadline_expired),
        ("crashed", stats.crashed),
    ):
        _equal(report, law,
               sum(getattr(ledger, name)
                   for ledger in stats.ledgers.values()),
               total, f"Σ tenant {name} vs global")
    _equal(report, law,
           sum(sum(ledger.rejected.values())
               for ledger in stats.ledgers.values()),
           sum(stats.rejected.values()),
           "Σ tenant rejections vs global")

    # ---- service-epoch-publication
    law = "service-epoch-publication"
    _equal(report, law, warm.published, len(warm.chain),
           "published count vs chain length")
    _equal(report, law, warm.begun, warm.published + warm.abandoned,
           "begun vs published + abandoned")
    previous = 0  # the boot epoch
    for epoch_id in warm.chain:
        epoch = warm.epochs.get(epoch_id)
        if epoch is None:
            _fail(report, law, f"chain names unknown epoch {epoch_id}")
            continue
        _equal(report, law, epoch.epoch_id, previous + 1,
               "chain ids not consecutive")
        _equal(report, law, epoch.parent_id, previous,
               f"epoch {epoch_id} parent")
        if epoch.published_by is None:
            _fail(report, law,
                  f"published epoch {epoch_id} names no publisher")
        previous = epoch_id
    _equal(report, law, warm.current.epoch_id, previous,
           "current epoch vs chain tail")
    for request_id in warm.abandoned_by:
        for epoch in warm.epochs.values():
            if epoch.published_by == request_id:
                _fail(report, law,
                      f"request {request_id} abandoned AND published "
                      f"epoch {epoch.epoch_id}")

    # ---- service-quota-conservation
    law = "service-quota-conservation"
    by_tenant: Dict[str, Dict[str, Any]] = {}
    for record in stats.records:
        sums = by_tenant.setdefault(
            record["tenant"],
            {"queries": 0, "probes": 0, "seconds": 0.0, "records": 0})
        sums["records"] += 1
        sums["queries"] += record["queries"]
        sums["probes"] += record["probes"]
        sums["seconds"] += record["seconds"]
    for tenant, ledger in sorted(stats.ledgers.items()):
        sums = by_tenant.get(
            tenant, {"queries": 0, "probes": 0, "seconds": 0.0, "records": 0})
        _equal(report, law, ledger.queries, sums["queries"],
               f"tenant {tenant} ledger queries vs Σ records")
        _equal(report, law, ledger.probes, sums["probes"],
               f"tenant {tenant} ledger probes vs Σ records")
        # the 1e-9 absorbs float summation error on top of the rounding
        tolerance = _RECORD_ROUNDING * sums["records"] + 1e-9
        if abs(ledger.seconds - sums["seconds"]) > tolerance:
            _fail(report, law,
                  f"tenant {tenant} ledger seconds {ledger.seconds!r} != "
                  f"Σ records {sums['seconds']!r}")
    records_by_id = {rec["request_id"]: rec for rec in stats.records}
    for request_id, response in sorted(service.responses.items()):
        if response.outcome != "completed" or response.export is None:
            continue
        record = records_by_id.get(request_id)
        if record is None:
            _fail(report, law,
                  f"completed request {request_id} has no spend record")
            continue
        export_queries = response.export.get("overhead_queries", {})
        export_seconds = response.export.get("overhead_seconds", {})
        _equal(report, law, record["queries"],
               export_queries.get("surface", 0)
               + export_queries.get("attr_surface", 0),
               f"{request_id} record queries vs export stopwatch")
        _equal(report, law, record["probes"],
               export_queries.get("attr_deep", 0),
               f"{request_id} record probes vs export stopwatch")
        if abs(record["seconds"] - sum(export_seconds.values())) > 1e-6:
            _fail(report, law,
                  f"{request_id} record seconds {record['seconds']!r} != "
                  f"export stopwatch {sum(export_seconds.values())!r}")
    return report
