"""The long-lived matching service: warm runs, provably standalone-equal.

One :class:`MatchingService` instance loads nothing up front and keeps
everything it learns: each completed request's post-run memo (Surface
searches and hit counts) publishes as a new
:class:`~repro.service.state.Epoch`, so the next tenant's run starts
warm. The headline guarantee is the **equivalence oracle**: an admitted
request's export is byte-identical (after stripping the
``service`` section) to the same run executed standalone with the same
effective config and the same :class:`~repro.perf.CachePreload` applied
— because the service and the standalone path *are the same code path*,
``WebIQMatcher.run(dataset, warm=...)``. The service adds coordinates
around the run, never hands inside it.

Request lifecycle::

    submit ──rejected──▶ AdmissionRejected (queue_full / over_quota /
       │                                    deadline_infeasible)
       ▼
    queued ──(deficit-round-robin)──▶ dispatch
       │                                │ quota re-check fails ──▶ SHED
       ▼                                ▼
    WarmState.begin (parent epoch)   run(dataset, warm=parent.warm)
       │                                │
       │  DeadlineExceededError ──▶ DEADLINE_EXPIRED (abandon epoch,
       │  any other exception  ──▶ CRASHED          partial report from
       ▼                                             the spool journal)
    COMPLETED: assimilate (copy-on-write) → publish epoch → charge ledger

Shed, expired and crashed requests abandon their derivation — warm state
is exactly what it was, audited by the epoch-publication law. Execution
is **serial in admission order** (concurrency lives at submission; the
authoritative interleaving is the deterministic DRR dispatch order), so
identical workloads produce identical epochs, ledgers and exports.

The service also keeps one world per domain
(:attr:`MatchingService.worlds`): a
:class:`~repro.datasets.dataset.DomainWorld`, the Surface Web and its
:class:`~repro.core.surface.SurfaceMemo`. The indexed corpus depends only
on ``(domain, seed)`` and is only read, so every request for the domain
searches it through its own fresh engine instead of re-generating it; the
memo's snippet extractions and label analyses are pure functions of that
Web's snippets, so every request reads and fills the same one instead of
re-tagging them. A request with another seed replaces its domain's Web and
memo together, which bounds the table by the number of domains. Each
request still builds its own interfaces and Deep-Web sources.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checkpoint import CheckpointConfig, RunJournal
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets.dataset import (
    DomainWorld,
    build_domain_dataset,
    build_world,
)
from repro.io import run_result_to_dict
from repro.perf.cache import CachePreload
from repro.registry.assimilate import RegistryAssimilator
from repro.registry.store import RegistryLock, RegistryStore
from repro.service.admission import (
    AdmissionController,
    TenantLedger,
    TenantQuota,
)
from repro.service.state import Epoch, WarmState
from repro.supervisor import SupervisorConfig
from repro.util.clock import DEEP_PROBE_SECONDS, SEARCH_QUERY_SECONDS
from repro.util.errors import (
    AdmissionRejected,
    DeadlineExceededError,
    ValidationError,
)
from repro.util.rng import derive_rng

__all__ = [
    "MatchRequest",
    "MatchResponse",
    "MatchingService",
    "ServiceConfig",
    "ServiceEvent",
    "ServiceRunInfo",
    "ServiceStats",
    "build_workload",
]

#: request outcomes
COMPLETED = "completed"
SHED = "shed"
DEADLINE_EXPIRED = "deadline_expired"
CRASHED = "crashed"


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (everything per-request lives on the request)."""

    #: total queued requests across all tenants before the door closes
    max_queue_depth: int = 8
    #: deficit-round-robin quantum (see :mod:`repro.service.admission`)
    quantum: float = 1.0
    #: quota applied to tenants absent from ``quotas``
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: per-tenant quota overrides
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: directory for per-request checkpoint spools (required before any
    #: request may carry a deadline — expiry is only sound at journal
    #: boundaries)
    spool_dir: Optional[str] = None
    #: directory the published registry persists to (under the
    #: :class:`~repro.registry.store.RegistryLock`); ``None`` keeps the
    #: registry in-memory only
    registry_dir: Optional[str] = None


@dataclass(frozen=True)
class MatchRequest:
    """One tenant's ask: run this matching workload against warm state."""

    tenant: str
    domain: str
    n_interfaces: int = 4
    seed: int = 7
    #: the run configuration; the service clears its registry and, for
    #: deadline requests, attaches a checkpoint spool + supervisor
    config: WebIQConfig = field(default_factory=WebIQConfig)
    #: simulated-seconds budget for the whole run; ``None`` = no deadline
    deadline_seconds: Optional[float] = None
    #: assimilate the run's interfaces into the service registry
    assimilate: bool = False
    #: deficit-round-robin cost (expensive requests wait longer)
    cost: float = 1.0
    #: assigned by the service at submission
    request_id: Optional[str] = None


@dataclass(frozen=True)
class ServiceRunInfo:
    """The export's ``service`` section: a run's service coordinates."""

    request_id: str
    tenant: str
    epoch_parent: int
    epoch_published: Optional[int]
    warm: bool
    outcome: str

    def to_export_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "epoch_parent": self.epoch_parent,
            "epoch_published": self.epoch_published,
            "warm": self.warm,
            "outcome": self.outcome,
        }


@dataclass
class MatchResponse:
    """What a tenant gets back for one executed request."""

    request_id: str
    tenant: str
    outcome: str
    #: eager JSON export of the run (``None`` unless completed). Captured
    #: at completion on purpose: result objects reference live dataset
    #: attributes a later request could never retroactively change here.
    export: Optional[Dict[str, Any]] = None
    #: partial degradation payload for a deadline-expired request,
    #: reconstructed from the spool journal's valid prefix
    degradation: Optional[Dict[str, Any]] = None
    #: ``"Type: message"`` of the failure, for expired/crashed outcomes
    error: Optional[str] = None
    epoch_parent: Optional[int] = None
    epoch_published: Optional[int] = None
    #: did the run start from a non-empty warm preload?
    warm: bool = False
    #: the exact config the run executed with (standalone comparator input)
    effective_config: Optional[WebIQConfig] = None
    #: spend charged to the tenant's ledger for this request
    queries: int = 0
    probes: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class ServiceEvent:
    """One streamed progress event (submitted/started/published/...)."""

    kind: str
    request_id: str
    tenant: str
    detail: str = ""


class ServiceStats:
    """The service ledger: per-tenant accounts plus the warm/cold split.

    Deliberately wall-clock-free: "latency" is simulated seconds from the
    runs' stopwatches, so two identical workloads produce byte-identical
    stats (the determinism the service suite asserts). Real wall clocks
    stay in-memory diagnostics, outside the ledger.
    """

    def __init__(self) -> None:
        self.ledgers: Dict[str, TenantLedger] = {}
        self.submitted = 0
        self.admitted = 0
        self.rejected: Dict[str, int] = {}
        self.completed = 0
        self.shed = 0
        self.deadline_expired = 0
        self.crashed = 0
        self.warm_runs = 0
        self.cold_runs = 0
        self.warm_seconds = 0.0
        self.cold_seconds = 0.0
        #: one record per *executed* request (completed/shed/expired/crashed)
        self.records: List[Dict[str, Any]] = []

    def ledger_for(self, tenant: str) -> TenantLedger:
        ledger = self.ledgers.get(tenant)
        if ledger is None:
            ledger = self.ledgers[tenant] = TenantLedger(tenant=tenant)
        return ledger

    @property
    def warm_mean_seconds(self) -> float:
        return self.warm_seconds / self.warm_runs if self.warm_runs else 0.0

    @property
    def cold_mean_seconds(self) -> float:
        return self.cold_seconds / self.cold_runs if self.cold_runs else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": {k: self.rejected[k] for k in sorted(self.rejected)},
            "completed": self.completed,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "crashed": self.crashed,
            "warm_runs": self.warm_runs,
            "cold_runs": self.cold_runs,
            "warm_seconds": round(self.warm_seconds, 6),
            "cold_seconds": round(self.cold_seconds, 6),
            "tenants": {
                tenant: self.ledgers[tenant].to_dict()
                for tenant in sorted(self.ledgers)
            },
            "records": list(self.records),
        }


class MatchingService:
    """See the module docstring for the lifecycle this class implements."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        on_event: Optional[Callable[[ServiceEvent], None]] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        registry: Optional[RegistryStore] = None
        directory = self.config.registry_dir
        if directory is not None and os.path.exists(
                os.path.join(directory, "registry.json")):
            registry = RegistryStore.load(directory)
        self.warm = WarmState(registry=registry)
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            quantum=self.config.quantum,
        )
        self.stats = ServiceStats()
        self.events: List[ServiceEvent] = []
        self.responses: Dict[str, MatchResponse] = {}
        #: domain -> its world for the last seed asked
        self.worlds: Dict[str, DomainWorld] = {}
        self._on_event = on_event
        self._next_id = 1

    # ------------------------------------------------------------- intake
    def submit(self, request: MatchRequest) -> str:
        """Admit ``request`` (returns its id) or raise AdmissionRejected.

        A rejected request is fully accounted (per-tenant and per-reason)
        but spends nothing and never touches warm state.
        """
        if (request.deadline_seconds is not None
                and self.config.spool_dir is None):
            raise ValidationError(
                "a deadline request needs ServiceConfig.spool_dir: expiry "
                "is only sound at journal boundaries"
            )
        self.stats.submitted += 1
        ledger = self.stats.ledger_for(request.tenant)
        quota = self.config.quotas.get(
            request.tenant, self.config.default_quota)
        request_id = f"r{self._next_id:04d}"
        self._next_id += 1
        try:
            self.admission.offer(
                replace(request, request_id=request_id),
                ledger=ledger, quota=quota,
            )
        except AdmissionRejected as exc:
            self.stats.rejected[exc.reason] = \
                self.stats.rejected.get(exc.reason, 0) + 1
            ledger.note_rejection(exc.reason)
            self._emit("rejected", request_id, request.tenant, exc.reason)
            raise
        self.stats.admitted += 1
        ledger.admitted += 1
        self._emit("submitted", request_id, request.tenant, request.domain)
        return request_id

    # ------------------------------------------------------------ serving
    def run_pending(self) -> List[MatchResponse]:
        """Drain the queue in DRR order; one response per dispatched
        request, in execution order."""
        responses: List[MatchResponse] = []
        while True:
            request = self.admission.next_request()
            if request is None:
                return responses
            responses.append(self._execute(request))

    def drive(self, requests: List[MatchRequest]) -> List[MatchResponse]:
        """Submit then drain — the deterministic workload entry point.

        Rejections are absorbed into the stats/events (the driver's job
        is to exercise the service, not to die on the first full queue).
        """
        for request in requests:
            try:
                self.submit(request)
            except AdmissionRejected:
                pass
        return self.run_pending()

    # ------------------------------------------------------------ internals
    def _emit(self, kind: str, request_id: str, tenant: str,
              detail: str = "") -> None:
        event = ServiceEvent(kind=kind, request_id=request_id,
                             tenant=tenant, detail=detail)
        self.events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def effective_config(self, request: MatchRequest) -> WebIQConfig:
        """The config a request actually runs with.

        The registry knob is cleared (the service owns registry
        persistence, copy-on-write); a deadline attaches a per-request checkpoint spool and a run
        supervisor budget so expiry preempts at a journal boundary.
        """
        cfg = request.config
        if cfg.registry is not None:
            cfg = replace(cfg, registry=None)
        if request.deadline_seconds is not None and cfg.checkpoint is None:
            assert self.config.spool_dir is not None  # enforced at submit
            spool = os.path.join(self.config.spool_dir,
                                 f"spool-{request.request_id}")
            cfg = replace(cfg, checkpoint=CheckpointConfig(directory=spool))
        if request.deadline_seconds is not None:
            supervisor = cfg.supervisor or SupervisorConfig()
            cfg = replace(cfg, supervisor=replace(
                supervisor, run_deadline_seconds=request.deadline_seconds))
        return cfg

    def _execute(self, request: MatchRequest) -> MatchResponse:
        request_id = request.request_id or "r????"
        ledger = self.stats.ledger_for(request.tenant)
        quota = self.config.quotas.get(
            request.tenant, self.config.default_quota)

        # Quota re-check at dispatch: the tenant may have gone over while
        # this request sat in the queue. Shedding touches no warm state.
        over = quota.exceeded_by(ledger)
        if over is not None:
            self.stats.shed += 1
            ledger.shed += 1
            self._record(request_id, request.tenant, SHED, False, 0, 0, 0.0)
            self._emit("shed", request_id, request.tenant, over)
            response = MatchResponse(
                request_id=request_id, tenant=request.tenant, outcome=SHED,
                error=f"AdmissionRejected: {over}")
            self.responses[request_id] = response
            return response

        parent = self.warm.begin(request_id)
        warm_start = not parent.warm.is_empty
        effective = self.effective_config(request)
        self._emit("started", request_id, request.tenant,
                   f"epoch={parent.epoch_id} warm={warm_start}")
        preload = None if parent.warm.is_empty else parent.warm
        try:
            # Dataset construction is inside the crash domain on purpose:
            # a bad request (unknown domain, absurd sizes) must crash
            # *this* request, not the serve loop.
            world = self._world(request.domain, request.seed)
            dataset = build_domain_dataset(
                request.domain, n_interfaces=request.n_interfaces,
                seed=request.seed, world=world)
            result = WebIQMatcher(effective).run(dataset, warm=preload)
            # Assimilation shares the crash domain: a registry that cannot
            # take this run's interfaces (another domain's registry, say)
            # crashes *this* request and abandons its epoch.
            registry = (self._assimilate(parent, dataset, effective)
                        if request.assimilate else None)
        except DeadlineExceededError as exc:
            return self._expire(request, parent, effective, warm_start, exc)
        except Exception as exc:  # noqa: BLE001 — crash isolation is the point
            self.warm.abandon(parent, request_id)
            self.stats.crashed += 1
            ledger.crashed += 1
            error = f"{type(exc).__name__}: {exc}"
            self._record(request_id, request.tenant, CRASHED, warm_start,
                         0, 0, 0.0)
            self._emit("crashed", request_id, request.tenant, error)
            response = MatchResponse(
                request_id=request_id, tenant=request.tenant,
                outcome=CRASHED, error=error,
                epoch_parent=parent.epoch_id, warm=warm_start,
                effective_config=effective)
            self.responses[request_id] = response
            return response

        # ---- success: derive, publish, charge — in that order.
        new_warm = result.cache_content or CachePreload()
        info = ServiceRunInfo(
            request_id=request_id, tenant=request.tenant,
            epoch_parent=parent.epoch_id,
            epoch_published=parent.epoch_id + 1,
            warm=warm_start, outcome=COMPLETED)
        result.service = info
        export = run_result_to_dict(result)
        epoch = self.warm.publish(parent, warm=new_warm, registry=registry,
                                  published_by=request_id)
        if registry is not None and self.config.registry_dir is not None:
            with RegistryLock(self.config.registry_dir,
                              owner=f"service:{request_id}"):
                registry.save(self.config.registry_dir)
        queries = (result.stopwatch.queries("surface")
                   + result.stopwatch.queries("attr_surface"))
        probes = result.stopwatch.queries("attr_deep")
        seconds = result.stopwatch.total_seconds
        ledger.charge(queries=queries, probes=probes, seconds=seconds)
        ledger.completed += 1
        self.stats.completed += 1
        if warm_start:
            self.stats.warm_runs += 1
            self.stats.warm_seconds += seconds
        else:
            self.stats.cold_runs += 1
            self.stats.cold_seconds += seconds
        self._record(request_id, request.tenant, COMPLETED, warm_start,
                     queries, probes, seconds)
        self._emit("published", request_id, request.tenant,
                   f"epoch={epoch.epoch_id}")
        response = MatchResponse(
            request_id=request_id, tenant=request.tenant, outcome=COMPLETED,
            export=export, epoch_parent=parent.epoch_id,
            epoch_published=epoch.epoch_id, warm=warm_start,
            effective_config=effective, queries=queries, probes=probes,
            seconds=seconds)
        self.responses[request_id] = response
        return response

    def _world(self, domain: str, seed: int) -> DomainWorld:
        """The domain's world for ``seed``, built on first use.

        The entry is made only once the world is built, so a failed build
        (an unknown domain) leaves the table as it was. A new seed
        replaces the domain's world, Web and memo together.
        """
        world = self.worlds.get(domain)
        if world is None or world.seed != seed:
            world = build_world(domain, seed)
            self.worlds[domain] = world
        return world

    def _expire(self, request: MatchRequest, parent: Epoch,
                effective: WebIQConfig, warm_start: bool,
                exc: DeadlineExceededError) -> MatchResponse:
        """Graceful degradation: abandon the epoch, salvage the journal.

        The spool journal's valid prefix is paid-for work — its spend is
        real and charged to the tenant (quota conservation counts every
        round trip the substrates served, not just the successful runs),
        and its last record's resilience snapshot becomes the partial
        degradation payload the tenant gets instead of nothing.
        """
        request_id = request.request_id or "r????"
        ledger = self.stats.ledger_for(request.tenant)
        self.warm.abandon(parent, request_id)
        queries = probes = 0
        degradation: Optional[Dict[str, Any]] = None
        assert effective.checkpoint is not None
        try:
            journal = RunJournal.open(effective.checkpoint.directory)
        except Exception:  # noqa: BLE001 — a torn spool loses the salvage only
            journal = None
        if journal is not None and journal.records:
            for body in journal.records:
                queries += int(body.get("queries", 0))
                probes += int(body.get("probes", 0))
            state = journal.records[-1].get("state", {})
            client = state.get("client")
            if client is not None:
                degradation = dict(client.get("report", {}))
        seconds = (queries * SEARCH_QUERY_SECONDS
                   + probes * DEEP_PROBE_SECONDS)
        ledger.charge(queries=queries, probes=probes, seconds=seconds)
        ledger.deadline_expired += 1
        self.stats.deadline_expired += 1
        error = f"{type(exc).__name__}: {exc}"
        self._record(request_id, request.tenant, DEADLINE_EXPIRED,
                     warm_start, queries, probes, seconds)
        self._emit("deadline_expired", request_id, request.tenant,
                   f"scope={exc.scope} spent={exc.seconds:.1f}s")
        response = MatchResponse(
            request_id=request_id, tenant=request.tenant,
            outcome=DEADLINE_EXPIRED, degradation=degradation, error=error,
            epoch_parent=parent.epoch_id, warm=warm_start,
            effective_config=effective, queries=queries, probes=probes,
            seconds=seconds)
        self.responses[request_id] = response
        return response

    def _assimilate(self, parent: Epoch, dataset,
                    effective: WebIQConfig) -> RegistryStore:
        """Copy-on-write assimilation of the run's interfaces.

        The parent's store is never touched: mutation happens on a copy
        (:meth:`RegistryStore.copy`) that only becomes visible if the
        epoch publishes, and that keeps the parent's save watermark, so
        persisting it appends one delta. Interfaces the registry already
        holds are skipped — re-running a request must be idempotent.
        """
        if parent.registry is not None:
            store = parent.registry.copy()
        else:
            store = RegistryStore(
                domain=dataset.domain, threshold=effective.threshold,
                linkage=effective.linkage, similarity=effective.similarity)
        held = set(store.interface_ids())
        assimilator = RegistryAssimilator(store)
        for interface in dataset.interfaces:
            if interface.interface_id not in held:
                held.add(interface.interface_id)
                assimilator.assimilate(interface)
        return store

    def _record(self, request_id: str, tenant: str, outcome: str,
                warm: bool, queries: int, probes: int,
                seconds: float) -> None:
        self.stats.records.append({
            "request_id": request_id,
            "tenant": tenant,
            "outcome": outcome,
            "warm": warm,
            "queries": queries,
            "probes": probes,
            "seconds": round(seconds, 6),
        })


def build_workload(
    *,
    seed: int,
    tenants: Tuple[str, ...] = ("acme", "globex"),
    n_requests: int = 6,
    domains: Tuple[str, ...] = ("book",),
    n_interfaces: int = 4,
    config: Optional[WebIQConfig] = None,
    deadline_every: int = 0,
    assimilate_every: int = 0,
) -> List[MatchRequest]:
    """A seeded deterministic request mix for tests and benchmarks.

    Tenant and domain picks come from one :func:`derive_rng` stream, so
    the same seed always yields the same workload; ``deadline_every`` /
    ``assimilate_every`` (0 = never) flag every k-th request.
    """
    rng = derive_rng(seed, "service", "workload")
    cfg = config or WebIQConfig()
    requests: List[MatchRequest] = []
    for index in range(n_requests):
        tenant = tenants[rng.randrange(len(tenants))]
        domain = domains[rng.randrange(len(domains))]
        deadline = (
            8.0 if deadline_every and (index + 1) % deadline_every == 0
            else None
        )
        assimilate = bool(
            assimilate_every and (index + 1) % assimilate_every == 0
        )
        requests.append(MatchRequest(
            tenant=tenant, domain=domain, n_interfaces=n_interfaces,
            seed=7, config=cfg, deadline_seconds=deadline,
            assimilate=assimilate))
    return requests
