"""The benchmark's three workloads, each driving the program's public API.

A workload is built from its seed alone (:meth:`setup`), then runs
identical *passes* (:meth:`run_pass`). A pass is a fixed list of ops; every
op's output is reduced to a digest so the driver can demand that all
passes of a run agree byte for byte. All three workloads are closed loop
and single-threaded (``workers=1``, the default).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import (
    MATCHING_SECONDS_PER_EVALUATION,
    WebIQConfig,
    WebIQMatcher,
)
from repro.datasets.concepts import DOMAINS
from repro.datasets.dataset import build_domain_dataset
from repro.datasets.interfaces import generate_interfaces
from repro.io import run_result_to_dict
from repro.matching.metrics import evaluate_matches
from repro.registry.assimilate import (
    RegistryAssimilator,
    batch_induced_clusters,
    induced_clusters,
)
from repro.registry.store import RegistryStore
from repro.resilience.client import ResilienceConfig
from repro.resilience.faults import FaultProfile
from repro.service.laws import check_service
from repro.service.server import MatchingService, MatchRequest, ServiceConfig
from repro.util.errors import AdmissionRejected

__all__ = ["Op", "Pass", "WORKLOAD_LAYERS", "WORKLOADS"]

#: Every workload matches the same interface sets: dataset seed 1, the one
#: the repository's Figure-6 reproduction uses. The run seed picks only
#: what leaves the amount of work unchanged (the order domains run in, the
#: tenants' turns, the fault fates), so the spread across seeds measures
#: the program and the machine, not the sample. A held-out seed therefore
#: hides no inputs (see "Seeds" in perfbench/README.md).
DATASET_SEED = 1


def _domain_order(seed: int) -> List[str]:
    order = list(DOMAINS)
    random.Random(seed).shuffle(order)
    return order

#: per-layer metrics a workload reads from exports and service events
#: rather than from the tracer; zero where a workload has no such layer
WORKLOAD_LAYERS = (
    "service.queue_wait_s",
    "service.exec_s",
    "service.rounding_mismatches",
    "perf.cache_hit_ratio",
    "perf.cache_lookups",
    "resilience.faults",
    "resilience.retries",
    "resilience.giveups",
    "io.export_bytes",
)


@dataclass
class Op:
    """One timed operation and the digest of what it produced.

    The stamps are ``perf_counter`` readings: when the op was sent, when it
    began to run, and when it finished. ``submitted`` is earlier than
    ``started`` only where the op waited in a queue (``service-mixed``).
    """

    submitted: float
    started: float
    finished: float
    interfaces: int
    digest: str
    failed: bool = False

    @property
    def wall(self) -> float:
        """Latency: from sent to finished, queue wait included."""
        return self.finished - self.submitted

    @property
    def busy(self) -> float:
        """Seconds the op itself ran."""
        return self.finished - self.started


@dataclass
class Pass:
    """One pass over a workload's ops, plus what its checks found."""

    ops: List[Op]
    #: wall seconds of the timed section (checks and digests excluded)
    wall: float
    f1: float
    sim_seconds: float
    errors: List[str] = field(default_factory=list)
    #: per-layer numbers the workload reads from exports and events
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def interfaces(self) -> int:
        return sum(op.interfaces for op in self.ops)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _op_span(tracer):
    return tracer.span("op") if tracer is not None else nullcontext()


def _cluster_pairs(clusters) -> set:
    return {
        frozenset((a, b))
        for members in clusters
        for i, a in enumerate(members)
        for b in members[i + 1:]
    }


# ------------------------------------------------------------ figure6-batch
class Figure6Batch:
    """Paper Figure 6: 5 domains x 20 interfaces, default WebIQ config.

    One op is one domain's full ``WebIQMatcher.run``; datasets are built
    in set-up.
    """

    name = "figure6-batch"
    n_interfaces = 20

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.matcher = WebIQMatcher(WebIQConfig())
        self.datasets = []

    def setup(self) -> None:
        self.datasets = [
            build_domain_dataset(domain, self.n_interfaces, DATASET_SEED)
            for domain in _domain_order(self.seed)
        ]

    def run_pass(self, tracer=None, first: bool = False) -> Pass:
        ops: List[Op] = []
        f1s: List[float] = []
        sim_seconds = 0.0
        for dataset in self.datasets:
            start = perf_counter()
            with _op_span(tracer):
                result = self.matcher.run(dataset)
            ops.append(Op(start, start, perf_counter(),
                          len(dataset.interfaces),
                          _digest(run_result_to_dict(result))))
            f1s.append(result.metrics.f1)
            sim_seconds += result.stopwatch.total_seconds
        return Pass(ops, sum(op.wall for op in ops),
                    statistics.fmean(f1s), sim_seconds)


# ------------------------------------------------------------ service-mixed
#: outcomes after which a request is finished, as the service names them
#: in its event stream
_TERMINAL_EVENTS = ("published", "shed", "deadline_expired", "crashed")
#: ``check_service`` compares unrounded ledger seconds with records that
#: were rounded to 6 decimals: each record may be off by half a unit
_ROUNDING_PER_RECORD = 5e-7


class _ClosedLoopClient:
    """Each tenant keeps exactly one request outstanding: the next one is
    submitted when the service reports the previous one finished."""

    def __init__(self, plan: Dict[str, List[MatchRequest]]) -> None:
        self.pending = {tenant: list(requests)
                        for tenant, requests in plan.items()}
        self.stamps: Dict[str, Dict[str, float]] = {}
        self.rejected: List[str] = []
        self.service: Optional[MatchingService] = None

    def submit_next(self, tenant: str) -> None:
        if not self.pending[tenant]:
            return
        try:
            self.service.submit(self.pending[tenant].pop(0))
        except AdmissionRejected as exc:
            self.rejected.append(f"{tenant}: {exc}")

    def on_event(self, event) -> None:
        self.stamps.setdefault(event.request_id, {})[event.kind] = \
            perf_counter()
        if event.kind in _TERMINAL_EVENTS:
            self.submit_next(event.tenant)


def audit_service(service: MatchingService) -> Tuple[List[str], int]:
    """``check_service`` with its one known false positive re-judged.

    The quota-conservation law compares each tenant's unrounded ledger
    seconds with the sum of per-request records that ``_record`` rounded
    to 6 decimals, at a fixed 1e-6 tolerance. Only that comparison gets
    ``5e-7`` per record; every other law stays exact. Returns the real
    violations and the number of rounding-only mismatches.
    """
    report = check_service(service)
    records: Counter = Counter()
    sums: Dict[str, float] = {}
    for record in service.stats.records:
        records[record["tenant"]] += 1
        sums[record["tenant"]] = sums.get(record["tenant"], 0.0) \
            + record["seconds"]
    errors: List[str] = []
    rounding = 0
    for violation in report.violations:
        tenant = next((
            name for name in service.stats.ledgers
            if violation.invariant == "service-quota-conservation"
            and violation.message.startswith(f"tenant {name} ledger seconds ")
        ), None)
        if tenant is not None:
            drift = abs(service.stats.ledgers[tenant].seconds
                        - sums.get(tenant, 0.0))
            if drift <= _ROUNDING_PER_RECORD * records[tenant]:
                rounding += 1
                continue
        errors.append(str(violation))
    return errors, rounding


class ServiceMixed:
    """One ``MatchingService`` per pass, 3 closed-loop tenants.

    The tenants take turns sending 15 eight-interface requests: three
    rounds over the five domains, in the seed's domain order, with 5%
    injected faults whose fates the seed also picks. Every 5th request
    carries a deadline (checkpoint spool + supervisor) generous enough
    never to expire. Only requests for one domain assimilate: a registry
    holds one domain, and a request for another domain would crash the
    serve loop (see perfbench/README.md).
    """

    name = "service-mixed"
    tenants = ("t0", "t1", "t2")
    requests_per_domain = 3
    n_interfaces = 8
    fault_rate = 0.05
    deadline_every = 5
    deadline_seconds = 3600.0
    assimilate_domain = "book"

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.plan: Dict[str, List[MatchRequest]] = {}

    def setup(self) -> None:
        config = WebIQConfig(resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=self.fault_rate, seed=self.seed)))
        domains = _domain_order(self.seed) * self.requests_per_domain
        self.plan = {tenant: [] for tenant in self.tenants}
        for index, domain in enumerate(domains):
            tenant = self.tenants[index % len(self.tenants)]
            deadline = (self.deadline_seconds
                        if (index + 1) % self.deadline_every == 0 else None)
            self.plan[tenant].append(MatchRequest(
                tenant=tenant, domain=domain,
                n_interfaces=self.n_interfaces, seed=DATASET_SEED,
                config=config, deadline_seconds=deadline,
                assimilate=domain == self.assimilate_domain))

    def run_pass(self, tracer=None, first: bool = False) -> Pass:
        directory = tempfile.mkdtemp(dir=self.work_dir)
        client = _ClosedLoopClient(self.plan)
        service = MatchingService(
            ServiceConfig(spool_dir=os.path.join(directory, "spool"),
                          registry_dir=os.path.join(directory, "registry")),
            on_event=client.on_event)
        client.service = service
        start = perf_counter()
        with _op_span(tracer):
            for tenant in self.tenants:
                client.submit_next(tenant)
            responses = service.run_pending()
        wall = perf_counter() - start
        try:
            return self._judge(service, client, responses, wall)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _judge(self, service, client, responses, wall) -> Pass:
        errors, rounding = audit_service(service)
        errors.extend(client.rejected)
        planned = sum(len(requests) for requests in self.plan.values())
        if len(responses) != planned:
            errors.append(f"{len(responses)} responses for {planned} requests")
        ops: List[Op] = []
        f1s: List[float] = []
        queue_waits: List[float] = []
        execs: List[float] = []
        sim_seconds = 0.0
        export_bytes = 0
        hits = lookups = faults = retries = giveups = 0
        for response in responses:
            stamps = client.stamps[response.request_id]
            finished = next(stamps[kind] for kind in _TERMINAL_EVENTS
                            if kind in stamps)
            queue_waits.append(stamps["started"] - stamps["submitted"])
            execs.append(finished - stamps["started"])
            export = response.export
            if response.outcome != "completed" or export is None:
                errors.append(f"{response.request_id} {response.outcome}: "
                              f"{response.error}")
                ops.append(Op(stamps["submitted"], stamps["started"],
                              finished, self.n_interfaces, "", failed=True))
                continue
            encoded = json.dumps(export, sort_keys=True).encode("utf-8")
            export_bytes += len(encoded)
            ops.append(Op(stamps["submitted"], stamps["started"], finished,
                          self.n_interfaces,
                          hashlib.sha256(encoded).hexdigest()))
            f1s.append(export["metrics"]["f1"])
            sim_seconds += response.seconds
            cache = export["cache"]
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]
            degradation = export["degradation"]
            faults += sum(degradation["faults_by_kind"].values())
            retries += sum(degradation["retries_by_component"].values())
            giveups += sum(degradation["giveups_by_component"].values())
        return Pass(
            ops, wall, statistics.fmean(f1s) if f1s else 0.0, sim_seconds,
            errors=errors,
            layers={
                "service.queue_wait_s": statistics.median(queue_waits),
                "service.exec_s": statistics.median(execs),
                "service.rounding_mismatches": rounding,
                "perf.cache_hit_ratio": hits / lookups if lookups else 0.0,
                "perf.cache_lookups": lookups,
                "resilience.faults": faults,
                "resilience.retries": retries,
                "resilience.giveups": giveups,
                "io.export_bytes": export_bytes,
            })


# ---------------------------------------------------------- registry-stream
class RegistryStream:
    """Incremental registry: per domain, 24 raw interfaces arrive one at a
    time (one ``RegistryAssimilator.assimilate`` per op), and the store is
    saved every 5th add. No acquisition and no Web. The seed picks the
    order the domains stream in."""

    name = "registry-stream"
    n_interfaces = 24
    save_every = 5

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.streams = []

    def setup(self) -> None:
        self.streams = []
        for domain in _domain_order(self.seed):
            generated, truth = generate_interfaces(
                domain, self.n_interfaces, DATASET_SEED)
            self.streams.append((domain,
                                 [item.interface for item in generated],
                                 truth.match_pairs()))

    def run_pass(self, tracer=None, first: bool = False) -> Pass:
        ops: List[Op] = []
        f1s: List[float] = []
        errors: List[str] = []
        evaluated = 0
        for domain, interfaces, truth in self.streams:
            directory = os.path.join(self.work_dir, domain)
            store = RegistryStore(domain=domain)
            assimilator = RegistryAssimilator(store)
            for index, interface in enumerate(interfaces, 1):
                start = perf_counter()
                with _op_span(tracer):
                    record = assimilator.assimilate(interface)
                    if index % self.save_every == 0 \
                            or index == len(interfaces):
                        store.save(directory)
                end = perf_counter()
                evaluated += record.evaluated
                ops.append(Op(start, start, end, 1, _digest([
                    record.to_dict(),
                    [[entry.label, entry.members] for entry in store.entries],
                ])))
            clusters, _ = induced_clusters(store)
            # Batch IceQ is the O(n^2) oracle; later passes are held to the
            # first pass's digests, so checking it once per run suffices.
            if first and clusters != batch_induced_clusters(store):
                errors.append(f"{domain}: induced clusters differ from batch")
            if RegistryStore.load(directory).to_body() != store.to_body():
                errors.append(f"{domain}: save/load round trip differs")
            f1s.append(evaluate_matches(_cluster_pairs(clusters), truth).f1)
        # The registry path charges no simulated time; its sim_overhead_min
        # is the pipeline's matching charge for the pairs it evaluated.
        return Pass(ops, sum(op.wall for op in ops), statistics.fmean(f1s),
                    evaluated * MATCHING_SECONDS_PER_EVALUATION,
                    errors=errors)


WORKLOADS = {
    workload.name: workload
    for workload in (Figure6Batch, ServiceMixed, RegistryStream)
}
