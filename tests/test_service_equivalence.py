"""The service equivalence oracle (DESIGN.md §17, ISSUE 10 acceptance).

An admitted request's export must be byte-identical — after stripping
the format-5 ``service`` section — to the same run executed standalone
with the same effective config and the parent epoch's
:class:`~repro.perf.CachePreload` applied, across the faults × cache ×
checkpoint grid, at several seeded tenant interleavings, and
regardless of what happened to *other* tenants' requests around it
(shed, deadline-expired, rejected at the door). On top of the byte
oracle: zero :mod:`repro.obs.invariants` violations on every replayed
run, the three service laws audited by
:func:`repro.service.check_service`, and deterministic
:class:`~repro.service.ServiceStats` for identical workloads.
"""

import json
from dataclasses import replace

import pytest

from repro.checkpoint import CheckpointConfig
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict, strip_service_section
from repro.obs.invariants import check_run
from repro.resilience import FaultProfile, ResilienceConfig
from repro.service import (
    MatchRequest,
    MatchingService,
    ServiceConfig,
    TenantQuota,
    build_workload,
    check_service,
)
from repro.util.errors import AdmissionRejected

DOMAIN = "book"


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


def drive_tracked(service, requests):
    """``MatchingService.drive`` that also maps request_id → request."""
    by_id = {}
    for request in requests:
        try:
            by_id[service.submit(request)] = request
        except AdmissionRejected:
            pass
    return service.run_pending(), by_id


def assert_standalone_equal(service, response, request, tmp_path):
    """The oracle: replay standalone with the parent epoch's preload."""
    parent = service.warm.epochs[response.epoch_parent]
    effective = response.effective_config
    if effective.checkpoint is not None:
        # The export excludes the journal directory, so the standalone
        # run may (must, here) spool somewhere fresh.
        spool = tmp_path / f"standalone-{response.request_id}"
        effective = replace(
            effective, checkpoint=CheckpointConfig(directory=str(spool)))
    dataset = build_domain_dataset(
        request.domain, n_interfaces=request.n_interfaces, seed=request.seed)
    preload = None if parent.warm.is_empty else parent.warm
    standalone = WebIQMatcher(effective).run(dataset, warm=preload)
    assert canonical(strip_service_section(response.export)) \
        == canonical(run_result_to_dict(standalone))
    report = check_run(standalone)
    assert report.ok, report.summary()
    return standalone


GRID = [
    pytest.param(WebIQConfig(), None, id="baseline"),
    pytest.param(
        WebIQConfig(resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.25, seed=11))),
        None, id="faults"),
    # A generous deadline attaches the checkpoint spool + supervisor but
    # lets the run complete: the checkpointed corner of the grid.
    pytest.param(WebIQConfig(), 1000.0, id="checkpoint"),
]


class TestEquivalenceGrid:
    """Byte-identical exports across faults × cache × checkpoint."""

    @pytest.mark.parametrize("config, deadline", GRID)
    def test_service_runs_equal_standalone(self, config, deadline, tmp_path):
        service = MatchingService(ServiceConfig(spool_dir=str(tmp_path)))
        requests = [
            MatchRequest(tenant=tenant, domain=DOMAIN, config=config,
                         deadline_seconds=deadline)
            for tenant in ("acme", "globex", "acme")
        ]
        responses, by_id = drive_tracked(service, requests)
        assert [r.outcome for r in responses] == ["completed"] * 3
        # first run cold, the rest warm off the published epochs
        assert [r.warm for r in responses] == [False, True, True]
        assert service.warm.chain == [1, 2, 3]
        for response in responses:
            assert_standalone_equal(
                service, response, by_id[response.request_id], tmp_path)
        report = check_service(service)
        assert report.ok, report.summary()

    def test_export_carries_service_coordinates(self, tmp_path):
        service = MatchingService(ServiceConfig())
        responses, _ = drive_tracked(
            service, [MatchRequest(tenant="acme", domain=DOMAIN)])
        export = responses[0].export
        assert export["format"] == 5
        assert export["service"] == {
            "request_id": responses[0].request_id,
            "tenant": "acme",
            "epoch_parent": 0,
            "epoch_published": 1,
            "warm": False,
            "outcome": "completed",
        }
        # and stripping recomputes the lowest representable format
        assert strip_service_section(export)["format"] == 2


class TestSeededInterleavings:
    """≥3 seeded tenant interleavings, all equal to standalone."""

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_interleaving_equal_standalone(self, seed, tmp_path):
        service = MatchingService(
            ServiceConfig(spool_dir=str(tmp_path / "spool")))
        requests = build_workload(
            seed=seed, tenants=("acme", "globex", "initech"),
            n_requests=4, assimilate_every=3)
        responses, by_id = drive_tracked(service, requests)
        assert len(responses) == 4
        assert all(r.outcome == "completed" for r in responses)
        for response in responses:
            assert_standalone_equal(
                service, response, by_id[response.request_id], tmp_path)
        report = check_service(service)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("seed", [3, 9])
    def test_identical_workloads_identical_stats(self, seed, tmp_path):
        def run(tag):
            service = MatchingService(
                ServiceConfig(spool_dir=str(tmp_path / tag)))
            service.drive(build_workload(seed=seed, n_requests=4,
                                         deadline_every=4))
            return service

        first, second = run("a"), run("b")
        assert canonical(first.stats.to_dict()) \
            == canonical(second.stats.to_dict())
        assert first.events == second.events
        for request_id, response in first.responses.items():
            twin = second.responses[request_id]
            assert response.outcome == twin.outcome
            if response.export is not None:
                assert canonical(response.export) == canonical(twin.export)


class TestOtherTenantsMidFlight:
    """Equivalence survives other tenants shedding / expiring around a run."""

    def quotas(self):
        # greedy's first (cold) run charges ~182 simulated seconds, well
        # over its 50-second quota: its second request sheds at dispatch.
        return ServiceConfig(
            quotas={"greedy": TenantQuota(max_wall_seconds=50.0)})

    def test_shed_and_expired_neighbours_leave_the_oracle_intact(
            self, tmp_path):
        config = self.quotas()
        service = MatchingService(
            replace(config, spool_dir=str(tmp_path / "spool")))
        requests = [
            MatchRequest(tenant="greedy", domain=DOMAIN),
            # a warm run needs ~11.5 simulated seconds; 5 expires it
            MatchRequest(tenant="acme", domain=DOMAIN, deadline_seconds=5.0),
            MatchRequest(tenant="greedy", domain=DOMAIN),
            MatchRequest(tenant="acme", domain=DOMAIN),
        ]
        responses, by_id = drive_tracked(service, requests)
        outcomes = {r.request_id: r.outcome for r in responses}
        assert sorted(outcomes.values()) == [
            "completed", "completed", "deadline_expired", "shed"]
        expired = next(r for r in responses
                       if r.outcome == "deadline_expired")
        shed = next(r for r in responses if r.outcome == "shed")
        assert expired.tenant == "acme" and shed.tenant == "greedy"
        # the expired epoch was abandoned, the shed one never begun
        assert expired.request_id in service.warm.abandoned_by
        assert service.warm.chain == [1, 2]
        # the acme run completed AFTER its neighbours expired and shed is
        # still byte-identical to its standalone twin
        survivor = [r for r in responses
                    if r.outcome == "completed" and r.tenant == "acme"][-1]
        assert survivor.warm
        assert_standalone_equal(
            service, survivor, by_id[survivor.request_id], tmp_path)
        # expiry charged the journal's salvaged spend to acme's ledger
        assert expired.seconds > 0 or expired.probes > 0
        report = check_service(service)
        assert report.ok, report.summary()

    def test_shed_requests_leave_warm_state_untouched(self, tmp_path):
        # Both requests are admitted while the ledger is clean; the first
        # run's charge trips the quota, so the second sheds at dispatch.
        service = MatchingService(self.quotas())
        first_id = service.submit(MatchRequest(tenant="greedy",
                                               domain=DOMAIN))
        service.submit(MatchRequest(tenant="greedy", domain=DOMAIN))
        first = service._execute(service.admission.next_request())
        assert first.request_id == first_id
        assert first.outcome == "completed"
        chain_before = list(service.warm.chain)
        current_before = service.warm.current
        begun_before = service.warm.begun
        shed = service.run_pending()
        assert shed[0].outcome == "shed"
        assert shed[0].queries == 0 and shed[0].seconds == 0.0
        assert service.warm.chain == chain_before
        assert service.warm.current is current_before
        # shedding never even begins a derivation
        assert service.warm.begun == begun_before
        report = check_service(service)
        assert report.ok, report.summary()

    def test_door_rejections_never_touch_warm_state(self):
        service = MatchingService(ServiceConfig(max_queue_depth=1))
        service.submit(MatchRequest(tenant="acme", domain=DOMAIN))
        with pytest.raises(AdmissionRejected):
            service.submit(MatchRequest(tenant="globex", domain=DOMAIN))
        assert service.warm.begun == 0
        assert service.stats.rejected == {"queue_full": 1}
        service.run_pending()
        assert service.warm.chain == [1]
        report = check_service(service)
        assert report.ok, report.summary()


class TestCrashIsolation:
    """A crashed request abandons its epoch and poisons nothing."""

    def test_crash_leaves_warm_state_and_neighbours_intact(self, tmp_path):
        service = MatchingService(ServiceConfig())
        # an unknown domain blows up inside dataset construction — the
        # kind of per-request failure crash isolation exists for
        responses, by_id = drive_tracked(service, [
            MatchRequest(tenant="acme", domain=DOMAIN),
            MatchRequest(tenant="evil", domain="no-such-domain"),
            MatchRequest(tenant="acme", domain=DOMAIN),
        ])
        outcomes = [r.outcome for r in responses]
        assert outcomes == ["completed", "crashed", "completed"]
        crashed = responses[1]
        assert crashed.queries == 0 and crashed.seconds == 0.0
        assert crashed.error is not None
        assert crashed.request_id in service.warm.abandoned_by
        assert service.warm.chain == [1, 2]
        survivor = responses[2]
        assert survivor.warm
        assert_standalone_equal(
            service, survivor, by_id[survivor.request_id], tmp_path)
        report = check_service(service)
        assert report.ok, report.summary()

    def test_assimilation_crash_abandons_the_epoch(self):
        """A registry that rejects the run's interfaces (here: another
        domain's registry) crashes the request inside the crash domain —
        the epoch is abandoned and the serve loop keeps going."""
        service = MatchingService(ServiceConfig())
        responses, _ = drive_tracked(service, [
            MatchRequest(tenant="acme", domain="book", n_interfaces=3,
                         assimilate=True),
            MatchRequest(tenant="acme", domain="auto", n_interfaces=3,
                         assimilate=True),
        ])
        assert [r.outcome for r in responses] == ["completed", "crashed"]
        assert "RegistryMismatchError" in responses[1].error
        assert (service.warm.begun, service.warm.published,
                service.warm.abandoned) == (2, 1, 1)
        assert service.warm.current.registry.domain == "book"
        report = check_service(service)
        assert report.ok, report.summary()


class TestQuotaConservationTolerance:
    """Records round seconds to 6 decimals; ledgers keep them raw."""

    def test_many_rounded_records_conserve_quota(self):
        service = MatchingService(ServiceConfig())
        ledger = service.stats.ledger_for("acme")
        # each record rounds 0.4 µs away: 8 records drift 3.2 µs in total,
        # past a fixed 1e-6 tolerance but within 8 × 5e-7
        for index in range(8):
            ledger.charge(queries=1, probes=0, seconds=1.0000004)
            service._record(f"r{index:04d}", "acme", "deadline_expired",
                            False, 1, 0, 1.0000004)
        report = check_service(service)
        assert report.ok, report.summary()

    def test_real_seconds_drift_still_breaks_the_law(self):
        service = MatchingService(ServiceConfig())
        service.stats.ledger_for("acme").charge(
            queries=1, probes=0, seconds=1.00001)
        service._record("r0000", "acme", "deadline_expired", False, 1, 0,
                        1.0)
        report = check_service(service)
        assert not report.ok
        assert any("ledger seconds" in v.message for v in report.violations)
