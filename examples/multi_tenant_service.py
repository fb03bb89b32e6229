"""The matching service with two tenants: quotas, deadlines, warm epochs.

A single long-lived :class:`~repro.service.MatchingService` serves every
tenant from shared warm state — each completed run publishes its memo
of Surface questions as a new epoch, so the *first* run pays the full Web-access bill
and everyone after starts warm. Admission control keeps tenants honest:

1. ``acme`` runs cold, then warm — watch the simulated-seconds collapse;
2. ``freeloader`` burns through its wall-clock quota and gets a typed
   ``AdmissionRejected`` at the door, spending nothing;
3. ``acme`` asks for an impossible deadline and degrades gracefully —
   the expired run's journaled spend is still charged, but warm state is
   exactly what it was (the epoch chain never sees the failure).

Run:  python examples/multi_tenant_service.py
"""

import tempfile

from repro.service import (
    MatchRequest,
    MatchingService,
    ServiceConfig,
    TenantQuota,
    check_service,
)
from repro.util.errors import AdmissionRejected


def run_one(service: MatchingService, request: MatchRequest):
    service.submit(request)
    return service.run_pending()[0]


def main() -> None:
    with tempfile.TemporaryDirectory() as spool:
        service = MatchingService(ServiceConfig(
            spool_dir=spool,
            # freeloader may spend at most 10 simulated seconds — even
            # one warm run (~11.5 s) exhausts it
            quotas={"freeloader": TenantQuota(max_wall_seconds=10.0)},
        ))

        print("== 1. cold run, then warm runs off the published epoch ==")
        for tenant in ("acme", "freeloader", "acme"):
            response = run_one(service, MatchRequest(
                tenant=tenant, domain="book"))
            print(f"  {response.request_id} {tenant:11} "
                  f"warm={str(response.warm):5} "
                  f"queries={response.queries:3d} "
                  f"sim-seconds={response.seconds:7.2f}")

        print("\n== 2. the over-quota tenant is rejected at the door ==")
        try:
            service.submit(MatchRequest(tenant="freeloader", domain="book"))
        except AdmissionRejected as rejected:
            print(f"  AdmissionRejected (reason={rejected.reason}):")
            print(f"    {rejected}")
        ledger = service.stats.ledger_for("freeloader")
        print(f"  freeloader ledger: {ledger.seconds:.2f} sim-seconds "
              f"spent, rejections={ledger.rejected}")

        print("\n== 3. an infeasible deadline degrades gracefully ==")
        chain_before = list(service.warm.chain)
        # a warm run needs ~11.5 simulated seconds; 5 cannot finish
        response = run_one(service, MatchRequest(
            tenant="acme", domain="book", deadline_seconds=5.0))
        print(f"  {response.request_id} outcome={response.outcome}")
        print(f"    {response.error}")
        print(f"    salvaged spend charged to acme: "
              f"{response.queries} queries, {response.probes} probes, "
              f"{response.seconds:.2f} sim-seconds")
        print(f"    epoch chain before={chain_before} "
              f"after={service.warm.chain}  (failure published nothing)")

        print("\n== 4. the service ledger and its conservation laws ==")
        stats = service.stats
        print(f"  submitted={stats.submitted} admitted={stats.admitted} "
              f"completed={stats.completed} "
              f"expired={stats.deadline_expired} "
              f"rejected={sum(stats.rejected.values())}")
        print(f"  cold runs: {stats.cold_runs} "
              f"(mean {stats.cold_mean_seconds:.2f} sim-sec)  "
              f"warm runs: {stats.warm_runs} "
              f"(mean {stats.warm_mean_seconds:.2f} sim-sec)")
        print(f"  {check_service(service).summary()}")


if __name__ == "__main__":
    main()
