"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``stats``     — Table-1-style dataset characteristics for one/all domains
- ``run``       — full pipeline on a domain; prints accuracy, acquisition
  success, and overhead; optional JSON export of the run
- ``discover``  — Surface instance discovery for a single label (the §2
  pipeline, verbose)
- ``export``    — snapshot a generated dataset to JSON
- ``diff``      — compare two exported runs and classify the drift
- ``journal``   — inspect or salvage a run's checkpoint journal
- ``registry``  — build, extend, inspect or batch-check a canonical
  attribute registry (incremental matching, see :mod:`repro.registry`)
- ``bench``     — compare versioned benchmark artifacts; ``bench diff
  BASELINE CURRENT`` classifies per-metric drift against the baseline's
  declared tolerances (exit 1 on regression, 2 on workload mismatch)
- ``serve``     — boot the long-running matching service and drive a JSON
  request script through it: warm epochs, admission control, per-tenant
  quotas, deadlines (exit 1 on --strict violations, 2 on a bad script)
- ``request``   — execute one request through a fresh service instance;
  exit 0 completed, 3 deadline-expired, 5 admission-rejected, 6 crashed.
  ``--strip-service --json PATH`` writes the export without its service
  section, byte-comparable against ``run --json`` output

``run --profile PATH`` profiles the run with the deterministic span
profiler (:mod:`repro.obs.profile`): hot-path work counters plus
self/cumulative time per span path, written as sorted JSON to PATH and
as collapsed-stack lines to ``PATH.folded`` for flamegraph tooling.

``run --report PATH`` writes a provenance-backed run report (accuracy,
acquisition yield, hardest match decisions); ``run --explain ATTR``
prints the match explanations touching one attribute. ``run --checkpoint
DIR`` journals every completed unit of work so a killed run resumes with
``--resume`` (exit code 3 marks a preempted run, ``--kill-at N`` preempts
deterministically for testing); ``run --supervise`` wraps the run in the
self-healing supervisor, which auto-resumes after crashes, salvages torn
journals, and quarantines poisoned units (exit code 4 when the restart
budget is exhausted); ``run --strict`` exits non-zero if any cross-layer
invariant is violated. Everything is deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.core.surface import SurfaceDiscoverer
from repro.datasets import DOMAINS, build_domain_dataset, dataset_statistics
from repro.deepweb.models import Attribute

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WebIQ reproduction: match Deep-Web query interfaces "
                    "with Web-acquired instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="dataset characteristics (Table 1)")
    _common(stats)

    run = sub.add_parser("run", help="run the WebIQ + IceQ pipeline")
    _common(run)
    run.add_argument("--baseline", action="store_true",
                     help="disable all WebIQ components (IceQ alone)")
    run.add_argument("--threshold", type=float, default=0.0,
                     help="clustering threshold tau (default 0.0)")
    run.add_argument("--no-surface", action="store_true")
    run.add_argument("--no-attr-deep", action="store_true")
    run.add_argument("--no-attr-surface", action="store_true")
    run.add_argument("--json", metavar="PATH",
                     help="write the full run result as JSON")
    run.add_argument("--fault-rate", type=float, default=0.0,
                     help="inject Web faults at this rate (0..1) and run "
                          "behind the resilience layer")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the fault streams (default 0)")
    run.add_argument("--probe-budget", type=int, default=None,
                     help="cap on Attr-Deep form submissions per run")
    run.add_argument("--query-budget", type=int, default=None,
                     help="cap on search-engine round trips per component")
    run.add_argument("--degradation", action="store_true",
                     help="print the full degradation report")
    run.add_argument("--trace", metavar="PATH",
                     help="trace the run and write the trace + metrics "
                          "as deterministic JSON")
    run.add_argument("--profile", metavar="PATH",
                     help="profile the run: write span self/cumulative "
                          "times, hot-path work counters and per-phase "
                          "rollups as JSON to PATH, plus collapsed "
                          "stacks to PATH.folded (flamegraph input); "
                          "strictly read-only — results are unchanged")
    run.add_argument("--metrics", action="store_true",
                     help="trace the run and print the observability and "
                          "invariant-check summaries")
    run.add_argument("--report", metavar="PATH",
                     help="record decision provenance and write a run "
                          "report (accuracy, acquisition yield, hardest "
                          "decisions) as text to PATH")
    run.add_argument("--explain", metavar="ATTR",
                     help="record decision provenance and print the match "
                          "explanations touching attributes whose name "
                          "contains ATTR")
    run.add_argument("--checkpoint", metavar="DIR",
                     help="journal every completed unit of work to DIR so "
                          "a killed run can resume without re-spending its "
                          "queries")
    run.add_argument("--resume", action="store_true",
                     help="replay the journal in --checkpoint DIR before "
                          "doing fresh work (requires --checkpoint)")
    run.add_argument("--kill-at", type=int, default=None, metavar="N",
                     help="deterministically abort the run right after "
                          "journal boundary N (crash-safety testing; "
                          "requires --checkpoint; exit code 3)")
    run.add_argument("--supervise", action="store_true",
                     help="run under the self-healing supervisor: crashes "
                          "and preemptions auto-resume from the journal, "
                          "torn journals are salvaged, and units that "
                          "crash repeatedly are quarantined (requires "
                          "--checkpoint; exit code 4 if the restart "
                          "budget runs out)")
    run.add_argument("--max-restarts", type=int, default=None, metavar="K",
                     help="restarts the supervisor absorbs before giving "
                          "up (default 8; requires --supervise)")
    run.add_argument("--unit-deadline", type=float, default=None,
                     metavar="S",
                     help="per-unit simulated-seconds budget; a unit "
                          "exceeding it preempts the run for the "
                          "supervisor to resume (requires --supervise)")
    run.add_argument("--run-deadline", type=float, default=None,
                     metavar="S",
                     help="per-attempt simulated-seconds budget over "
                          "fresh work (requires --supervise)")
    run.add_argument("--strict", action="store_true",
                     help="audit every run with the cross-layer invariant "
                          "checker and exit non-zero on any violation")
    run.add_argument("--registry", metavar="DIR",
                     help="after matching, assimilate the run's interfaces "
                          "into a canonical attribute registry persisted "
                          "at DIR (exports stay byte-identical; the "
                          "registry's induced matching is audited against "
                          "the batch clusters)")

    discover = sub.add_parser(
        "discover", help="Surface instance discovery for one label")
    _common(discover)
    discover.add_argument("label", help='attribute label, e.g. "Departure city"')

    export = sub.add_parser("export", help="snapshot a dataset to JSON")
    _common(export)
    export.add_argument("path", help="output JSON path")

    diff = sub.add_parser(
        "diff", help="compare two exported runs (accuracy, overhead, "
                     "provenance drift)")
    diff.add_argument("old", help="reference run JSON (from run --json)")
    diff.add_argument("new", help="candidate run JSON (from run --json)")

    journal = sub.add_parser(
        "journal", help="inspect or salvage a checkpoint journal")
    jsub = journal.add_subparsers(dest="journal_command", required=True)
    jinspect = jsub.add_parser(
        "inspect", help="verify a journal and print its identity, record "
                        "count and journaled spend (exit 1 if damaged)")
    jinspect.add_argument("directory",
                          help="journal directory (from run --checkpoint)")
    jsalvage = jsub.add_parser(
        "salvage", help="truncate a damaged journal to its longest valid "
                        "prefix, copying the torn tail to quarantine/")
    jsalvage.add_argument("directory",
                          help="journal directory (from run --checkpoint)")

    registry = sub.add_parser(
        "registry", help="build/extend/inspect a canonical attribute "
                         "registry with incremental matching")
    rsub = registry.add_subparsers(dest="registry_command", required=True)
    rbuild = rsub.add_parser(
        "build", help="assimilate a domain's interfaces one at a time "
                      "into a fresh registry at DIR")
    _common(rbuild)
    _registry_matching_flags(rbuild)
    rbuild.add_argument("--hold-out", type=int, default=0, metavar="K",
                        help="leave the last K interfaces out of the "
                             "build (assimilate them later with "
                             "`registry add`)")
    rbuild.add_argument("--induced", metavar="PATH",
                        help="also write the registry's induced matching "
                             "as JSON to PATH")
    rbuild.add_argument("directory", help="registry directory to create")
    radd = rsub.add_parser(
        "add", help="assimilate one more interface into an existing "
                    "registry")
    _common(radd)
    radd.add_argument("--index", type=int, required=True, metavar="I",
                      help="dataset index of the interface to assimilate")
    radd.add_argument("--induced", metavar="PATH",
                      help="also write the registry's induced matching "
                           "as JSON to PATH")
    radd.add_argument("directory", help="existing registry directory")
    rshow = rsub.add_parser(
        "show", help="verify a registry, print its on-disk layout, derive "
                     "and print its entries, and print its blocking "
                     "ledger (exit 1 if damaged)")
    rshow.add_argument("directory", help="registry directory")
    rbatch = rsub.add_parser(
        "batch", help="run batch IceQ over the same interfaces and write "
                      "the induced matching JSON (the oracle `registry "
                      "build`+`add` must equal byte for byte)")
    _common(rbatch)
    _registry_matching_flags(rbatch)
    rbatch.add_argument("--induced", required=True, metavar="PATH",
                        help="output JSON path")

    bench = sub.add_parser(
        "bench", help="compare versioned benchmark artifacts")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    bdiff = bsub.add_parser(
        "diff", help="classify per-metric drift of CURRENT against "
                     "BASELINE using the baseline's declared tolerance "
                     "bands (exit 1 on regression, 2 on workload "
                     "mismatch or a damaged artifact)")
    bdiff.add_argument("baseline", help="committed baseline BENCH_*.json")
    bdiff.add_argument("current", help="freshly produced BENCH_*.json")

    serve = sub.add_parser(
        "serve", help="boot the matching service and drive a request "
                      "script against warm shared state")
    serve.add_argument("--script", required=True, metavar="PATH",
                       help="JSON request script: a list of request "
                            "objects, or {\"quotas\": {...}, "
                            "\"requests\": [...]}")
    serve.add_argument("--spool", metavar="DIR",
                       help="checkpoint spool directory (required before "
                            "any scripted request may carry a deadline)")
    serve.add_argument("--registry", metavar="DIR",
                       help="persist the service registry at DIR "
                            "(assimilating requests publish into it)")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="bounded request queue depth (default 8)")
    serve.add_argument("--export-dir", metavar="DIR",
                       help="write each completed request's export as "
                            "DIR/<request-id>.json")
    serve.add_argument("--stats-json", metavar="PATH",
                       help="write the deterministic ServiceStats ledger "
                            "as JSON")
    serve.add_argument("--strict", action="store_true",
                       help="audit the service conservation laws and exit "
                            "1 on any violation")

    request = sub.add_parser(
        "request", help="execute one request through a fresh service "
                        "instance (exit 0/3/5/6: completed / "
                        "deadline-expired / rejected / crashed)")
    _common(request)
    request.add_argument("--tenant", default="cli",
                         help="tenant the request is billed to "
                              "(default 'cli')")
    request.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="simulated-seconds budget for the run "
                              "(requires --spool; graceful degradation on "
                              "expiry)")
    request.add_argument("--spool", metavar="DIR",
                         help="checkpoint spool directory for deadline "
                              "requests")
    request.add_argument("--registry", metavar="DIR",
                         help="assimilate the run's interfaces into the "
                              "service registry at DIR")
    request.add_argument("--threshold", type=float, default=0.0,
                         help="clustering threshold tau (default 0.0)")
    request.add_argument("--fault-rate", type=float, default=0.0,
                         help="inject Web faults at this rate (0..1)")
    request.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the fault streams (default 0)")
    request.add_argument("--probe-budget", type=int, default=None,
                         help="cap on Attr-Deep form submissions")
    request.add_argument("--query-budget", type=int, default=None,
                         help="cap on engine round trips per component")
    request.add_argument("--json", metavar="PATH",
                         help="write the run export as JSON")
    request.add_argument("--strip-service", action="store_true",
                         help="strip the service section from --json "
                              "output (byte-comparable vs run --json)")
    request.add_argument("--strict", action="store_true",
                         help="audit the service conservation laws and "
                              "exit 1 on any violation")

    analyze = sub.add_parser(
        "analyze", help="error analysis of a matching run")
    _common(analyze)
    analyze.add_argument("--baseline", action="store_true",
                         help="analyse IceQ alone instead of IceQ+WebIQ")
    analyze.add_argument("--top", type=int, default=8,
                         help="error groups to show per kind")

    figure = sub.add_parser(
        "figure", help="regenerate one of the paper's tables/figures")
    figure.add_argument("id", choices=(
        "table1", "table1-acquisition", "figure6", "figure7", "figure8"))
    figure.add_argument("--interfaces", type=int, default=20)
    figure.add_argument("--seed", type=int, default=1)
    return parser


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domain", choices=DOMAINS + ("all",),
                        default="airfare")
    parser.add_argument("--interfaces", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)


def _registry_matching_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="clustering threshold tau (default 0.0)")
    parser.add_argument("--linkage", default="average",
                        choices=("average", "single", "complete"),
                        help="inter-cluster linkage (default average)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "stats": _cmd_stats,
        "run": _cmd_run,
        "discover": _cmd_discover,
        "export": _cmd_export,
        "diff": _cmd_diff,
        "figure": _cmd_figure,
        "analyze": _cmd_analyze,
        "journal": _cmd_journal,
        "registry": _cmd_registry,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "request": _cmd_request,
    }
    return handlers[args.command](args)


def _domains(args) -> List[str]:
    return list(DOMAINS) if args.domain == "all" else [args.domain]


def _cmd_stats(args) -> int:
    print(f"{'domain':11} {'#attr':>6} {'IntNoInst%':>11} "
          f"{'AttrNoInst%':>12} {'ExpInst%':>9}")
    for domain in _domains(args):
        dataset = build_domain_dataset(domain, args.interfaces, args.seed)
        s = dataset_statistics(dataset)
        print(f"{domain:11} {s.avg_attributes:6.1f} "
              f"{s.pct_interfaces_no_inst:11.1f} "
              f"{s.pct_attrs_no_inst:12.1f} {s.pct_expected_findable:9.1f}")
    return 0


def _resilience_config(values, *, attach=False):
    """The ResilienceConfig of a run or service request, or None when it
    injects no fault, sets no budget and ``attach`` is false.

    ``values`` maps ``fault_rate``, ``fault_seed``, ``probe_budget`` and
    ``query_budget`` (command-line flags or a script entry) to values;
    missing keys take their defaults. Raises ValueError for a fault rate
    outside [0, 1].
    """
    fault_rate = values.get("fault_rate", 0.0)
    probe_budget = values.get("probe_budget")
    query_budget = values.get("query_budget")
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(
            f"--fault-rate must be within [0, 1], got {fault_rate}")
    if not (attach or fault_rate > 0.0 or probe_budget is not None
            or query_budget is not None):
        return None
    from repro.resilience import FaultProfile, ResilienceConfig

    return ResilienceConfig(
        profile=FaultProfile(fault_rate=fault_rate,
                             seed=values.get("fault_seed", 0)),
        surface_query_budget=query_budget,
        attr_surface_query_budget=query_budget,
        attr_deep_probe_budget=probe_budget,
    )


def _obs_config(args):
    """Build the run's ObsConfig from CLI flags, or None."""
    if not (args.trace or args.metrics or args.report or args.explain
            or args.profile):
        return None
    from repro.obs import ObsConfig

    return ObsConfig(profile=bool(args.profile))


def _checkpoint_config(args):
    """Build the run's CheckpointConfig from CLI flags, or None."""
    if args.checkpoint is None:
        if args.resume:
            raise SystemExit(
                "repro run: error: --resume requires --checkpoint DIR")
        if args.kill_at is not None:
            raise SystemExit(
                "repro run: error: --kill-at requires --checkpoint DIR")
        return None
    if args.domain == "all":
        raise SystemExit(
            "repro run: error: --checkpoint needs a single --domain "
            "(a journal belongs to exactly one run)")
    if args.resume and (args.trace or args.metrics or args.report
                        or args.explain or args.profile):
        raise SystemExit(
            "repro run: error: --resume cannot be combined with "
            "--trace/--metrics/--report/--explain/--profile (replayed "
            "units issue no calls for the tracer to observe)")
    if args.kill_at is not None and args.kill_at < 0:
        raise SystemExit(
            f"repro run: error: --kill-at must be >= 0, got {args.kill_at}")
    from repro.checkpoint import CheckpointConfig

    return CheckpointConfig(
        directory=args.checkpoint, resume=args.resume, kill_at=args.kill_at)


def _supervisor_config(args):
    """Build the run's SupervisorConfig from CLI flags, or None."""
    if not args.supervise:
        for value, flag in ((args.max_restarts, "--max-restarts"),
                            (args.unit_deadline, "--unit-deadline"),
                            (args.run_deadline, "--run-deadline")):
            if value is not None:
                raise SystemExit(
                    f"repro run: error: {flag} requires --supervise")
        return None
    if args.checkpoint is None:
        raise SystemExit(
            "repro run: error: --supervise requires --checkpoint DIR "
            "(recovery resumes from the journal)")
    if args.trace or args.metrics or args.report or args.explain \
            or args.profile:
        raise SystemExit(
            "repro run: error: --supervise cannot be combined with "
            "--trace/--metrics/--report/--explain/--profile (recovery "
            "resumes from the journal, and resumed units issue no calls "
            "for the tracer to observe)")
    max_restarts = 8 if args.max_restarts is None else args.max_restarts
    if max_restarts < 0:
        raise SystemExit(
            f"repro run: error: --max-restarts must be >= 0, "
            f"got {max_restarts}")
    for value, flag in ((args.unit_deadline, "--unit-deadline"),
                        (args.run_deadline, "--run-deadline")):
        if value is not None and value <= 0:
            raise SystemExit(
                f"repro run: error: {flag} must be positive, got {value}")
    from repro.supervisor import RestartPolicy, SupervisorConfig

    return SupervisorConfig(
        restart=RestartPolicy(max_restarts=max_restarts, seed=args.seed),
        unit_deadline_seconds=args.unit_deadline,
        run_deadline_seconds=args.run_deadline,
    )


def _cmd_run(args) -> int:
    if args.registry is not None and args.domain == "all":
        raise SystemExit(
            "repro run: error: --registry needs a single --domain "
            "(a registry holds exactly one domain)")
    try:
        # a degradation report needs the layer even at rate 0
        resilience = _resilience_config(vars(args), attach=args.degradation)
    except ValueError as exc:
        raise SystemExit(f"repro run: error: {exc}")
    config = WebIQConfig(
        enable_surface=not (args.baseline or args.no_surface),
        enable_attr_deep=not (args.baseline or args.no_attr_deep),
        enable_attr_surface=not (args.baseline or args.no_attr_surface),
        threshold=args.threshold,
        resilience=resilience,
        obs=_obs_config(args),
        checkpoint=_checkpoint_config(args),
        supervisor=_supervisor_config(args),
        registry=args.registry,
    )
    from repro.util.errors import PreemptionError, SupervisionExhaustedError

    results = []
    strict_ok = True
    for domain in _domains(args):
        dataset = build_domain_dataset(domain, args.interfaces, args.seed)
        try:
            if args.supervise:
                from dataclasses import replace

                from repro.supervisor import RunSupervisor

                # The supervisor owns the kill switch: --kill-at arms
                # attempt 0 only, and recovery attempts run unarmed.
                kill_schedule = () if args.kill_at is None \
                    else (args.kill_at,)
                supervised = replace(
                    config,
                    checkpoint=replace(config.checkpoint, kill_at=None))
                result = RunSupervisor(
                    supervised, kill_schedule=kill_schedule).run(dataset)
            else:
                result = WebIQMatcher(config).run(dataset)
        except SupervisionExhaustedError as exc:
            print(f"{domain:11} {exc}", file=sys.stderr)
            print(f"journal in {args.checkpoint} is durable; inspect it "
                  f"with `repro journal inspect {args.checkpoint}`",
                  file=sys.stderr)
            return 4
        except PreemptionError as exc:
            print(f"{domain:11} {exc}", file=sys.stderr)
            print(f"journal in {args.checkpoint} is durable; continue with "
                  f"--checkpoint {args.checkpoint} --resume",
                  file=sys.stderr)
            return 3
        results.append(result)
        m = result.metrics
        line = (f"{domain:11} P={m.precision:.3f} R={m.recall:.3f} "
                f"F1={m.f1:.3f}")
        if result.acquisition is not None:
            line += (f"  surface%={result.acquisition.surface_success_rate:.1f}"
                     f" final%={result.acquisition.final_success_rate:.1f}")
        print(line)
        if result.degradation is not None:
            if args.degradation:
                print(result.degradation.summary())
            elif not result.degradation.empty:
                d = result.degradation
                print(f"  degraded: {d.total_faults} faults, "
                      f"{d.total_retries} retries "
                      f"({d.total_backoff_seconds:.1f}s backoff); "
                      f"use --degradation for details")
        if result.cache is not None:
            print(f"  {result.cache.summary()}")
        if result.checkpoint is not None:
            print(f"  {result.checkpoint.summary()}")
        if result.supervisor is not None:
            print(f"  {result.supervisor.summary()}")
        if result.registry is not None:
            r = result.registry
            reduction = (100.0 * r.blocked / r.pairs_considered
                         if r.pairs_considered else 0.0)
            print(f"  registry: {r.n_entries} entries over {r.n_views} "
                  f"attributes; blocking skipped {r.blocked}/"
                  f"{r.pairs_considered} cross pairs "
                  f"({reduction:.1f}%) -> {r.directory}")
        if result.obs is not None:
            from repro.obs import check_run
            print(f"  {result.obs.summary()}")
            print(f"  {check_run(result).summary()}")
        if args.strict:
            from repro.obs import check_run
            audit = check_run(result)
            if result.obs is None:
                # (with obs the summary was just printed above)
                print(f"  {audit.summary()}")
            if not audit.ok:
                strict_ok = False
        if args.trace:
            import json as _json
            from repro.io import observability_to_dict
            path = args.trace if args.domain != "all" else \
                f"{args.trace}.{domain}.json"
            with open(path, "w") as handle:
                _json.dump(observability_to_dict(result.obs), handle,
                           indent=2, sort_keys=True)
            print(f"  wrote {path}")
        if args.profile:
            from repro.obs import build_profile, hottest_paths, write_profile
            profile = build_profile(result)
            path = args.profile if args.domain != "all" else \
                f"{args.profile}.{domain}.json"
            folded = write_profile(path, profile)
            hottest = hottest_paths(profile, limit=3)
            if hottest:
                top = hottest[0]
                print(f"  profile: hottest span {top['path']} "
                      f"(self {top['t_self']:.1f}s simulated over "
                      f"{top['count']} call(s)); digest "
                      f"{profile['digest']}")
            print(f"  wrote {path} and {folded}")
        if args.json:
            from repro.io import dump_run_result
            path = args.json if args.domain != "all" else \
                f"{args.json}.{domain}.json"
            dump_run_result(result, path)
            print(f"  wrote {path}")
        if args.explain:
            _print_explanations(result, args.explain)
    if args.report:
        from repro.obs import build_run_report
        report = build_run_report(results)
        with open(args.report, "w") as handle:
            handle.write(report.render())
        print(f"wrote report {args.report}")
    if not strict_ok:
        print("strict mode: invariant violations detected", file=sys.stderr)
        return 1
    return 0


def _print_explanations(result, needle: str) -> None:
    """Print every match explanation touching attributes named ``needle``."""
    provenance = result.obs.provenance if result.obs is not None else None
    if provenance is None:
        print("  (no provenance recorded — explanations unavailable)")
        return
    explanations = provenance.explanations_involving(needle)
    if not explanations:
        print(f"  no match evaluations touch {needle!r}")
        return
    print(f"  {len(explanations)} match evaluations touch {needle!r}:")
    for e in sorted(explanations, key=lambda e: (-e.sim, e.a, e.b)):
        verdict = "candidate match" if e.exceeds_threshold else "no match"
        print(f"    {e.a[0]}.{e.a[1]} ~ {e.b[0]}.{e.b[1]}: "
              f"Sim={e.sim:.4f} = {e.alpha}*LabelSim({e.label_sim:.4f}) "
              f"+ {e.beta}*DomSim({e.dom_sim:.4f}) "
              f"vs tau={e.threshold:.2f} -> {verdict}")
        if e.exceeds_threshold:
            merge = provenance.committing_merge(e.a, e.b)
            if merge is not None:
                print(f"      committed by merge step {merge.step} "
                      f"(linkage {merge.linkage_value:.4f})")


def _cmd_diff(args) -> int:
    from repro.io import load_run_result
    from repro.obs import diff_runs

    diff = diff_runs(load_run_result(args.old), load_run_result(args.new))
    print(diff.summary(), end="")
    return 1 if diff.has_regression else 0


def _cmd_bench(args) -> int:
    from repro.bench import (
        BenchArtifactError,
        BenchWorkloadMismatch,
        diff_benches,
        load_bench,
    )

    try:
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
        diff = diff_benches(baseline, current)
    except (BenchArtifactError, BenchWorkloadMismatch) as exc:
        print(f"bench diff: {exc}", file=sys.stderr)
        return 2
    for drift in diff.drifts:
        print(f"  {drift.describe()}")
    print(diff.summary())
    return 1 if diff.has_regression else 0


#: script keys that take a number, as the matching command-line flags
#: do (``float`` flags: any JSON number; ``int`` flags: an integer), and
#: those of them that may also be ``null`` (no deadline, no budget)
_SCRIPT_NUMBERS = ("threshold", "fault_rate", "cost", "deadline")
_SCRIPT_INTEGERS = ("interfaces", "seed", "fault_seed", "probe_budget",
                    "query_budget")
_SCRIPT_NULLABLE = ("deadline", "probe_budget", "query_budget")


def _scripted_request(entry, position: int):
    """One script entry -> a MatchRequest (raises ValueError if bad)."""
    from repro.service import MatchRequest

    if not isinstance(entry, dict):
        raise ValueError(f"request {position}: not an object")
    known = {"tenant", "domain", "interfaces", "seed", "deadline",
             "assimilate", "cost", "threshold", "fault_rate", "fault_seed",
             "probe_budget", "query_budget"}
    unknown = set(entry) - known
    if unknown:
        raise ValueError(
            f"request {position}: unknown keys {sorted(unknown)}")
    if "domain" not in entry:
        raise ValueError(f"request {position}: missing 'domain'")
    for key, value in entry.items():
        if key in _SCRIPT_NUMBERS:
            kinds, kind = (int, float), "a number"
        elif key in _SCRIPT_INTEGERS:
            kinds, kind = int, "an integer"
        else:
            continue
        # JSON true/false parse to bool, which Python counts as an int
        if (isinstance(value, bool) or not isinstance(value, kinds)) and \
                not (value is None and key in _SCRIPT_NULLABLE):
            raise ValueError(
                f"request {position}: {key!r} must be {kind}, "
                f"got {value!r}")
    config = WebIQConfig(threshold=entry.get("threshold", 0.0),
                         resilience=_resilience_config(entry))
    return MatchRequest(
        tenant=entry.get("tenant", "anon"),
        domain=entry["domain"],
        n_interfaces=entry.get("interfaces", 4),
        seed=entry.get("seed", 7),
        config=config,
        deadline_seconds=entry.get("deadline"),
        assimilate=bool(entry.get("assimilate", False)),
        cost=float(entry.get("cost", 1.0)),
    )


def _cmd_serve(args) -> int:
    import json

    from repro.service import (
        MatchingService,
        ServiceConfig,
        TenantQuota,
        check_service,
    )

    try:
        with open(args.script) as handle:
            script = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro serve: bad script: {exc}", file=sys.stderr)
        return 2
    if isinstance(script, list):
        script = {"requests": script}
    if not isinstance(script, dict) or "requests" not in script:
        print("repro serve: script must be a list of requests or an "
              "object with a 'requests' key", file=sys.stderr)
        return 2
    quotas = {}
    for tenant, raw in script.get("quotas", {}).items():
        try:
            quotas[tenant] = TenantQuota(**raw)
        except TypeError as exc:
            print(f"repro serve: bad quota for {tenant}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        requests = [
            _scripted_request(entry, position)
            for position, entry in enumerate(script["requests"])
        ]
    except ValueError as exc:
        print(f"repro serve: bad script: {exc}", file=sys.stderr)
        return 2

    service = MatchingService(
        ServiceConfig(max_queue_depth=args.queue_depth, quotas=quotas,
                      spool_dir=args.spool, registry_dir=args.registry),
        on_event=lambda event: print(
            f"  [{event.kind}] {event.request_id} tenant={event.tenant} "
            f"{event.detail}"),
    )
    service.drive(requests)
    print(f"{'request':8} {'tenant':10} {'outcome':17} {'warm':5} "
          f"{'queries':>8} {'probes':>7} {'sim-sec':>9}")
    for record in service.stats.records:
        print(f"{record['request_id']:8} {record['tenant']:10} "
              f"{record['outcome']:17} {str(record['warm']):5} "
              f"{record['queries']:8d} {record['probes']:7d} "
              f"{record['seconds']:9.2f}")
    stats = service.stats
    print(f"submitted={stats.submitted} admitted={stats.admitted} "
          f"rejected={sum(stats.rejected.values())} "
          f"completed={stats.completed} shed={stats.shed} "
          f"expired={stats.deadline_expired} crashed={stats.crashed}")
    print(f"warm runs: {stats.warm_runs} "
          f"(mean {stats.warm_mean_seconds:.2f} sim-sec)  "
          f"cold runs: {stats.cold_runs} "
          f"(mean {stats.cold_mean_seconds:.2f} sim-sec)")
    if args.export_dir is not None:
        import os

        from repro.util.atomicio import atomic_write_json

        os.makedirs(args.export_dir, exist_ok=True)
        for request_id, response in sorted(service.responses.items()):
            if response.export is not None:
                atomic_write_json(
                    os.path.join(args.export_dir, f"{request_id}.json"),
                    response.export)
    if args.stats_json is not None:
        from repro.util.atomicio import atomic_write_json

        atomic_write_json(args.stats_json, stats.to_dict())
    report = check_service(service)
    print(report.summary())
    if args.strict and not report.ok:
        return 1
    return 0


def _cmd_request(args) -> int:
    from repro.service import (
        MatchRequest,
        MatchingService,
        ServiceConfig,
        check_service,
    )
    from repro.util.errors import AdmissionRejected, ValidationError

    if args.domain == "all":
        raise SystemExit(
            "repro request: error: needs a single --domain")
    try:
        resilience = _resilience_config(vars(args))
    except ValueError as exc:
        raise SystemExit(f"repro request: error: {exc}")
    config = WebIQConfig(threshold=args.threshold, resilience=resilience)
    service = MatchingService(ServiceConfig(
        spool_dir=args.spool, registry_dir=args.registry))
    request = MatchRequest(
        tenant=args.tenant, domain=args.domain,
        n_interfaces=args.interfaces, seed=args.seed,
        config=config,
        deadline_seconds=args.deadline,
        assimilate=args.registry is not None,
    )
    try:
        service.submit(request)
    except AdmissionRejected as exc:
        print(f"rejected ({exc.reason}): {exc}")
        return 5
    except ValidationError as exc:
        raise SystemExit(f"repro request: error: {exc}")
    responses = service.run_pending()
    response = responses[0]
    print(f"{response.request_id} tenant={response.tenant} "
          f"outcome={response.outcome} warm={response.warm} "
          f"queries={response.queries} probes={response.probes} "
          f"sim-seconds={response.seconds:.2f}")
    if response.outcome == "deadline_expired":
        print(f"  {response.error}")
        if response.degradation is not None:
            spent = response.degradation.get("budget_spent_by_component", {})
            print(f"  partial degradation report: "
                  f"{sum(spent.values())} round trips accounted")
    if response.outcome == "crashed":
        print(f"  {response.error}")
    if args.json is not None and response.export is not None:
        from repro.io import strip_service_section
        from repro.util.atomicio import atomic_write_json

        payload = response.export
        if args.strip_service:
            payload = strip_service_section(payload)
        atomic_write_json(args.json, payload)
        print(f"run result written to {args.json}")
    if args.strict:
        report = check_service(service)
        print(report.summary())
        if not report.ok:
            return 1
    return {"completed": 0, "deadline_expired": 3,
            "shed": 5, "crashed": 6}[response.outcome]


def _cmd_journal(args) -> int:
    import os

    from repro.checkpoint import QUARANTINE_DIRNAME, RunJournal
    from repro.checkpoint.session import record_round_trips
    from repro.util.errors import (
        JournalCorruptionError,
        JournalFormatError,
        JournalMismatchError,
    )

    if args.journal_command == "salvage":
        try:
            report = RunJournal.salvage(args.directory)
        except (JournalCorruptionError, JournalFormatError,
                JournalMismatchError) as exc:
            print(f"cannot salvage {args.directory}: {exc}", file=sys.stderr)
            return 1
        print(report.summary())
        return 0

    try:
        journal = RunJournal.open(args.directory)
    except (JournalFormatError, JournalMismatchError) as exc:
        print(f"journal {args.directory}: {exc}", file=sys.stderr)
        return 1
    except JournalCorruptionError as exc:
        print(f"journal {args.directory} is damaged: {exc}", file=sys.stderr)
        print(f"recover the valid prefix with "
              f"`repro journal salvage {args.directory}`", file=sys.stderr)
        return 1
    print(f"journal {args.directory}: intact")
    for key in sorted(journal.meta):
        print(f"  {key}: {journal.meta[key]}")
    skipped = sum(1 for body in journal.records if body.get("skipped"))
    quarantined = sum(
        1 for body in journal.records if body.get("quarantined"))
    line = (f"  records: {len(journal.records)} "
            f"({sum(map(record_round_trips, journal.records))} round trips "
            f"journaled)")
    if skipped:
        line += f"; {skipped} skipped, {quarantined} of those quarantined"
    print(line)
    quarantine_dir = os.path.join(args.directory, QUARANTINE_DIRNAME)
    tails = sorted(os.listdir(quarantine_dir)) \
        if os.path.isdir(quarantine_dir) else []
    if tails:
        print(f"  quarantine/: {len(tails)} damaged tail(s) cut off by "
              f"earlier salvages ({', '.join(tails)})")
    return 0


def _cmd_registry(args) -> int:
    from repro.util.errors import RegistryCorruptionError, RegistryError

    try:
        return _registry_dispatch(args)
    except RegistryCorruptionError as exc:
        print(f"registry is damaged: {exc}", file=sys.stderr)
        return 1
    except RegistryError as exc:
        print(f"registry: {exc}", file=sys.stderr)
        return 1


def _registry_dispatch(args) -> int:
    if args.registry_command == "show":
        return _registry_show(args)
    if args.domain == "all":
        print(f"registry {args.registry_command} needs a single --domain",
              file=sys.stderr)
        return 2
    dataset = build_domain_dataset(args.domain, args.interfaces, args.seed)

    if args.registry_command == "build":
        from repro.io import dump_induced_matching
        from repro.registry import RegistryStore, build_registry

        if not 0 <= args.hold_out < len(dataset.interfaces):
            print(f"registry build: --hold-out must be within "
                  f"[0, {len(dataset.interfaces) - 1}], got {args.hold_out}",
                  file=sys.stderr)
            return 2
        interfaces = dataset.interfaces[:len(dataset.interfaces)
                                        - args.hold_out]
        store = RegistryStore(domain=args.domain, threshold=args.threshold,
                              linkage=args.linkage)
        store, report = build_registry(
            args.domain, interfaces, store=store,
            directory=args.directory)
        _print_registry_summary(report)
        if args.induced:
            dump_induced_matching(store, args.induced)
            print(f"wrote {args.induced}")
        return 0

    if args.registry_command == "add":
        from repro.io import dump_induced_matching
        from repro.registry import (
            RegistryAssimilator,
            RegistryLock,
            RegistryStore,
        )

        if not 0 <= args.index < len(dataset.interfaces):
            print(f"registry add: --index must be within "
                  f"[0, {len(dataset.interfaces) - 1}], got {args.index}",
                  file=sys.stderr)
            return 2
        # Load-assimilate-save is a read-modify-write: hold the writer
        # lock for all of it, or a concurrent add loses an update.
        with RegistryLock(args.directory, owner="cli registry add"):
            store = RegistryStore.load(args.directory)
            assimilator = RegistryAssimilator(store)
            record = assimilator.assimilate(dataset.interfaces[args.index])
            store.save(args.directory)
        considered = record.pairs_considered
        reduction = (100.0 * record.blocked / considered
                     if considered else 0.0)
        print(f"assimilated {record.interface_id}: evaluated "
              f"{record.evaluated}, blocked {record.blocked} of "
              f"{considered} cross pairs ({reduction:.1f}% skipped)")
        _print_registry_summary(assimilator.report(args.directory))
        if args.induced:
            dump_induced_matching(store, args.induced)
            print(f"wrote {args.induced}")
        return 0

    # batch: the independent oracle — straight IceQ over the id-sorted
    # interfaces, written in the same induced-matching JSON shape.
    from repro.io import matching_to_dict
    from repro.matching.clustering import IceQMatcher
    from repro.util.atomicio import atomic_write_json

    interfaces = sorted(dataset.interfaces, key=lambda i: i.interface_id)
    result = IceQMatcher(linkage=args.linkage).match(
        interfaces, threshold=args.threshold)
    atomic_write_json(args.induced, matching_to_dict(
        args.domain, args.threshold, args.linkage, len(interfaces),
        [sorted(cluster.keys) for cluster in result.clusters],
    ))
    print(f"batch IceQ: {len(result.clusters)} clusters from "
          f"{result.similarity_evaluations} pair evaluations; "
          f"wrote {args.induced}")
    return 0


def _print_registry_summary(report) -> None:
    considered = report.pairs_considered
    reduction = (100.0 * report.blocked / considered if considered else 0.0)
    print(f"registry: {report.n_entries} entries over {report.n_views} "
          f"attributes from {report.n_interfaces} interfaces")
    print(f"blocking: evaluated {report.evaluated}, skipped "
          f"{report.blocked} of {considered} cross pairs "
          f"({reduction:.1f}%)")
    if report.directory:
        print(f"persisted at {report.directory}")


def _registry_show(args) -> int:
    from repro.registry import RegistryStore

    store = RegistryStore.load(args.directory)
    entries = store.entries
    snapshot_format, deltas = store.layout()
    print(f"registry {args.directory}: intact")
    print(f"  layout: snapshot format {snapshot_format} + {deltas} "
          f"delta record{'' if deltas == 1 else 's'}")
    print(f"  domain: {store.domain}  threshold: {store.threshold}  "
          f"linkage: {store.linkage}")
    print(f"  interfaces: {len(store.interfaces)} "
          f"({store.n_views} attributes, arrival order "
          f"{', '.join(store.interface_ids()[:6])}"
          f"{', ...' if len(store.interfaces) > 6 else ''})")
    stats = store.stats
    reduction = 100.0 * stats.reduction
    print(f"  blocking ledger: evaluated {stats.evaluated}, skipped "
          f"{stats.blocked} of {stats.pairs_considered} cross pairs "
          f"({reduction:.1f}%) over {len(stats.adds)} assimilations")
    print(f"  entries: {len(entries)}")
    for entry in entries:
        print(f"    {entry.cluster_id} {entry.label!r}: "
              f"{len(entry.members)} attributes across {entry.coverage} "
              f"interfaces, {len(entry.instances)} unified values, "
              f"{len(entry.merges)} merges")
    return 0


def _cmd_discover(args) -> int:
    if args.domain == "all":
        print("discover needs a single --domain", file=sys.stderr)
        return 2
    dataset = build_domain_dataset(args.domain, args.interfaces, args.seed)
    discoverer = SurfaceDiscoverer(dataset.engine)
    result = discoverer.discover(
        Attribute(name="cli", label=args.label),
        dataset.spec.keyword_terms(), dataset.spec.object_name,
    )
    print(f"label: {args.label!r} (domain {args.domain})")
    print(f"raw candidates: {len(result.raw_candidates)}")
    print(f"removed (type/outlier): {len(result.outliers)}")
    print(f"numeric domain: {result.numeric_domain}")
    print(f"queries used: {result.queries_used}")
    if result.instances:
        print("instances:")
        for value in result.instances:
            print(f"  {value}")
    else:
        print("instances: (none — extraction failed or nothing validated)")
    return 0


def _cmd_export(args) -> int:
    if args.domain == "all":
        print("export needs a single --domain", file=sys.stderr)
        return 2
    from repro.io import dump_dataset
    dataset = build_domain_dataset(args.domain, args.interfaces, args.seed)
    dump_dataset(dataset, args.path)
    print(f"wrote {args.path} ({len(dataset.interfaces)} interfaces)")
    return 0


def _cmd_analyze(args) -> int:
    if args.domain == "all":
        print("analyze needs a single --domain", file=sys.stderr)
        return 2
    from repro.analysis import analyze_errors

    config = WebIQConfig(
        enable_surface=not args.baseline,
        enable_attr_deep=not args.baseline,
        enable_attr_surface=not args.baseline,
    )
    dataset = build_domain_dataset(args.domain, args.interfaces, args.seed)
    result = WebIQMatcher(config).run(dataset)
    report = analyze_errors(result.match_result, dataset)
    m = report.metrics
    print(f"{args.domain}: P={m.precision:.3f} R={m.recall:.3f} F1={m.f1:.3f}")
    print(f"missed pairs: {report.total_missed} "
          f"({report.missed_involving_no_instances} involve a no-instance "
          f"attribute); wrong pairs: {report.total_wrong}")
    if report.missed:
        print("top missed:")
        for error in report.top_missed(args.top):
            print(f"  {error}")
    if report.wrong:
        print("top wrong:")
        for error in report.top_wrong(args.top):
            print(f"  {error}")
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import ExperimentSuite, render_rows

    suite = ExperimentSuite(seed=args.seed, n_interfaces=args.interfaces)
    tables = {
        "table1": (
            ("domain", "#attr", "IntNoInst%", "AttrNoInst%", "ExpInst%"),
            suite.table1_characteristics,
        ),
        "table1-acquisition": (
            ("domain", "Surface%", "Surface+Deep%"),
            suite.table1_acquisition,
        ),
        "figure6": (
            ("domain", "baseline", "+WebIQ", "+threshold"),
            suite.figure6,
        ),
        "figure7": (
            ("domain", "baseline", "+Surface", "+Attr-Deep", "+Attr-Surface"),
            suite.figure7,
        ),
        "figure8": (
            ("domain", "matching", "Surface", "Attr-Surface", "Attr-Deep"),
            suite.figure8,
        ),
    }
    header, producer = tables[args.id]
    print(render_rows(header, producer()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
