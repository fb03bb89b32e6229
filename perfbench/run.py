"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload figure6-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the rest, and reports
the per-layer metrics plus the tracing overhead. Every metric is printed
by name and unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every correctness check passed. See perfbench/README.md.

End-to-end op times are stated in reference loops (see pace.py): the
host this was sized on switches between a fast and a two-times-slower
state, for seconds or for minutes, so wall seconds measure the host as
much as the program. Wall times are still printed, and the traced run
reports them as per-layer metrics. ``setup_s`` is in seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from pace import PaceSampler
from tracing import Tracer, instrumented, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
#: working files (spools, registries) and trace output, under the checkout
OUTPUT_DIR = ROOT / ".perfbench"
#: set-ups before the first pass of an untraced run; one more follows
#: every pass, so that the set-up samples spread over the whole run
SETUPS = 3
#: an untraced run makes at least this many passes, so that every op has
#: repeats to take the median of, and the byte-identity check across
#: passes has something to compare
MIN_PASSES = 3
#: a fresh interpreter importing the benchmark's workloads (and with them
#: the program); prints the import's wall seconds
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n"
)


def _import_seconds() -> float:
    """Wall seconds one fresh interpreter takes to import the program."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


class SetupClock:
    """Samples of the two parts of set-up: importing the program and
    building a workload's inputs. ``setup_s`` is the fastest of each."""

    def __init__(self, workload, first_import: float) -> None:
        self.workload = workload
        self.imports = [first_import]
        self.builds: list = []

    def sample(self) -> None:
        self.imports.append(_import_seconds())
        start = perf_counter()
        self.workload.setup()
        self.builds.append(perf_counter() - start)

    @property
    def seconds(self) -> float:
        return min(self.imports) + min(self.builds)


def _run_passes(workload, until: float, started: float, minimum: int,
                previous: int = 0, traced: bool = False,
                pace: PaceSampler = None, between=None) -> list:
    """``(pass, tracer)`` pairs: at least ``minimum`` of them, then more
    while the next pass, if it takes as long as the last one, ends within
    ``until`` seconds after ``started``. ``pace`` samples while an
    untraced pass runs; ``between`` runs after every pass."""
    done = []
    while len(done) < minimum or \
            perf_counter() - started + done[-1][0].wall <= until:
        first = previous + len(done) == 0
        tracer = Tracer() if traced else None
        if traced:
            with instrumented(tracer):
                one = workload.run_pass(tracer, first)
        else:
            with pace.sampling() if pace else nullcontext():
                one = workload.run_pass(None, first)
        done.append((one, tracer))
        if between is not None:
            between()
    return done


def _identity_errors(passes) -> list:
    """Every op of every pass must reproduce pass 1's output digest."""
    reference = passes[0].ops
    errors = []
    for number, later in enumerate(passes[1:], 2):
        if len(later.ops) != len(reference):
            errors.append(f"pass {number}: {len(later.ops)} ops, pass 1 "
                          f"had {len(reference)}")
        for index, (a, b) in enumerate(zip(reference, later.ops)):
            if a.digest != b.digest:
                errors.append(f"pass {number} op {index}: output differs "
                              "from pass 1")
                b.failed = True
    return errors


def _per_op(passes, measure) -> list:
    """Per op of a pass: the median over all passes of ``measure(op)``."""
    return [statistics.median(measure(one.ops[index]) for one in passes)
            for index in range(len(passes[0].ops))]


def _wall(passes) -> dict:
    """The raw wall-clock figures beside the paced ones."""
    return {
        "interfaces_per_s": statistics.median(
            one.interfaces / one.wall for one in passes),
        "op_p50_s": statistics.median(_per_op(passes, lambda op: op.wall)),
    }


def _end_to_end(passes, pace: PaceSampler, setup_s: float) -> dict:
    """End-to-end metrics. Op times are in reference loops: a ``busy``
    cost counts only the op's own run, a latency its queue wait too."""
    busy = _per_op(passes, lambda op: pace.cost(op.started, op.finished))
    latency = _per_op(passes,
                      lambda op: pace.cost(op.submitted, op.finished))
    return {
        "setup_s": setup_s,
        "interfaces_per_kref": passes[0].interfaces / (sum(busy) / 1000),
        "op_p50_ref": statistics.median(latency),
        "f1_macro": passes[0].f1,
        "sim_overhead_min": passes[0].sim_seconds / 60.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(untraced, traced, workload_layers) -> dict:
    """Median over traced passes of each layer metric, plus the overhead
    of tracing: median traced pass wall / median untraced pass wall."""
    rows = [
        {**dict.fromkeys(workload_layers, 0), **layer_metrics(tracer),
         **one.layers}
        for one, tracer in traced
    ]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.wall_s"] = statistics.median(
        one.wall for one, _ in traced)
    for name, value in _wall([one for one, _ in untraced]).items():
        metrics[f"wall.{name}"] = value
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / \
        statistics.median(one.wall for one, _ in untraced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {item["name"]: item["unit"]
             for item in spec["per_layer" if args.trace else "end_to_end"]}

    started = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOAD_LAYERS, WORKLOADS
    import_s = perf_counter() - started
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")

    OUTPUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUTPUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        started = perf_counter()
        if args.trace:
            workload.setup()
            untraced = _run_passes(workload, args.seconds / 2, started, 1)
            traced = _run_passes(workload, args.seconds, started, 1,
                                 previous=len(untraced), traced=True)
            runs = untraced + traced
            metrics = _per_layer(untraced, traced, WORKLOAD_LAYERS)
            traced[-1][1].write(str(
                OUTPUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            clock = SetupClock(workload, import_s)
            for _ in range(SETUPS):
                clock.sample()
            pace = PaceSampler()
            runs = _run_passes(workload, args.seconds, started, MIN_PASSES,
                               pace=pace, between=clock.sample)
            passes = [one for one, _ in runs]
            metrics = _end_to_end(passes, pace, clock.seconds)
            print("set-up: imports (s): "
                  + " ".join(f"{one:.3f}" for one in clock.imports)
                  + "; builds (s): "
                  + " ".join(f"{one:.3f}" for one in clock.builds))
            print(f"pace: {len(pace.seconds)} reference samples, median "
                  f"{statistics.median(pace.seconds) * 1e3:.3f} ms; pass "
                  "busy costs (kref): " + " ".join(
                      f"{sum(pace.cost(op.started, op.finished) for op in one.ops) / 1000:.3f}"
                      for one in passes)
                  + "; wall: " + ", ".join(
                      f"{name} {value:.6f}"
                      for name, value in _wall(passes).items()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    everything = [one for one, _ in runs]

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 3
    errors = _identity_errors(everything)
    for one in everything:
        errors.extend(one.errors)
    ops = [op for one in everything for op in one.ops]
    failed = sum(op.failed for op in ops)
    correct = not errors and not failed

    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"{args.workload} seed={args.seed} ops={len(ops)} "
          f"correct={correct} pass walls (s): "
          + " ".join(f"{one.wall:.3f}" for one in everything))
    for name in sorted(metrics):
        print(f"  {name:38s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
