"""Alternate base and candidate benchmark runs; fail on a paced slowdown.

Usage, from the candidate checkout's root::

    python3 tools/perf_ab.py --base ../base-checkout --pairs 3 \
        --workload figure6-batch --workload registry-stream

The candidate is the checkout this script lives in. For every workload,
the script makes ``--pairs`` pairs of untraced runs of
``perfbench/run.py --trace 0``, ``--seconds`` long each (default 10; the
benchmark's own runs take BENCHMARK.json's ``run_seconds``, 30), one in
the base tree and one in the candidate tree, one process at a time. The tree that goes first alternates
from pair to pair (the base in the first pair), so a host that speeds up
or slows down during the job favours neither side. Each pair gives three
ratios, candidate over base: ``interfaces_per_kref``, ``peak_rss_mb`` and
``op_p50_ref``. Every ratio is printed, and the gate reads their medians.

The exit code is 1 when a workload's median ``interfaces_per_kref`` ratio
falls below one minus that metric's bound in the base's BENCHMARK.json
(0.25, so 0.75), when its median ``peak_rss_mb`` ratio exceeds one plus
that metric's bound (0.1, so 1.1), when its median ``op_p50_ref`` ratio
exceeds one plus that metric's bound (0.25, so 1.25), or when a run fails
its own correctness checks; else 0. The bounds are read from the base so
that a change cannot loosen its own gate. Runs use the benchmark's default
seed.

For every workload the script also reports each side's median and
quartiles of ``interfaces_per_kref``, how many pairs the candidate won
(ties count for neither side), and whether the gain rule holds: the
candidate won at least nine pairs in ten, and the candidate's median
exceeds the base's by more than the base's interquartile spread. The
report changes no exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
METRIC = "interfaces_per_kref"
#: the memory metric gated next to throughput; lower is better
RSS = "peak_rss_mb"
#: the median operation latency, in paced reference units; lower is better
P50 = "op_p50_ref"
#: every gated metric, in print order
GATED = (METRIC, RSS, P50)
#: default length of every benchmark run, in seconds
SECONDS = 10.0
#: the share of pairs a claimed gain must win
GAIN_WIN_SHARE = 0.9


def _bound(spec_path: Path, metric: str) -> float:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    (bound,) = [item["bound"] for item in spec["end_to_end"]
                if item["name"] == metric]
    return bound


def min_ratio(spec_path: Path) -> float:
    """One minus BENCHMARK.json's bound on the gated metric."""
    return 1.0 - _bound(spec_path, METRIC)


def max_ratio(spec_path: Path, metric: str) -> float:
    """One plus BENCHMARK.json's bound on a lower-is-better ``metric``."""
    return 1.0 + _bound(spec_path, metric)


def pair_order(index: int) -> Tuple[str, str]:
    """Which side runs first in pair ``index`` (counted from 0)."""
    return ("base", "candidate") if index % 2 == 0 else ("candidate", "base")


def run_once(tree: Path, workload: str, seconds: float = SECONDS
             ) -> Dict[str, float]:
    """One untraced ``seconds``-long benchmark run in ``tree``; its gated
    metrics.

    Raises ``RuntimeError`` when the run exits non-zero or reports
    ``"correct": false``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} in {tree} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise RuntimeError(f"{workload} in {tree} failed its checks:\n"
                           + "\n".join(lines[-20:]))
    return {name: float(result["metrics"][name]["value"])
            for name in GATED}


def compare(base: Path, candidate: Path, workload: str, pairs: int,
            seconds: float = SECONDS
            ) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """Candidate/base ratios of ``pairs`` alternating pairs, per gated
    metric, printed as they finish; and each side's ``interfaces_per_kref``
    values, pair by pair."""
    trees = {"base": base, "candidate": candidate}
    ratios: Dict[str, List[float]] = {name: [] for name in GATED}
    throughput: Dict[str, List[float]] = {"base": [], "candidate": []}
    for index in range(pairs):
        order = pair_order(index)
        value = {side: run_once(trees[side], workload, seconds)
                 for side in order}
        for side, values in throughput.items():
            values.append(value[side][METRIC])
        parts = []
        for name in GATED:
            ratio = value["candidate"][name] / value["base"][name]
            ratios[name].append(ratio)
            parts.append(f"{name} base {value['base'][name]:.3f} "
                         f"candidate {value['candidate'][name]:.3f} "
                         f"ratio {ratio:.3f}")
        print(f"{workload} pair {index + 1} ({order[0]} first): "
              + "; ".join(parts), flush=True)
    return ratios, throughput


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``
    (inclusive method; a single value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def gain_report(workload: str, base: Sequence[float],
                candidate: Sequence[float]) -> bool:
    """Print each side's ``interfaces_per_kref`` quartiles, the pairs the
    candidate won, and whether the gain rule holds; return whether it
    does. Reports only: no gate reads it."""
    wins = sum(c > b for b, c in zip(base, candidate))
    b1, b_median, b3 = quartiles(base)
    c1, c_median, c3 = quartiles(candidate)
    gap, spread = c_median - b_median, b3 - b1
    holds = wins >= GAIN_WIN_SHARE * len(base) and gap > spread
    print(f"{workload} {METRIC}: base median {b_median:.3f} (q1 {b1:.3f}, "
          f"q3 {b3:.3f}); candidate median {c_median:.3f} (q1 {c1:.3f}, "
          f"q3 {c3:.3f}); candidate won {wins} of {len(base)} pairs; gain "
          f"rule (won >= {GAIN_WIN_SHARE:.0%} of pairs, median gap "
          f"{gap:.3f} > base interquartile spread {spread:.3f}): "
          + ("holds" if holds else "does not hold"), flush=True)
    return holds


def verdict(workload: str, ratios: Sequence[float], bound: float,
            metric: str = METRIC) -> bool:
    """Print the workload's median ratio of ``metric``; is it on the
    right side of ``bound``? (At or above it for throughput, at or below
    it for ``peak_rss_mb`` and ``op_p50_ref``.)"""
    median = statistics.median(ratios)
    ok = median >= bound if metric == METRIC else median <= bound
    print(f"{workload} median {metric} ratio {median:.3f} over "
          f"{len(ratios)} pairs (min {min(ratios):.3f}, max "
          f"{max(ratios):.3f}); bound {bound:.3f}: "
          + ("ok" if ok else "FAILED"), flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the base checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="length of every run (default %(default)s)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    base = args.base.resolve()
    spec = base / "BENCHMARK.json"
    bounds = {METRIC: min_ratio(spec), RSS: max_ratio(spec, RSS),
              P50: max_ratio(spec, P50)}

    ok = True
    for workload in args.workload:
        try:
            ratios, throughput = compare(base, ROOT, workload, args.pairs,
                                         args.seconds)
        except RuntimeError as error:
            print(f"{workload}: {error}", flush=True)
            ok = False
            continue
        gain_report(workload, throughput["base"], throughput["candidate"])
        for name in GATED:
            ok = verdict(workload, ratios[name], bounds[name], name) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
