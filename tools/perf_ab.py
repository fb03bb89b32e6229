"""Alternate base and candidate benchmark runs; fail on a paced slowdown.

Usage, from the candidate checkout's root::

    python3 tools/perf_ab.py --base ../base-checkout --pairs 3 \
        --workload figure6-batch --workload registry-stream

The candidate is the checkout this script lives in. For every workload,
the script makes ``--pairs`` pairs of untraced 10-second runs of
``perfbench/run.py --trace 0``, one in the base tree and one in the
candidate tree, one process at a time. The tree that goes first alternates
from pair to pair (the base in the first pair), so a host that speeds up
or slows down during the job favours neither side. Each pair's ratio is
the candidate's ``interfaces_per_kref`` over the base's; every ratio is
printed, and the gate reads their median.

The exit code is 1 when a workload's median ratio falls below one minus
the ``interfaces_per_kref`` bound in the base's BENCHMARK.json (0.25, so
0.75), or when a run fails its own correctness checks; else 0. The bound
is read from the base so that a change cannot loosen its own gate. Runs
use the benchmark's default seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
METRIC = "interfaces_per_kref"
#: length of every benchmark run, in seconds
SECONDS = 10.0


def min_ratio(spec_path: Path) -> float:
    """One minus BENCHMARK.json's bound on the gated metric."""
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    (bound,) = [item["bound"] for item in spec["end_to_end"]
                if item["name"] == METRIC]
    return 1.0 - bound


def pair_order(index: int) -> Tuple[str, str]:
    """Which side runs first in pair ``index`` (counted from 0)."""
    return ("base", "candidate") if index % 2 == 0 else ("candidate", "base")


def run_once(tree: Path, workload: str) -> float:
    """One untraced benchmark run in ``tree``; its gated metric.

    Raises ``RuntimeError`` when the run exits non-zero or reports
    ``"correct": false``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", "0"],
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
    return float(result["metrics"][METRIC]["value"])


def compare(base: Path, candidate: Path, workload: str,
            pairs: int) -> List[float]:
    """Candidate/base ratios of ``pairs`` alternating pairs, printed as
    they finish."""
    trees = {"base": base, "candidate": candidate}
    ratios: List[float] = []
    for index in range(pairs):
        order = pair_order(index)
        value = {side: run_once(trees[side], workload)
                 for side in order}
        ratio = value["candidate"] / value["base"]
        ratios.append(ratio)
        print(f"{workload} pair {index + 1} ({order[0]} first): "
              f"base {value['base']:.3f} candidate {value['candidate']:.3f} "
              f"{METRIC} ratio {ratio:.3f}", flush=True)
    return ratios


def verdict(workload: str, ratios: Sequence[float], bound: float) -> bool:
    """Print the workload's median ratio; is it at or above ``bound``?"""
    median = statistics.median(ratios)
    ok = median >= bound
    print(f"{workload} median {METRIC} ratio {median:.3f} over "
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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base = args.base.resolve()
    bound = min_ratio(base / "BENCHMARK.json")

    ok = True
    for workload in args.workload:
        try:
            ratios = compare(base, ROOT, workload, args.pairs)
        except RuntimeError as error:
            print(f"{workload}: {error}", flush=True)
            ok = False
            continue
        ok = verdict(workload, ratios, bound) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
