"""Tests for tools/perf_ab.py, the alternating A/B wall-clock gate.

The benchmark runs themselves are replaced by a stub ``perfbench/run.py``
in each tree that prints a fixed result line, so the gate's ordering,
ratio and exit-code logic run in milliseconds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_ab = _load()

STUB = """\
import json, pathlib, sys
here = pathlib.Path(__file__).resolve().parent.parent
log = here.parent / "order.log"
with open(log, "a") as handle:
    handle.write(here.name + "\\n")
print("noise line")
print(json.dumps({{"correct": {correct}, "attempted": 5, "failed": 0,
                  "metrics": {{"interfaces_per_kref":
                               {{"value": {value}, "unit": "1/kref"}}}}}}))
"""


def make_tree(root, name, value, correct=True, bound=None):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        STUB.format(value=value, correct="True" if correct else "False"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if bound is not None:
        for metric in spec["end_to_end"]:
            if metric["name"] == "interfaces_per_kref":
                metric["bound"] = bound
    (tree / "BENCHMARK.json").write_text(json.dumps(spec))
    return tree


@pytest.fixture()
def as_candidate(monkeypatch):
    """Make a stub tree the checkout the gate treats as the candidate."""
    return lambda tree: monkeypatch.setattr(perf_ab, "ROOT", tree)


class TestGate:
    def test_bound_comes_from_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (bound,) = [m["bound"] for m in spec["end_to_end"]
                    if m["name"] == "interfaces_per_kref"]
        assert perf_ab.min_ratio(ROOT / "BENCHMARK.json") \
            == pytest.approx(1 - bound)

    def test_pairs_alternate_which_side_runs_first(self, tmp_path):
        base = make_tree(tmp_path, "base", 40.0)
        candidate = make_tree(tmp_path, "candidate", 50.0)
        ratios = perf_ab.compare(base, candidate, "figure6-batch", 3)
        assert ratios == [pytest.approx(1.25)] * 3
        order = (tmp_path / "order.log").read_text().split()
        assert order == ["base", "candidate", "candidate", "base",
                         "base", "candidate"]

    def test_slower_candidate_fails_and_faster_passes(self, tmp_path,
                                                      capsys, as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        args = ["--base", str(base), "--workload", "figure6-batch",
                "--pairs", "2"]
        as_candidate(make_tree(tmp_path, "slow", 20.0))
        assert perf_ab.main(args) == 1
        assert "ratio 0.500" in capsys.readouterr().out
        as_candidate(make_tree(tmp_path, "fast", 44.0))
        assert perf_ab.main(args) == 0
        out = capsys.readouterr().out
        assert out.count("ratio 1.100") == 3  # two pairs and the median
        assert "ok" in out

    def test_candidate_cannot_loosen_its_own_bound(self, tmp_path, capsys,
                                                   as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        # a 0.9 bound in the candidate's own file would let 0.5 pass
        as_candidate(make_tree(tmp_path, "slow", 20.0, bound=0.9))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch", "--pairs", "1"]) == 1
        assert "bound 0.750: FAILED" in capsys.readouterr().out

    def test_incorrect_run_fails_the_gate(self, tmp_path, capsys,
                                          as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        as_candidate(make_tree(tmp_path, "broken", 80.0, correct=False))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "registry-stream", "--pairs", "1"]) == 1
        assert "failed its checks" in capsys.readouterr().out
