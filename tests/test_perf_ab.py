"""Tests for tools/perf_ab.py, the alternating A/B throughput, memory and
latency gate.

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
# the first run of each pair (an even count of runs before it) runs at
# ``first`` times its throughput: a host that favours one position
runs = len(log.read_text().split()) if log.exists() else 0
with open(log, "a") as handle:
    handle.write(here.name + "\\n")
value = {value} * ({first} if runs % 2 == 0 else 1.0)
print("noise line")
print(json.dumps({{"correct": {correct}, "attempted": 5, "failed": 0,
                  "metrics": {{"interfaces_per_kref":
                               {{"value": value, "unit": "1/kref"}},
                               "peak_rss_mb":
                               {{"value": {rss}, "unit": "MB"}},
                               "op_p50_ref":
                               {{"value": {p50}, "unit": "ref"}}}}}}))
"""


def make_tree(root, name, value, correct=True, bound=None, rss=40.0,
              rss_bound=None, p50=600.0, p50_bound=None, first=1.0):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        STUB.format(value=value, rss=rss, p50=p50, first=first,
                    correct="True" if correct else "False"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    overrides = {"interfaces_per_kref": bound, "peak_rss_mb": rss_bound,
                 "op_p50_ref": p50_bound}
    for metric in spec["end_to_end"]:
        if overrides.get(metric["name"]) is not None:
            metric["bound"] = overrides[metric["name"]]
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
        ratios, _ = perf_ab.compare(base, candidate, "figure6-batch", 3)
        assert ratios["interfaces_per_kref"] == [pytest.approx(1.25)] * 3
        assert ratios["peak_rss_mb"] == [pytest.approx(1.0)] * 3
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


class TestMemoryGate:
    def test_rss_bound_comes_from_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (bound,) = [m["bound"] for m in spec["end_to_end"]
                    if m["name"] == "peak_rss_mb"]
        assert perf_ab.max_ratio(ROOT / "BENCHMARK.json", "peak_rss_mb") \
            == pytest.approx(1 + bound)

    def test_every_pair_prints_its_rss_ratio(self, tmp_path, capsys):
        base = make_tree(tmp_path, "base", 40.0, rss=40.0)
        candidate = make_tree(tmp_path, "candidate", 40.0, rss=42.0)
        perf_ab.compare(base, candidate, "service-mixed", 2)
        out = capsys.readouterr().out
        assert out.count("peak_rss_mb base 40.000 candidate 42.000 "
                         "ratio 1.050") == 2

    def test_fatter_candidate_fails_even_when_faster(self, tmp_path, capsys,
                                                     as_candidate):
        base = make_tree(tmp_path, "base", 40.0, rss=40.0)
        args = ["--base", str(base), "--workload", "service-mixed",
                "--pairs", "2"]
        as_candidate(make_tree(tmp_path, "fat", 60.0, rss=48.0))
        assert perf_ab.main(args) == 1
        out = capsys.readouterr().out
        assert "median interfaces_per_kref ratio 1.500" in out
        assert "median peak_rss_mb ratio 1.200 over 2 pairs" in out
        assert "bound 1.100: FAILED" in out
        as_candidate(make_tree(tmp_path, "lean", 40.0, rss=43.0))
        assert perf_ab.main(args) == 0
        assert "bound 1.100: ok" in capsys.readouterr().out

    def test_candidate_cannot_loosen_its_rss_bound(self, tmp_path, capsys,
                                                   as_candidate):
        base = make_tree(tmp_path, "base", 40.0, rss=40.0)
        # a 0.5 bound in the candidate's own file would let 1.2 pass
        as_candidate(make_tree(tmp_path, "fat", 40.0, rss=48.0,
                               rss_bound=0.5))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "service-mixed", "--pairs", "1"]) == 1
        assert "bound 1.100: FAILED" in capsys.readouterr().out


class TestLatencyGate:
    def test_p50_bound_comes_from_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (bound,) = [m["bound"] for m in spec["end_to_end"]
                    if m["name"] == "op_p50_ref"]
        assert perf_ab.max_ratio(ROOT / "BENCHMARK.json", "op_p50_ref") \
            == pytest.approx(1 + bound)

    def test_every_pair_prints_its_p50_ratio(self, tmp_path, capsys):
        base = make_tree(tmp_path, "base", 40.0, p50=600.0)
        candidate = make_tree(tmp_path, "candidate", 40.0, p50=450.0)
        ratios, _ = perf_ab.compare(base, candidate, "service-mixed", 2)
        assert ratios["op_p50_ref"] == [pytest.approx(0.75)] * 2
        assert capsys.readouterr().out.count(
            "op_p50_ref base 600.000 candidate 450.000 ratio 0.750") == 2

    def test_slower_p50_fails_even_with_more_throughput(self, tmp_path,
                                                        capsys, as_candidate):
        base = make_tree(tmp_path, "base", 40.0, p50=600.0)
        args = ["--base", str(base), "--workload", "service-mixed",
                "--pairs", "2"]
        as_candidate(make_tree(tmp_path, "laggy", 50.0, p50=780.0))
        assert perf_ab.main(args) == 1
        out = capsys.readouterr().out
        assert "median interfaces_per_kref ratio 1.250" in out
        assert "median op_p50_ref ratio 1.300 over 2 pairs" in out
        assert "bound 1.250: FAILED" in out
        as_candidate(make_tree(tmp_path, "brisk", 50.0, p50=720.0))
        assert perf_ab.main(args) == 0
        assert "median op_p50_ref ratio 1.200" in capsys.readouterr().out

    def test_candidate_cannot_loosen_its_p50_bound(self, tmp_path, capsys,
                                                   as_candidate):
        base = make_tree(tmp_path, "base", 40.0, p50=600.0)
        # a 1.0 bound in the candidate's own file would let 1.5 pass
        as_candidate(make_tree(tmp_path, "laggy", 40.0, p50=900.0,
                               p50_bound=1.0))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "service-mixed", "--pairs", "1"]) == 1
        assert "median op_p50_ref ratio 1.500 over 1 pairs (min 1.500, " \
            "max 1.500); bound 1.250: FAILED" in capsys.readouterr().out


class TestGainReport:
    """The report of a claimed gain: each side's quartiles, the pairs
    won, and the rule (nine pairs in ten won, median gap above the base's
    interquartile spread). It never changes the exit code."""

    def test_main_reports_quartiles_and_wins(self, tmp_path, capsys,
                                             as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        as_candidate(make_tree(tmp_path, "fast", 44.0))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch", "--pairs", "2"]) == 0
        out = capsys.readouterr().out
        assert "figure6-batch interfaces_per_kref: base median 40.000 " \
            "(q1 40.000, q3 40.000); candidate median 44.000 (q1 44.000, " \
            "q3 44.000); candidate won 2 of 2 pairs" in out
        assert "median gap 4.000 > base interquartile spread 0.000): " \
            "holds" in out

    def test_ties_win_for_neither_and_change_no_exit_code(
            self, tmp_path, capsys, as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        as_candidate(make_tree(tmp_path, "same", 40.0))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch", "--pairs", "2"]) == 0
        out = capsys.readouterr().out
        assert "candidate won 0 of 2 pairs" in out
        assert "does not hold" in out

    def test_seconds_reach_every_run(self, tmp_path, as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        candidate = make_tree(tmp_path, "candidate", 40.0)
        for tree in (base, candidate):
            run = tree / "perfbench" / "run.py"
            run.write_text("import sys, pathlib\n"
                           "with open(pathlib.Path(__file__).resolve()"
                           ".parent.parent.parent / 'argv.log', 'a') as f:"
                           "\n    f.write(' '.join(sys.argv[1:]) + '\\n')\n"
                           + run.read_text())
        as_candidate(candidate)
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch", "--pairs", "1",
                             "--seconds", "30"]) == 0
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch", "--pairs", "1"]) == 0
        runs = (tmp_path / "argv.log").read_text().splitlines()
        assert [run.split("--seconds ")[1].split()[0] for run in runs] \
            == ["30.0", "30.0", "10.0", "10.0"]

    def test_seconds_must_be_positive(self, tmp_path):
        base = make_tree(tmp_path, "base", 40.0)
        with pytest.raises(SystemExit):
            perf_ab.main(["--base", str(base), "--workload",
                          "figure6-batch", "--seconds", "0"])

    def test_compare_returns_each_sides_throughput(self, tmp_path):
        base = make_tree(tmp_path, "base", 40.0)
        candidate = make_tree(tmp_path, "candidate", 50.0)
        _, throughput = perf_ab.compare(base, candidate, "figure6-batch", 2)
        assert throughput == {"base": [40.0, 40.0],
                              "candidate": [50.0, 50.0]}

    def test_quartiles(self):
        assert perf_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
        assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) \
            == (2.0, 3.0, 4.0)

    BASE = [70.0, 71.0, 72.0, 72.0, 73.0, 73.0, 74.0, 74.0, 75.0, 76.0]

    def test_nine_wins_and_a_wide_gap_hold(self, capsys):
        # one loss in ten: 9 won; base q1 72, q3 74, so a spread of 2
        candidate = [value + 4.0 for value in self.BASE[:9]] + [60.0]
        assert perf_ab.gain_report("w", self.BASE, candidate)
        assert "candidate won 9 of 10 pairs" in capsys.readouterr().out

    def test_eight_wins_do_not_hold(self, capsys):
        # a tie and a loss: only 8 won, however wide the gap
        candidate = [value + 4.0 for value in self.BASE[:8]] \
            + [self.BASE[8], 60.0]
        assert not perf_ab.gain_report("w", self.BASE, candidate)
        assert "candidate won 8 of 10 pairs" in capsys.readouterr().out

    def test_a_gap_inside_the_base_spread_does_not_hold(self, capsys):
        # every pair won, but the medians differ by 1 < the spread of 2
        candidate = [value + 1.0 for value in self.BASE]
        assert not perf_ab.gain_report("w", self.BASE, candidate)
        out = capsys.readouterr().out
        assert "candidate won 10 of 10 pairs" in out
        assert "median gap 1.000 > base interquartile spread 2.000): " \
            "does not hold" in out


class TestOrderReport:
    """The median ratio of base-first and of candidate-first pairs, and
    the warning an odd pair count draws. Neither changes the exit code."""

    def test_order_medians_expose_a_first_run_bias(self, tmp_path, capsys,
                                                   as_candidate):
        # equal trees on a host where the first run of a pair is 10% slower
        base = make_tree(tmp_path, "base", 40.0, first=0.9)
        as_candidate(make_tree(tmp_path, "same", 40.0, first=0.9))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch", "--pairs", "4"]) == 0
        captured = capsys.readouterr()
        assert "figure6-batch interfaces_per_kref ratio by order: " \
            "base-first median 1.111 over 2 pairs; candidate-first " \
            "median 0.900 over 2 pairs" in captured.out
        assert "figure6-batch peak_rss_mb ratio by order: base-first " \
            "median 1.000 over 2 pairs; candidate-first median 1.000 " \
            "over 2 pairs" in captured.out
        assert "warning" not in captured.err

    def test_the_default_pair_count_is_even(self, tmp_path, capsys,
                                            as_candidate):
        assert perf_ab.PAIRS % 2 == 0
        base = make_tree(tmp_path, "base", 40.0)
        as_candidate(make_tree(tmp_path, "same", 40.0))
        assert perf_ab.main(["--base", str(base), "--workload",
                             "figure6-batch"]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err
        assert f"candidate won 0 of {perf_ab.PAIRS} pairs" in captured.out
        order = (tmp_path / "order.log").read_text().split()
        assert order.count("base") == order.count("same") == perf_ab.PAIRS

    def test_odd_pairs_warn_and_keep_the_exit_code(self, tmp_path, capsys,
                                                   as_candidate):
        base = make_tree(tmp_path, "base", 40.0)
        as_candidate(make_tree(tmp_path, "fast", 44.0))
        args = ["--base", str(base), "--workload", "figure6-batch"]
        assert perf_ab.main(args + ["--pairs", "1"]) == 0
        captured = capsys.readouterr()
        assert "warning: --pairs 1 is odd" in captured.err
        assert "candidate-first median none (0 pairs)" in captured.out
        as_candidate(make_tree(tmp_path, "slow", 20.0))
        assert perf_ab.main(args + ["--pairs", "3"]) == 1
        captured = capsys.readouterr()
        assert "warning: --pairs 3 is odd" in captured.err
        assert "base-first median 0.500 over 2 pairs; candidate-first " \
            "median 0.500 over 1 pairs" in captured.out
