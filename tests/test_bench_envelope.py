"""Tests for the bench envelope schema and the ``repro bench diff`` gate.

The regression gate is only trustworthy if its primitives are: the
envelope must seal its body (CRC), refuse foreign schemas, and the
differ must classify drift exactly as the declared tolerance directions
promise — including the failure modes (missing metrics, mismatched
workloads, torn artifacts) that a silent gate would wave through.
"""

import json

import pytest

from repro.bench import (
    BENCH_FORMAT,
    BenchArtifactError,
    BenchWorkloadMismatch,
    diff_benches,
    load_bench,
    make_envelope,
    write_bench,
)
from repro.util.envelope import record_crc
from repro.cli import main

WORKLOAD = {"domain": "book", "n_interfaces": 8, "seed": 1}
METRICS = {
    "round_trips": 1000,
    "f1": 0.95,
    "wall_seconds": 4.0,
    "equivalent": True,
}
TOLERANCES = {
    "round_trips": {"rel": 0.02, "direction": "lower_is_better"},
    "f1": {"rel": 0.02, "direction": "higher_is_better"},
    "wall_seconds": {"rel": 10.0, "direction": "lower_is_better"},
    "equivalent": {"rel": 0.0, "direction": "two_sided"},
}


def envelope(metrics=None, workload=None, name="sample-sweep",
             profile_digest=None):
    metrics = dict(METRICS, **(metrics or {}))
    return make_envelope(name, workload or WORKLOAD, metrics, TOLERANCES,
                         profile_digest=profile_digest)


class TestEnvelope:
    def test_roundtrip_via_disk(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(str(path), envelope())
        loaded = load_bench(str(path))
        assert loaded["format"] == BENCH_FORMAT
        assert loaded["body"]["metrics"] == METRICS
        assert loaded["crc"] == record_crc(loaded["body"])

    def test_tolerance_for_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            make_envelope("x", WORKLOAD, {"a": 1},
                          {"b": {"rel": 0.1, "direction": "two_sided"}})

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown direction"):
            make_envelope("x", WORKLOAD, {"a": 1},
                          {"a": {"rel": 0.1, "direction": "sideways"}})

    def test_torn_artifact_refused(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(str(path), envelope())
        raw = json.loads(path.read_text())
        raw["body"]["metrics"]["round_trips"] = 1  # edit without resealing
        path.write_text(json.dumps(raw))
        with pytest.raises(BenchArtifactError, match="CRC"):
            load_bench(str(path))

    def test_newer_format_refused(self, tmp_path):
        path = tmp_path / "bench.json"
        raw = envelope()
        raw["format"] = BENCH_FORMAT + 1
        path.write_text(json.dumps(raw))
        with pytest.raises(BenchArtifactError, match="newer"):
            load_bench(str(path))

    def test_bare_dict_refused(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"round_trips": 1000}))
        with pytest.raises(BenchArtifactError, match="envelope"):
            load_bench(str(path))


class TestDiff:
    def test_self_compare_is_clean(self):
        diff = diff_benches(envelope(), envelope())
        assert not diff.has_regression
        assert {d.status for d in diff.drifts} == {"stable"}

    def test_count_regression_detected(self):
        diff = diff_benches(envelope(), envelope({"round_trips": 1100}))
        (drift,) = [d for d in diff.drifts if d.status == "regression"]
        assert drift.metric == "round_trips"
        assert drift.rel_drift == pytest.approx(0.10)
        assert diff.has_regression

    def test_count_improvement_is_not_regression(self):
        diff = diff_benches(envelope(), envelope({"round_trips": 900}))
        assert not diff.has_regression
        (drift,) = [d for d in diff.drifts if d.metric == "round_trips"]
        assert drift.status == "improvement"

    def test_score_direction_mirrored(self):
        worse = diff_benches(envelope(), envelope({"f1": 0.80}))
        better = diff_benches(envelope(), envelope({"f1": 0.99}))
        assert worse.has_regression and not better.has_regression

    def test_loose_wall_band_absorbs_noise(self):
        diff = diff_benches(envelope(), envelope({"wall_seconds": 30.0}))
        assert not diff.has_regression  # 7.5x is inside the 10x band

    def test_non_numeric_gates_on_equality(self):
        diff = diff_benches(envelope(), envelope({"equivalent": False}))
        (drift,) = [d for d in diff.drifts if d.metric == "equivalent"]
        assert drift.status == "regression"

    def test_missing_metric_is_a_regression(self):
        current = envelope()
        del current["body"]["metrics"]["f1"]
        del current["body"]["tolerances"]["f1"]
        current["crc"] = record_crc(current["body"])
        diff = diff_benches(envelope(), current)
        (drift,) = [d for d in diff.drifts if d.metric == "f1"]
        assert drift.status == "missing"
        assert diff.has_regression

    def test_new_metric_is_informational(self):
        current = envelope()
        current["body"]["metrics"]["extra"] = 7
        current["crc"] = record_crc(current["body"])
        diff = diff_benches(envelope(), current)
        (drift,) = [d for d in diff.drifts if d.metric == "extra"]
        assert drift.status == "new"
        assert not diff.has_regression

    def test_workload_mismatch_refused(self):
        other = envelope(workload={"domain": "auto", "n_interfaces": 8,
                                   "seed": 1})
        with pytest.raises(BenchWorkloadMismatch, match="fingerprint"):
            diff_benches(envelope(), other)

    def test_bench_name_mismatch_refused(self):
        with pytest.raises(BenchWorkloadMismatch, match="name"):
            diff_benches(envelope(), envelope(name="other-sweep"))

    def test_equal_profile_digests_are_clean(self):
        diff = diff_benches(envelope(profile_digest=4067162030),
                            envelope(profile_digest=4067162030))
        assert not diff.has_regression
        assert "profile_digest" not in [d.metric for d in diff.drifts]

    def test_profile_digest_change_is_a_regression(self):
        # the doctored current artifact did different work than the
        # baseline measured, even though every metric is unchanged
        current = envelope(profile_digest=4067162030)
        current["body"]["profile_digest"] = 1391662003
        current["crc"] = record_crc(current["body"])
        diff = diff_benches(envelope(profile_digest=4067162030), current)
        (drift,) = [d for d in diff.drifts if d.status == "regression"]
        assert drift.metric == "profile_digest"
        assert (drift.baseline, drift.current) == (4067162030, 1391662003)
        assert diff.has_regression
        assert "REGRESSION" in diff.summary()

    @pytest.mark.parametrize("base_digest, cur_digest",
                             [(4067162030, None), (None, 4067162030)])
    def test_profile_digest_on_one_side_is_a_regression(
            self, base_digest, cur_digest):
        diff = diff_benches(envelope(profile_digest=base_digest),
                            envelope(profile_digest=cur_digest))
        (drift,) = [d for d in diff.drifts if d.metric == "profile_digest"]
        assert drift.status == "regression"
        assert diff.has_regression

    def test_baseline_tolerances_win(self):
        # a loosened working-copy tolerance must not weaken the gate
        current = envelope({"round_trips": 1100})
        current["body"]["tolerances"]["round_trips"]["rel"] = 0.5
        current["crc"] = record_crc(current["body"])
        diff = diff_benches(envelope(), current)
        assert diff.has_regression


class TestCliGate:
    """``repro bench diff`` exit codes: 0 ok / 1 regression / 2 broken."""

    def write(self, path, env):
        write_bench(str(path), env)
        return str(path)

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", envelope())
        assert main(["bench", "diff", base, base]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", envelope())
        cur = self.write(tmp_path / "cur.json",
                         envelope({"round_trips": 1100}))
        assert main(["bench", "diff", base, cur]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "round_trips" in out

    def test_profile_digest_change_exits_one(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json",
                          envelope(profile_digest=4067162030))
        cur = self.write(tmp_path / "cur.json",
                         envelope(profile_digest=1391662003))
        assert main(["bench", "diff", base, cur]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "profile_digest: 4067162030 -> 1391662003" in out

    def test_torn_artifact_exits_two(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", envelope())
        torn = tmp_path / "torn.json"
        raw = envelope()
        raw["crc"] ^= 1
        torn.write_text(json.dumps(raw))
        assert main(["bench", "diff", base, str(torn)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        base = self.write(tmp_path / "base.json", envelope())
        assert main(["bench", "diff", base,
                     str(tmp_path / "absent.json")]) == 2

    def test_workload_mismatch_exits_two(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", envelope())
        other = self.write(
            tmp_path / "other.json",
            envelope(workload={"domain": "auto", "n_interfaces": 8,
                               "seed": 1}))
        assert main(["bench", "diff", base, other]) == 2
        assert "mismatch" in capsys.readouterr().err
