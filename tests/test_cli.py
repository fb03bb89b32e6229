"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import RUN_RESULT_FORMAT


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.domain == "airfare"
        assert args.interfaces == 20
        assert args.seed == 1

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--domain", "groceries"])

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "--baseline", "--threshold", "0.1"])
        assert args.baseline and args.threshold == 0.1

    def test_cache_flags(self):
        # every acquiring run reports its memo: there is no cache switch
        for flag in ("--cache", "--no-cache", "--cache-size=512"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", flag])


class TestCommands:
    def test_stats_output(self, capsys):
        assert main(["stats", "--domain", "auto", "--interfaces", "5",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "auto" in out and "AttrNoInst%" in out

    def test_stats_all_domains(self, capsys):
        assert main(["stats", "--domain", "all", "--interfaces", "4",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for domain in ("airfare", "auto", "book", "job", "realestate"):
            assert domain in out

    def test_run_baseline(self, capsys):
        assert main(["run", "--domain", "book", "--interfaces", "5",
                     "--seed", "3", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "F1=" in out
        assert "surface%" not in out  # baseline runs no acquisition
        assert "cache:" not in out    # ... and so has no memo to report

    def test_run_with_json_export(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["run", "--domain", "book", "--interfaces", "5",
                     "--seed", "3", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["domain"] == "book"
        assert 0.0 <= payload["metrics"]["f1"] <= 1.0
        assert payload["acquisition"]["records"]
        # every acquiring run reports its memo in the export
        assert payload["cache"]["hits"] >= 0
        assert payload["cache"]["misses"] > 0

    def test_run_prints_cache_summary_by_default(self, capsys):
        assert main(["run", "--domain", "book", "--interfaces", "5",
                     "--seed", "3"]) == 0
        assert "cache:" in capsys.readouterr().out

    def test_baseline_exports_no_cache(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["run", "--domain", "book", "--interfaces", "5",
                     "--seed", "3", "--baseline", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["cache"] is None

    def test_discover(self, capsys):
        assert main(["discover", "--domain", "book", "--interfaces", "5",
                     "--seed", "3", "Author"]) == 0
        out = capsys.readouterr().out
        assert "instances:" in out

    def test_discover_failing_label(self, capsys):
        assert main(["discover", "--domain", "airfare", "--interfaces", "5",
                     "--seed", "3", "From"]) == 0
        out = capsys.readouterr().out
        assert "none" in out

    def test_discover_rejects_all_domains(self, capsys):
        assert main(["discover", "--domain", "all", "Author"]) == 2

    def test_export(self, capsys, tmp_path):
        path = tmp_path / "dataset.json"
        assert main(["export", "--domain", "auto", "--interfaces", "4",
                     "--seed", "3", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["domain"] == "auto"
        assert len(payload["interfaces"]) == 4
        assert payload["ground_truth"]["clusters"]


class TestProvenanceCommands:
    def test_run_report_flag(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        assert main(["run", "--domain", "book", "--interfaces", "4",
                     "--seed", "1", "--report", str(path)]) == 0
        text = path.read_text()
        assert "== book (seed 1) ==" in text
        assert "hardest decisions" in text

    def test_run_explain_flag(self, capsys):
        assert main(["run", "--domain", "book", "--interfaces", "4",
                     "--seed", "1", "--explain", "author"]) == 0
        out = capsys.readouterr().out
        assert "LabelSim" in out and "DomSim" in out
        assert "tau=" in out

    def test_diff_identical_runs_is_clean(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["run", "--domain", "book", "--interfaces", "4",
                         "--seed", "1", "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "zero drift" in out

    def test_diff_flags_regression_with_exit_code(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--domain", "book", "--interfaces", "4",
                     "--seed", "1", "--json", str(a)]) == 0
        payload = json.loads(a.read_text())
        payload["metrics"]["f1"] -= 0.2
        b.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "accuracy" in out


class TestCheckpointCommands:
    RUN = ["run", "--domain", "book", "--interfaces", "3", "--seed", "1"]

    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--checkpoint", "dir", "--resume", "--kill-at", "4",
             "--strict"])
        assert args.checkpoint == "dir" and args.resume
        assert args.kill_at == 4 and args.strict

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(self.RUN + ["--resume"])

    def test_kill_at_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--kill-at requires"):
            main(self.RUN + ["--kill-at", "3"])

    def test_checkpoint_rejects_all_domains(self, tmp_path):
        with pytest.raises(SystemExit, match="single --domain"):
            main(["run", "--domain", "all", "--interfaces", "3",
                  "--checkpoint", str(tmp_path / "j")])

    def test_resume_conflicts_with_observability_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume cannot"):
            main(self.RUN + ["--checkpoint", str(tmp_path / "j"),
                             "--resume", "--metrics"])

    def test_kill_exits_3_then_resume_succeeds(self, capsys, tmp_path):
        journal = str(tmp_path / "journal")
        assert main(self.RUN + ["--checkpoint", journal,
                                "--kill-at", "5"]) == 3
        err = capsys.readouterr().err
        assert "preempted at journal boundary 5" in err
        assert "--resume" in err
        assert main(self.RUN + ["--checkpoint", journal, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: resumed" in out
        assert "units replayed" in out

    def test_checkpointed_run_prints_summary(self, capsys, tmp_path):
        assert main(self.RUN + ["--checkpoint",
                                str(tmp_path / "journal")]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: journaled" in out

    def test_resumed_json_matches_uninterrupted_json(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.RUN + ["--checkpoint", str(tmp_path / "j1"),
                                "--json", str(a)]) == 0
        journal = str(tmp_path / "j2")
        assert main(self.RUN + ["--checkpoint", journal,
                                "--kill-at", "4"]) == 3
        assert main(self.RUN + ["--checkpoint", journal, "--resume",
                                "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSupervisorCommands:
    RUN = ["run", "--domain", "book", "--interfaces", "3", "--seed", "1"]

    def test_supervise_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--checkpoint", "dir", "--supervise",
             "--max-restarts", "4", "--unit-deadline", "2.5",
             "--run-deadline", "60"])
        assert args.supervise and args.max_restarts == 4
        assert args.unit_deadline == 2.5 and args.run_deadline == 60.0

    def test_supervise_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--supervise requires"):
            main(self.RUN + ["--supervise"])

    def test_supervisor_knobs_require_supervise(self, tmp_path):
        journal = str(tmp_path / "j")
        for flag in (["--max-restarts", "2"], ["--unit-deadline", "5"],
                     ["--run-deadline", "50"]):
            with pytest.raises(SystemExit, match="requires --supervise"):
                main(self.RUN + ["--checkpoint", journal] + flag)

    def test_supervise_conflicts_with_observability_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--supervise cannot"):
            main(self.RUN + ["--checkpoint", str(tmp_path / "j"),
                             "--supervise", "--metrics"])

    def test_supervised_kill_heals_to_exit_0(self, capsys, tmp_path):
        """The chaos smoke: a kill that exits 3 unsupervised exits 0
        supervised, and the export matches the clean run's bytes."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.RUN + ["--checkpoint", str(tmp_path / "j1"),
                                "--json", str(a)]) == 0
        capsys.readouterr()
        assert main(self.RUN + ["--checkpoint", str(tmp_path / "j2"),
                                "--supervise", "--kill-at", "4",
                                "--json", str(b)]) == 0
        out = capsys.readouterr().out
        assert "supervisor: 2 attempts (1 restarts)" in out
        payload_a = json.loads(a.read_text())
        payload_b = json.loads(b.read_text())
        assert payload_b["format"] == RUN_RESULT_FORMAT
        assert payload_b["supervisor"]["restarts"] == 1
        for payload in (payload_a, payload_b):
            for key in ("checkpoint", "format", "supervisor"):
                payload.pop(key, None)
        assert payload_a == payload_b

    def test_supervised_run_deadline_completes(self, capsys, tmp_path):
        assert main(self.RUN + ["--checkpoint", str(tmp_path / "j"),
                                "--supervise", "--run-deadline", "40",
                                "--strict"]) == 0
        out = capsys.readouterr().out
        assert "supervisor:" in out and "all hold" in out

    def test_exhausted_restart_budget_exits_4(self, capsys, tmp_path):
        # --max-restarts 0 grants a single attempt, so the armed kill
        # switch is fatal.
        journal = str(tmp_path / "j")
        assert main(self.RUN + ["--checkpoint", journal, "--supervise",
                                "--max-restarts", "0",
                                "--kill-at", "2"]) == 4
        err = capsys.readouterr().err
        assert "still failing after 1 attempts" in err
        assert f"journal inspect {journal}" in err

    def test_max_restarts_rejects_negative(self, tmp_path):
        with pytest.raises(SystemExit, match="--max-restarts must be"):
            main(self.RUN + ["--checkpoint", str(tmp_path / "j"),
                             "--supervise", "--max-restarts", "-1"])

    def test_deadline_rejects_nonpositive(self, tmp_path):
        with pytest.raises(SystemExit, match="--unit-deadline must be"):
            main(self.RUN + ["--checkpoint", str(tmp_path / "j"),
                             "--supervise", "--unit-deadline", "0"])


class TestJournalCommands:
    RUN = ["run", "--domain", "book", "--interfaces", "3", "--seed", "1"]

    def _journal(self, tmp_path):
        journal = str(tmp_path / "journal")
        assert main(self.RUN + ["--checkpoint", journal]) == 0
        return journal

    def _corrupt_tail(self, journal):
        """Tear the log's last line; return the torn record's index."""
        import os
        with open(os.path.join(journal, "journal.log"), "r+b") as handle:
            data = handle.read()
            handle.seek(data.rstrip(b"\n").rfind(b"\n") + 1)
            handle.truncate()
            handle.write(b'{"torn')
        return data.count(b"\n") - 1

    def test_inspect_intact_journal(self, capsys, tmp_path):
        journal = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["journal", "inspect", journal]) == 0
        out = capsys.readouterr().out
        assert "intact" in out
        assert "domain: book" in out and "seed: 1" in out
        assert "records:" in out and "round trips journaled" in out

    def test_inspect_damaged_journal_exits_1(self, capsys, tmp_path):
        journal = self._journal(tmp_path)
        torn = self._corrupt_tail(journal)
        capsys.readouterr()
        assert main(["journal", "inspect", journal]) == 1
        err = capsys.readouterr().err
        assert "damaged" in err
        assert f"journal salvage {journal}" in err
        assert f"record {torn}: torn" in err

    def test_salvage_then_inspect_round_trip(self, capsys, tmp_path):
        import os
        journal = self._journal(tmp_path)
        self._corrupt_tail(journal)
        capsys.readouterr()
        assert main(["journal", "salvage", journal]) == 0
        out = capsys.readouterr().out
        assert "salvaged journal" in out and "quarantined 1 record" in out
        tails = os.listdir(os.path.join(journal, "quarantine"))
        assert len(tails) == 1 and tails[0] in out
        assert main(["journal", "inspect", journal]) == 0
        out = capsys.readouterr().out
        assert "intact" in out
        assert f"quarantine/: 1 damaged tail(s) cut off by earlier salvages " \
            f"({tails[0]})" in out

    def test_supervise_refuses_format_1_journal_without_retry(
            self, tmp_path, monkeypatch):
        from repro.core.pipeline import WebIQMatcher
        from repro.util.errors import JournalMismatchError
        from tests.test_checkpoint_journal import write_format_1_journal
        journal = str(tmp_path / "journal")
        write_format_1_journal(journal, {"domain": "book"})
        attempts = []
        real_run = WebIQMatcher.run

        def counted(matcher, dataset, **kwargs):
            attempts.append(None)
            return real_run(matcher, dataset, **kwargs)

        monkeypatch.setattr(WebIQMatcher, "run", counted)
        with pytest.raises(JournalMismatchError,
                           match="format 1, the old layout"):
            main(self.RUN + ["--checkpoint", journal, "--resume",
                             "--supervise"])
        assert len(attempts) == 1

    def test_salvage_intact_journal_is_a_no_op(self, capsys, tmp_path):
        journal = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["journal", "salvage", journal]) == 0
        assert "nothing to salvage" in capsys.readouterr().out

    def test_inspect_missing_journal_exits_1(self, capsys, tmp_path):
        assert main(["journal", "inspect", str(tmp_path / "missing")]) == 1
        assert "no journal" in capsys.readouterr().err

    def test_salvage_refuses_torn_meta(self, capsys, tmp_path):
        import os
        journal = self._journal(tmp_path)
        with open(os.path.join(journal, "meta.json"), "w") as handle:
            handle.write('{"torn')
        capsys.readouterr()
        assert main(["journal", "salvage", journal]) == 1
        assert "cannot salvage" in capsys.readouterr().err


class TestStrictMode:
    RUN = ["run", "--domain", "book", "--interfaces", "3", "--seed", "1"]

    def test_strict_passes_on_healthy_run(self, capsys):
        assert main(self.RUN + ["--strict"]) == 0
        out = capsys.readouterr().out
        assert "invariants:" in out and "all hold" in out

    def test_strict_exits_1_on_violation(self, capsys, monkeypatch):
        from repro.obs.invariants import InvariantReport, InvariantViolation
        import repro.obs

        def broken(result):
            report = InvariantReport()
            report.checked.append("fabricated-law")
            report.violations.append(
                InvariantViolation("fabricated-law", "deliberately broken"))
            return report

        monkeypatch.setattr(repro.obs, "check_run", broken)
        assert main(self.RUN + ["--strict"]) == 1
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "invariant violations detected" in captured.err


class TestServiceCommands:
    """The serve/request subcommands (DESIGN.md §17)."""

    def script(self, tmp_path, payload):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_serve_mixed_script(self, capsys, tmp_path):
        script = self.script(tmp_path, [
            {"tenant": "acme", "domain": "book", "interfaces": 3, "seed": 1},
            {"tenant": "globex", "domain": "book", "interfaces": 3,
             "seed": 1},
        ])
        exports = tmp_path / "exports"
        stats_path = tmp_path / "stats.json"
        assert main(["serve", "--script", script, "--export-dir",
                     str(exports), "--stats-json", str(stats_path),
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "[published] r0001" in out and "[published] r0002" in out
        assert "completed=2" in out
        assert "warm runs: 1" in out and "cold runs: 1" in out
        assert "all hold" in out
        stats = json.loads(stats_path.read_text())
        assert stats["completed"] == 2
        assert sorted(stats["tenants"]) == ["acme", "globex"]
        first = json.loads((exports / "r0001.json").read_text())
        second = json.loads((exports / "r0002.json").read_text())
        assert first["format"] == RUN_RESULT_FORMAT
        assert first["service"]["warm"] is False
        assert second["service"]["warm"] is True

    def test_serve_quota_sheds_queued_request(self, capsys, tmp_path):
        script = self.script(tmp_path, {
            "quotas": {"greedy": {"max_wall_seconds": 10.0}},
            "requests": [
                {"tenant": "greedy", "domain": "book", "interfaces": 3,
                 "seed": 1},
                {"tenant": "greedy", "domain": "book", "interfaces": 3,
                 "seed": 1},
            ],
        })
        assert main(["serve", "--script", script]) == 0
        out = capsys.readouterr().out
        assert "[shed]" in out
        assert "shed=1" in out and "completed=1" in out

    def test_serve_bad_script_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["serve", "--script", str(path)]) == 2
        assert "bad script" in capsys.readouterr().err

        assert main(["serve", "--script",
                     self.script(tmp_path, {"no": "requests"})]) == 2
        assert "'requests' key" in capsys.readouterr().err

        assert main(["serve", "--script", self.script(
            tmp_path, [{"domain": "book", "bogus": 1}])]) == 2
        assert "unknown keys" in capsys.readouterr().err

        assert main(["serve", "--script", self.script(
            tmp_path, [{"tenant": "a"}])]) == 2
        assert "missing 'domain'" in capsys.readouterr().err

        assert main(["serve", "--script", self.script(
            tmp_path, {"quotas": {"a": {"max_teapots": 1}},
                       "requests": []})]) == 2
        assert "bad quota" in capsys.readouterr().err

    def test_request_completed_exits_0(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["request", "--domain", "book", "--interfaces", "3",
                     "--seed", "1", "--tenant", "acme", "--json",
                     str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "outcome=completed" in out and "tenant=acme" in out
        assert "all hold" in out
        payload = json.loads(path.read_text())
        assert payload["format"] == RUN_RESULT_FORMAT
        assert payload["service"]["tenant"] == "acme"

    def test_request_strip_service_matches_run_json(self, tmp_path):
        served = tmp_path / "served.json"
        standalone = tmp_path / "standalone.json"
        common = ["--domain", "book", "--interfaces", "3", "--seed", "1"]
        assert main(["request"] + common + ["--strip-service", "--json",
                                            str(served)]) == 0
        assert main(["run"] + common + ["--json", str(standalone)]) == 0
        assert served.read_bytes() == standalone.read_bytes()

    def test_request_infeasible_deadline_exits_5(self, capsys, tmp_path):
        assert main(["request", "--domain", "book", "--interfaces", "3",
                     "--seed", "1", "--deadline", "0.5", "--spool",
                     str(tmp_path)]) == 5
        assert "rejected (deadline_infeasible)" in capsys.readouterr().out

    def test_request_expired_deadline_exits_3(self, capsys, tmp_path):
        assert main(["request", "--domain", "book", "--interfaces", "3",
                     "--seed", "1", "--deadline", "20", "--spool",
                     str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "outcome=deadline_expired" in out
        assert "DeadlineExceededError" in out

    def test_request_deadline_without_spool_is_an_error(self):
        with pytest.raises(SystemExit, match="spool"):
            main(["request", "--domain", "book", "--deadline", "20"])

    def test_request_validations(self):
        with pytest.raises(SystemExit, match="single"):
            main(["request", "--domain", "all"])
        with pytest.raises(SystemExit, match="fault-rate"):
            main(["request", "--domain", "book", "--fault-rate", "1.5"])

    def test_serve_parser_requires_script(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_request_parser_defaults(self):
        args = build_parser().parse_args(["request", "--domain", "book"])
        assert args.tenant == "cli"
        assert args.deadline is None
        assert args.strip_service is False

    def test_serve_persists_registry_for_assimilating_requests(
            self, capsys, tmp_path):
        script = self.script(tmp_path, [
            {"tenant": "acme", "domain": "book", "interfaces": 3,
             "seed": 1, "assimilate": True},
        ])
        registry_dir = tmp_path / "registry"
        assert main(["serve", "--script", script, "--registry",
                     str(registry_dir), "--strict"]) == 0
        assert (registry_dir / "registry.json").exists()
        # no lock left behind: the publish-save released it
        assert not (registry_dir / "registry.lock").exists()
        from repro.registry import RegistryStore

        store = RegistryStore.load(str(registry_dir))
        assert store.domain == "book"
        assert len(store.interfaces) == 3
