"""Tests for repro.io: JSON serialisation round trips."""

import json
import os
import stat

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import (
    RUN_RESULT_FORMAT,
    cache_stats_to_dict,
    dataset_to_dict,
    degradation_report_to_dict,
    dump_dataset,
    dump_run_result,
    ground_truth_from_dict,
    ground_truth_to_dict,
    interface_from_dict,
    interface_to_dict,
    load_run_result,
    observability_to_dict,
    run_result_to_dict,
)
from repro.obs import ObsConfig
from repro.resilience import FaultProfile, ResilienceConfig


@pytest.fixture(scope="module")
def dataset():
    return build_domain_dataset("auto", n_interfaces=5, seed=9)


class TestInterfaceRoundTrip:
    def test_lossless(self, dataset):
        original = dataset.interfaces[0]
        original.attributes[0].acquired.append("Honda")
        restored = interface_from_dict(interface_to_dict(original))
        assert restored.interface_id == original.interface_id
        assert restored.attribute_names == original.attribute_names
        for a, b in zip(original.attributes, restored.attributes):
            assert (a.label, a.kind, a.instances) == (b.label, b.kind, b.instances)
            assert a.acquired == b.acquired
        original.attributes[0].clear_acquired()

    def test_json_serialisable(self, dataset):
        payload = interface_to_dict(dataset.interfaces[0])
        json.dumps(payload)  # must not raise


class TestGroundTruthRoundTrip:
    def test_lossless(self, dataset):
        restored = ground_truth_from_dict(
            ground_truth_to_dict(dataset.ground_truth))
        assert restored.match_pairs() == dataset.ground_truth.match_pairs()


class TestDatasetSnapshot:
    def test_contents(self, dataset):
        payload = dataset_to_dict(dataset)
        assert payload["domain"] == "auto"
        assert payload["seed"] == 9
        assert payload["n_interfaces"] == 5
        assert len(payload["interfaces"]) == 5

    def test_dump_to_file(self, dataset, tmp_path):
        path = tmp_path / "snapshot.json"
        dump_dataset(dataset, str(path))
        payload = json.loads(path.read_text())
        assert payload["n_documents"] == dataset.engine.n_documents

    def test_seed_regenerates_identical_dataset(self, dataset):
        payload = dataset_to_dict(dataset)
        rebuilt = build_domain_dataset(
            payload["domain"], payload["n_interfaces"], payload["seed"])
        assert dataset_to_dict(rebuilt)["interfaces"] == payload["interfaces"]


class TestRunResult:
    def test_serialises_full_run(self, dataset):
        result = WebIQMatcher(WebIQConfig()).run(dataset)
        payload = run_result_to_dict(result)
        json.dumps(payload)
        assert payload["metrics"]["f1"] == pytest.approx(result.metrics.f1)
        assert payload["config"]["threshold"] == 0.0
        assert payload["acquisition"]["k"] == 10
        covered = sum(len(c) for c in payload["clusters"])
        assert covered == sum(len(i.attributes) for i in dataset.interfaces)

    def test_baseline_run_has_null_acquisition(self, dataset):
        config = WebIQConfig(enable_surface=False, enable_attr_deep=False,
                             enable_attr_surface=False)
        result = WebIQMatcher(config).run(dataset)
        payload = run_result_to_dict(result)
        assert payload["acquisition"] is None

    def test_dump_run_result(self, dataset, tmp_path):
        result = WebIQMatcher(WebIQConfig()).run(dataset)
        path = tmp_path / "run.json"
        dump_run_result(result, str(path))
        assert json.loads(path.read_text())["domain"] == "auto"


@pytest.fixture(scope="module")
def instrumented_result():
    """One run with every accounting layer active (faults, memo, obs)."""
    config = WebIQConfig(
        resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.15, seed=5)),
        obs=ObsConfig(),
    )
    dataset = build_domain_dataset("book", n_interfaces=4, seed=2)
    return WebIQMatcher(config).run(dataset)


class TestRunResultRoundTrip:
    """dump_run_result → load_run_result preserves every accounting layer."""

    def test_degradation_payload_preserved(self, instrumented_result, tmp_path):
        path = tmp_path / "run.json"
        dump_run_result(instrumented_result, str(path))
        payload = load_run_result(str(path))
        assert payload["degradation"] == degradation_report_to_dict(
            instrumented_result.degradation)
        assert (payload["degradation"]["budget_spent_by_component"]
                == instrumented_result.degradation.budget_spent_by_component)

    def test_cache_payload_preserved(self, instrumented_result, tmp_path):
        path = tmp_path / "run.json"
        dump_run_result(instrumented_result, str(path))
        payload = load_run_result(str(path))
        assert payload["cache"] == cache_stats_to_dict(
            instrumented_result.cache)

    def test_trace_and_metrics_payload_preserved(
            self, instrumented_result, tmp_path):
        path = tmp_path / "run.json"
        dump_run_result(instrumented_result, str(path))
        payload = load_run_result(str(path))
        expected = json.loads(json.dumps(  # int keys etc. normalised
            observability_to_dict(instrumented_result.obs)))
        assert payload["observability"] == expected
        trace = payload["observability"]["trace"]
        assert trace["version"] == 1
        assert [span["name"] for span in trace["spans"]] == ["run"]
        assert payload["observability"]["metrics"]["counters"]

    def test_overhead_queries_preserved(self, instrumented_result, tmp_path):
        path = tmp_path / "run.json"
        dump_run_result(instrumented_result, str(path))
        payload = load_run_result(str(path))
        assert payload["overhead_queries"] == \
            instrumented_result.stopwatch.queries_by_account

    def test_uninstrumented_run_has_null_observability(self, dataset, tmp_path):
        result = WebIQMatcher(WebIQConfig()).run(dataset)
        path = tmp_path / "plain.json"
        dump_run_result(result, str(path))
        payload = load_run_result(str(path))
        assert payload["observability"] is None

    def test_dump_is_byte_deterministic(self, instrumented_result, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        dump_run_result(instrumented_result, str(first))
        dump_run_result(instrumented_result, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_provenance_payload_preserved(self, instrumented_result, tmp_path):
        path = tmp_path / "run.json"
        dump_run_result(instrumented_result, str(path))
        payload = load_run_result(str(path))
        expected = json.loads(json.dumps(
            instrumented_result.obs.provenance.to_dict()))
        assert payload["provenance"] == expected
        assert payload["provenance"]["lineage"]
        assert payload["provenance"]["explanations"]


class TestRunResultFormatVersioning:
    """The schema version gate: one current format, nothing upgraded."""

    #: A miniature current-format payload with no optional sections.
    BLOB = {"format": RUN_RESULT_FORMAT, "domain": "book", "seed": 4,
            "metrics": {"f1": 0.947}, "provenance": None}

    def write_blob(self, tmp_path, payload):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_current_dump_carries_format_and_seed(
            self, instrumented_result, tmp_path):
        path = tmp_path / "run.json"
        dump_run_result(instrumented_result, str(path))
        payload = load_run_result(str(path))
        # Every run writes the current format; sections the run did not
        # have are absent, not null.
        assert payload["format"] == RUN_RESULT_FORMAT
        assert payload["seed"] == 2
        assert "checkpoint" not in payload

    def test_payload_loads_as_written(self, tmp_path):
        assert load_run_result(self.write_blob(tmp_path, self.BLOB)) == \
            self.BLOB

    def test_unversioned_payload_is_rejected(self, tmp_path):
        blob = {k: v for k, v in self.BLOB.items() if k != "format"}
        with pytest.raises(ValueError, match="unrecognised"):
            load_run_result(self.write_blob(tmp_path, blob))

    def test_future_format_is_rejected(self, tmp_path):
        blob = dict(self.BLOB, format=RUN_RESULT_FORMAT + 1)
        with pytest.raises(ValueError, match="newer"):
            load_run_result(self.write_blob(tmp_path, blob))

    def test_nonsense_format_is_rejected(self, tmp_path):
        for bad in (0, -3, "two", True, 6.0, None):
            blob = dict(self.BLOB, format=bad)
            with pytest.raises(ValueError):
                load_run_result(self.write_blob(tmp_path, blob))


class TestAtomicDumps:
    """A crash (or serialisation failure) mid-dump never tears the target."""

    def test_failed_dump_leaves_existing_file_intact(
            self, dataset, tmp_path, monkeypatch):
        """The fails-pre-fix test for atomic writes.

        Before dumps went through the atomic helper, a payload that blew
        up mid-serialisation left the target truncated: ``json.dump``
        streams into an already-opened ``open(path, "w")``, which has
        wiped the file before the error surfaces. With serialise-first +
        temp-file + ``os.replace``, the old artifact survives any
        failure byte-for-byte.
        """
        import repro.io as io_module

        result = WebIQMatcher(WebIQConfig()).run(dataset)
        path = tmp_path / "run.json"
        dump_run_result(result, str(path))
        before = path.read_bytes()

        monkeypatch.setattr(
            io_module, "run_result_to_dict",
            lambda _result: {"payload": object()},  # not JSON-serialisable
        )
        with pytest.raises(TypeError):
            io_module.dump_run_result(result, str(path))
        assert path.read_bytes() == before

    def test_failed_write_leaves_no_temp_files(self, tmp_path):
        from repro.util.atomicio import atomic_write_json

        target = tmp_path / "artifact.json"
        with pytest.raises(TypeError):
            atomic_write_json(str(target), {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_atomic_json_bytes_match_historical_dump(self, tmp_path):
        from repro.util.atomicio import atomic_write_json

        payload = {"b": [1, 2], "a": {"nested": True}}
        atomic_path = tmp_path / "atomic.json"
        atomic_write_json(str(atomic_path), payload)
        legacy_path = tmp_path / "legacy.json"
        with open(legacy_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        assert atomic_path.read_bytes() == legacy_path.read_bytes()

    def test_rename_is_made_durable_with_directory_fsync(
            self, tmp_path, monkeypatch):
        """The fails-pre-fix test for the directory-fsync bug.

        ``os.replace`` updates a directory entry; on a power loss the
        entry can vanish even though the file's blocks are safe — a
        journal whose newest record silently disappears. The writer must
        therefore fsync the *parent directory* after the rename, not
        just the temp file before it.
        """
        from repro.util.atomicio import atomic_write_json

        synced_dirs, synced_files = [], []
        real_fsync = os.fsync

        def spy(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced_dirs.append(fd)
            else:
                synced_files.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        atomic_write_json(str(tmp_path / "artifact.json"), {"x": 1})
        assert len(synced_files) == 1  # the temp file, pre-rename
        assert len(synced_dirs) == 1  # the parent entry, post-rename

    def test_directory_fsync_failure_degrades_gracefully(
            self, tmp_path, monkeypatch):
        """Platforms that cannot fsync a directory lose durability of the
        rename, never the write itself."""
        from repro.util.atomicio import atomic_write_json

        real_fsync = os.fsync

        def hostile(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory fsync unsupported")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", hostile)
        path = tmp_path / "artifact.json"
        atomic_write_json(str(path), {"x": 1})  # must not raise
        assert json.loads(path.read_text()) == {"x": 1}

    def test_dataset_dump_is_atomic_and_loadable(self, dataset, tmp_path):
        path = tmp_path / "dataset.json"
        dump_dataset(dataset, str(path))
        payload = json.loads(path.read_text())
        assert payload["domain"] == dataset.domain
        assert list(tmp_path.iterdir()) == [path]


class TestCheckpointExport:
    """The thin, resume-invariant checkpoint section."""

    def test_format_3_round_trip(self, tmp_path):
        from repro.checkpoint import JOURNAL_FORMAT, CheckpointConfig

        run_dataset = build_domain_dataset("book", n_interfaces=3, seed=1)
        config = WebIQConfig(checkpoint=CheckpointConfig(
            directory=str(tmp_path / "journal")))
        result = WebIQMatcher(config).run(run_dataset)
        path = tmp_path / "run.json"
        dump_run_result(result, str(path))
        payload = load_run_result(str(path))
        assert payload["format"] == RUN_RESULT_FORMAT
        assert payload["checkpoint"] == {
            "journal_format": JOURNAL_FORMAT,
            "boundaries": result.checkpoint.boundaries,
        }
        assert "supervisor" not in payload


class TestSupervisorExport:
    """Supervised runs carry their full recovery provenance."""

    def _supervised_result(self, tmp_path):
        from repro.checkpoint import CheckpointConfig
        from repro.supervisor import RunSupervisor

        run_dataset = build_domain_dataset("book", n_interfaces=3, seed=1)
        config = WebIQConfig(checkpoint=CheckpointConfig(
            directory=str(tmp_path / "journal")))
        return RunSupervisor(config, kill_schedule=(3, None)).run(
            run_dataset)

    def test_format_4_round_trip(self, tmp_path):
        result = self._supervised_result(tmp_path)
        path = tmp_path / "run.json"
        dump_run_result(result, str(path))
        payload = load_run_result(str(path))
        assert payload["format"] == RUN_RESULT_FORMAT
        assert "service" not in payload
        section = payload["supervisor"]
        assert section["completed"] is True
        assert section["restarts"] == 1
        assert [a["outcome"] for a in section["attempts"]] == \
            ["preemption", "completed"]
        assert section["attempts"][0]["error"].startswith("PreemptionError")
        assert section["quarantined_units"] == []
        assert section["wasted_round_trips"] == \
            result.supervisor.wasted_round_trips


class TestServiceExport:
    """Service-executed runs carry their service coordinates."""

    def test_format_5_round_trip(self, dataset, tmp_path):
        from repro.service import ServiceRunInfo

        result = WebIQMatcher(WebIQConfig()).run(dataset)
        result.service = ServiceRunInfo(
            request_id="r0001", tenant="acme", epoch_parent=0,
            epoch_published=1, warm=False, outcome="completed")
        path = tmp_path / "run.json"
        dump_run_result(result, str(path))
        payload = load_run_result(str(path))
        assert payload["format"] == RUN_RESULT_FORMAT
        assert payload["service"] == {
            "request_id": "r0001",
            "tenant": "acme",
            "epoch_parent": 0,
            "epoch_published": 1,
            "warm": False,
            "outcome": "completed",
        }

    def test_strip_only_drops_the_service_section(self):
        from repro.io import strip_service_section

        base = {"format": RUN_RESULT_FORMAT, "service": {"tenant": "acme"},
                "checkpoint": {"boundaries": 3}}
        assert strip_service_section(base) == {
            "format": RUN_RESULT_FORMAT, "checkpoint": {"boundaries": 3}}
        # the input is untouched
        assert "service" in base

    def test_strip_is_idempotent_on_plain_payloads(self):
        from repro.io import strip_service_section

        plain = {"format": RUN_RESULT_FORMAT, "domain": "book"}
        assert strip_service_section(plain) == plain


class TestExportCorruption:
    """A torn run export fails as a typed error naming path and offset."""

    def test_truncated_export_raises_typed_error(self, dataset, tmp_path):
        from repro.util.errors import ExportCorruptionError

        result = WebIQMatcher(WebIQConfig()).run(dataset)
        path = tmp_path / "run.json"
        dump_run_result(result, str(path))
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])

        with pytest.raises(ExportCorruptionError) as excinfo:
            load_run_result(str(path))
        error = excinfo.value
        assert error.path == str(path)
        assert 0 <= error.offset <= len(content) // 2
        assert str(path) in str(error)
        assert "byte" in str(error)

    def test_corruption_error_is_reproerror(self):
        from repro.util.errors import ExportCorruptionError, ReproError

        assert issubclass(ExportCorruptionError, ReproError)
        assert not issubclass(ExportCorruptionError, ValueError)

    def test_non_utf8_export_raises_typed_error(self, tmp_path):
        from repro.util.errors import ExportCorruptionError

        path = tmp_path / "run.json"
        damaged = b'{"format": 6, "domain": "b\xffok"}'
        path.write_bytes(damaged)
        with pytest.raises(ExportCorruptionError) as excinfo:
            load_run_result(str(path))
        assert excinfo.value.offset == damaged.index(b"\xff")
        assert str(path) in str(excinfo.value)
