"""The metamorphic crash-safety contract: kill anywhere, resume, same bytes.

For a pipeline run with checkpointing on, killing the process at *any*
journal boundary and resuming must produce a run whose exported payload
is byte-identical to the uninterrupted run — same instances, clusters,
metrics, stopwatch accounts, degradation report and cache stats — while
re-spending **zero** engine queries or source probes on replayed units.

The primary configuration (faults, the full stack) is swept over
*every* boundary; the other stack combinations and the domain × seed
grid are swept over sampled boundaries (first, middle, last). Every
resumed run is additionally audited by the cross-layer
:class:`~repro.obs.InvariantChecker`, whose checkpoint laws prove the
zero-respend claim from the raw substrate counters.
"""

import json
import os

import pytest

from repro.checkpoint import CheckpointConfig, RunJournal
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import RUN_RESULT_FORMAT, dump_run_result, run_result_to_dict
from repro.obs import ObsConfig, check_run, diff_runs
from repro.perf.cache import normalize_query
from repro.resilience import BreakerPolicy, FaultProfile, ResilienceConfig
from repro.surfaceweb.engine import SearchEngine
from repro.text.labels import clean_label
from repro.util.envelope import seal
from repro.util.errors import (
    JournalMismatchError,
    PreemptionError,
    ResumeError,
)

N_INTERFACES = 3
DOMAINS = ("book", "airfare")
SEEDS = (1, 2, 3)


def faulty_resilience(**overrides):
    # Volume-reactive valves parked (unbounded budgets, breaker out of
    # reach) so runs of different histories stay comparable — same
    # reasoning as the cache-equivalence suite.
    return ResilienceConfig(
        profile=FaultProfile(fault_rate=0.15, seed=5, **overrides),
        breaker=BreakerPolicy(failure_threshold=10_000),
    )


COMBOS = {
    "faults": faulty_resilience,
    "plain": lambda: None,
}


def run_once(domain, seed, combo, checkpoint=None):
    """One pipeline run; returns (canonical payload, result, dataset)."""
    dataset = build_domain_dataset(domain, N_INTERFACES, seed)
    config = WebIQConfig(resilience=COMBOS[combo](), checkpoint=checkpoint)
    result = WebIQMatcher(config).run(dataset)
    return canonical(dataset, result), result, dataset


def canonical(dataset, result):
    """The full export plus raw acquired state, as comparable bytes.

    The checkpoint section and format are stripped: they differ between
    a checkpointed and an unjournaled run by design, and equality of
    everything else is exactly the guarantee under test.
    """
    payload = run_result_to_dict(result)
    payload.pop("checkpoint", None)
    payload.pop("format", None)
    payload["_acquired"] = {
        interface.interface_id: {
            attribute.name: list(attribute.acquired)
            for attribute in interface.attributes
        }
        for interface in dataset.interfaces
    }
    return json.dumps(payload, sort_keys=True)


_BASELINES = {}


def baseline(domain, seed, combo):
    """Memoised uninterrupted (checkpoint-free) reference run."""
    key = (domain, seed, combo)
    if key not in _BASELINES:
        payload, result, _ = run_once(domain, seed, combo)
        _BASELINES[key] = (payload, result)
    return _BASELINES[key]


def kill_and_resume(tmp_path, domain, seed, combo, kill_at):
    """Kill a checkpointed run at ``kill_at``, resume it, return the
    resumed (payload, result, dataset)."""
    directory = str(tmp_path / f"journal-{domain}-{seed}-{kill_at}")
    with pytest.raises(PreemptionError):
        run_once(domain, seed, combo,
                 CheckpointConfig(directory=directory, kill_at=kill_at))
    return run_once(domain, seed, combo,
                    CheckpointConfig(directory=directory, resume=True))


class TestRecordingIsReadOnly:
    """Journaling a run (no resume) must not change it at all."""

    @pytest.mark.parametrize("combo", sorted(COMBOS))
    def test_journaled_run_payload_identical(self, tmp_path, combo):
        base_payload, _ = baseline("book", 1, combo)
        payload, result, _ = run_once(
            "book", 1, combo,
            CheckpointConfig(directory=str(tmp_path / "journal")))
        assert payload == base_payload
        assert result.checkpoint is not None
        assert result.checkpoint.replayed_records == 0
        assert result.checkpoint.fresh_records == \
            result.checkpoint.boundaries > 0

    def test_checkpoint_off_export_has_no_checkpoint_key(self, tmp_path):
        _, result = baseline("book", 1, "plain")
        payload = run_result_to_dict(result)
        assert payload["format"] == RUN_RESULT_FORMAT
        assert "checkpoint" not in payload

    def test_checkpoint_on_export_is_resume_invariant_only(self, tmp_path):
        _, result, _ = run_once(
            "book", 1, "plain",
            CheckpointConfig(directory=str(tmp_path / "journal")))
        payload = run_result_to_dict(result)
        assert payload["format"] == RUN_RESULT_FORMAT
        assert set(payload["checkpoint"]) == {"journal_format", "boundaries"}


class TestKillSweepPrimary:
    """Every boundary of the full stack (faults + cache) is a safe death."""

    def test_every_boundary_resumes_byte_identical(self, tmp_path):
        base_payload, base_result = baseline("book", 1, "faults")
        _, probe, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=str(tmp_path / "probe")))
        boundaries = probe.checkpoint.boundaries
        assert boundaries > 10
        for kill_at in range(boundaries):
            payload, result, dataset = kill_and_resume(
                tmp_path, "book", 1, "faults", kill_at)
            assert payload == base_payload, f"diverged after kill at {kill_at}"
            audit = check_run(result)
            assert audit.ok, f"kill at {kill_at}: {audit.summary()}"
            assert result.checkpoint.replayed_records == kill_at + 1
            # Zero transport calls re-spent on replayed units: what this
            # process really sent equals its fresh spend exactly.
            assert result.checkpoint.engine_round_trips + \
                result.checkpoint.source_round_trips == \
                result.checkpoint.fresh_round_trips

    def test_kill_at_last_boundary_resumes_with_zero_fresh_units(
            self, tmp_path):
        base_payload, _ = baseline("book", 1, "faults")
        _, probe, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=str(tmp_path / "probe")))
        last = probe.checkpoint.boundaries - 1
        payload, result, dataset = kill_and_resume(
            tmp_path, "book", 1, "faults", last)
        assert payload == base_payload
        assert result.checkpoint.fresh_records == 0
        assert dataset.engine.query_count == 0


class TestKillSweepGrid:
    """Sampled boundaries across stack combos, domains and seeds."""

    @pytest.mark.parametrize("combo", sorted(COMBOS))
    def test_sampled_boundaries_per_combo(self, tmp_path, combo):
        base_payload, _ = baseline("book", 1, combo)
        _, probe, _ = run_once(
            "book", 1, combo,
            CheckpointConfig(directory=str(tmp_path / "probe")))
        n = probe.checkpoint.boundaries
        for kill_at in {0, n // 2, n - 1}:
            payload, result, _ = kill_and_resume(
                tmp_path, "book", 1, combo, kill_at)
            assert payload == base_payload, f"diverged after kill at {kill_at}"
            audit = check_run(result)
            assert audit.ok, f"kill at {kill_at}: {audit.summary()}"

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_domain_seed_grid(self, tmp_path, domain, seed):
        base_payload, _ = baseline(domain, seed, "faults")
        _, probe, _ = run_once(
            domain, seed, "faults",
            CheckpointConfig(directory=str(tmp_path / "probe")))
        n = probe.checkpoint.boundaries
        for kill_at in {0, n // 2, n - 1}:
            payload, result, _ = kill_and_resume(
                tmp_path, domain, seed, "faults", kill_at)
            assert payload == base_payload, f"diverged after kill at {kill_at}"
            audit = check_run(result)
            assert audit.ok, f"kill at {kill_at}: {audit.summary()}"


class TestResumeSemantics:
    def test_no_drift_between_uninterrupted_and_resumed_exports(
            self, tmp_path):
        _, base_result, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=str(tmp_path / "uninterrupted")))
        n = base_result.checkpoint.boundaries
        _, resumed, _ = kill_and_resume(
            tmp_path, "book", 1, "faults", n // 2)
        diff = diff_runs(run_result_to_dict(base_result),
                         run_result_to_dict(resumed))
        assert diff.identical, diff.summary()
        assert not diff.provenance_diverged

    def test_chained_kills(self, tmp_path):
        """Kill, resume, kill again later, resume again: still identical."""
        base_payload, _ = baseline("book", 1, "faults")
        directory = str(tmp_path / "journal")
        _, probe, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=str(tmp_path / "probe")))
        n = probe.checkpoint.boundaries
        with pytest.raises(PreemptionError):
            run_once("book", 1, "faults",
                     CheckpointConfig(directory=directory, kill_at=n // 3))
        with pytest.raises(PreemptionError):
            run_once("book", 1, "faults",
                     CheckpointConfig(directory=directory, resume=True,
                                      kill_at=2 * n // 3))
        payload, result, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=directory, resume=True))
        assert payload == base_payload
        assert check_run(result).ok

    def test_resume_of_complete_journal_does_no_fresh_work(self, tmp_path):
        directory = str(tmp_path / "journal")
        base_payload, _, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=directory))
        payload, result, dataset = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=directory, resume=True))
        assert payload == base_payload
        assert result.checkpoint.fresh_records == 0
        assert dataset.engine.query_count == 0
        assert sum(s.probe_count for s in dataset.sources.values()) == 0

    def test_resumed_dump_byte_identical_to_uninterrupted_dump(
            self, tmp_path):
        _, base_result, _ = run_once(
            "book", 1, "faults",
            CheckpointConfig(directory=str(tmp_path / "uninterrupted")))
        n = base_result.checkpoint.boundaries
        _, resumed, _ = kill_and_resume(
            tmp_path, "book", 1, "faults", n // 2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_run_result(base_result, str(a))
        dump_run_result(resumed, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSearchMemoResume:
    """Extraction searches are journaled in the run's memo (format 3)."""

    def test_kill_after_a_repeated_label_re_searches_nothing_held(
            self, tmp_path, monkeypatch):
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        labels = {
            (interface.interface_id, attribute.name):
                clean_label(attribute.label).lower()
            for interface in dataset.interfaces
            for attribute in interface.attributes
        }
        base_result = WebIQMatcher(WebIQConfig(checkpoint=CheckpointConfig(
            directory=str(tmp_path / "uninterrupted")))).run(dataset)
        records = RunJournal.open(str(tmp_path / "uninterrupted")).records
        surface = [(index, labels[tuple(body["unit"][1:])])
                   for index, body in enumerate(records)
                   if body["unit"][0] == "surface" and not body["skipped"]]
        # the first Surface unit whose label an earlier unit already asked
        kill_at = next(index for k, (index, label) in enumerate(surface)
                       if label in {seen for _, seen in surface[:k]})
        held_labels = {label for index, label in surface if index <= kill_at}
        assert any(label in held_labels
                   for index, label in surface if index > kill_at)
        held = {
            tuple(query[:2])
            for body in records[:kill_at + 1]
            for query in body["stores"].get("validation", {}).get(
                "searches", ())
        }
        assert held

        directory = str(tmp_path / "journal")
        with pytest.raises(PreemptionError):
            run_once("book", 1, "plain",
                     CheckpointConfig(directory=directory, kill_at=kill_at))
        asked = []
        search = SearchEngine.search

        def recorded_search(engine, query, max_results=10):
            asked.append((normalize_query(query), max_results))
            return search(engine, query, max_results)

        monkeypatch.setattr(SearchEngine, "search", recorded_search)
        _, resumed, _ = run_once(
            "book", 1, "plain",
            CheckpointConfig(directory=directory, resume=True))
        assert asked, "the resumed process ran no fresh Surface unit"
        assert not held & set(asked)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_run_result(base_result, str(a))
        dump_run_result(resumed, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestResumeRefusals:
    """A journal that does not match the run is refused, never misread."""

    def test_resume_without_journal(self, tmp_path):
        with pytest.raises(JournalMismatchError, match="no journal"):
            run_once("book", 1, "plain",
                     CheckpointConfig(directory=str(tmp_path / "missing"),
                                      resume=True))

    def test_resume_across_seeds_refused(self, tmp_path):
        directory = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=directory))
        with pytest.raises(JournalMismatchError, match="seed"):
            run_once("book", 2, "plain",
                     CheckpointConfig(directory=directory, resume=True))

    def test_resume_across_domains_refused(self, tmp_path):
        directory = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=directory))
        with pytest.raises(JournalMismatchError, match="domain"):
            run_once("airfare", 1, "plain",
                     CheckpointConfig(directory=directory, resume=True))

    def test_resume_with_a_cache_key_refused(self, tmp_path):
        # Format-4 journals once recorded the cache switch in their meta;
        # every run now reports its memo, so no run's meta has the key.
        directory = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=directory))
        meta = RunJournal.open(directory).meta
        assert "cache" not in meta
        meta["cache"] = True
        with open(os.path.join(directory, "meta.json"), "w") as handle:
            handle.write(seal(meta, 4))
        with pytest.raises(JournalMismatchError, match="keys: cache"):
            run_once("book", 1, "plain",
                     CheckpointConfig(directory=directory, resume=True))

    def test_resume_of_a_per_validator_store_refused(self, tmp_path):
        # Runs once journaled each validator's private hit-count memo as
        # "validation:surface" / "validation:attr_surface"; every run now
        # has one shared memo, journaled as "validation" alone.
        source = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=source))
        journal = RunJournal.open(source)
        forged = RunJournal.create(str(tmp_path / "forged"), journal.meta)
        for body in journal.records:
            body = {key: value for key, value in body.items()
                    if key != "index"}
            body["stores"] = {f"{name}:surface": delta
                              for name, delta in body["stores"].items()}
            forged.append(body)
        assert any(body["stores"] for body in forged.records)
        with pytest.raises(JournalMismatchError,
                           match="'validation:surface'"):
            run_once("book", 1, "plain",
                     CheckpointConfig(directory=str(tmp_path / "forged"),
                                      resume=True))

    def test_resume_of_a_format_2_journal_refused(self, tmp_path):
        # Format-2 records journal two marginal maps and no searches.
        directory = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=directory))
        meta = RunJournal.open(directory).meta
        with open(os.path.join(directory, "meta.json"), "w") as handle:
            handle.write(seal(meta, 2))
        with pytest.raises(JournalMismatchError, match="format 2"):
            run_once("book", 1, "plain",
                     CheckpointConfig(directory=directory, resume=True))

    def test_resume_of_a_format_3_journal_refused(self, tmp_path):
        # Format-3 records carry the query cache's ops and its LRU size
        # in the meta; nothing reads them any more.
        directory = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=directory))
        meta = RunJournal.open(directory).meta
        meta["cache_entries"] = 65536
        with open(os.path.join(directory, "meta.json"), "w") as handle:
            handle.write(seal(meta, 3))
        with pytest.raises(JournalMismatchError, match="format 3"):
            run_once("book", 1, "plain",
                     CheckpointConfig(directory=directory, resume=True))

    def test_resume_under_observability_refused(self, tmp_path):
        directory = str(tmp_path / "journal")
        run_once("book", 1, "plain", CheckpointConfig(directory=directory))
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        config = WebIQConfig(
            obs=ObsConfig(),
            checkpoint=CheckpointConfig(directory=directory, resume=True))
        with pytest.raises(ResumeError, match="observability"):
            WebIQMatcher(config).run(dataset)

    def test_journaling_without_resume_composes_with_obs(self, tmp_path):
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        config = WebIQConfig(
            obs=ObsConfig(),
            checkpoint=CheckpointConfig(
                directory=str(tmp_path / "journal")))
        result = WebIQMatcher(config).run(dataset)
        audit = check_run(result)
        assert audit.ok, audit.summary()
        assert "checkpoint-spend-conservation" in audit.checked
        assert "checkpoint-replay-isolation" in audit.checked
