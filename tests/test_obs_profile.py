"""Metamorphic profile suite: profiling is free, and its books balance.

The span profiler's core promise is that turning it on changes nothing:
``ObsConfig(profile=True)`` must leave every exported payload
bit-identical to a profile-off run across the whole stack matrix —
faults and checkpointing, alone and in combination.
On top of read-only-ness, the profile's own accounting must balance
(the ``profile-time-conservation`` law): every span closed, self time
non-negative, and the sum of all self times equal to the root spans'
cumulative time.

The cells cycle the stack knobs across (domain, seed) pairs, so every
knob is exercised on and off, in combination, at tier-1 cost.
"""

import json

import pytest

from repro.checkpoint import CheckpointConfig
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import (
    ObsConfig,
    aggregate_spans,
    build_profile,
    check_run,
    collapsed_stacks,
    hottest_paths,
    span_time_violations,
    write_profile,
)
from repro.resilience import BreakerPolicy, FaultProfile, ResilienceConfig

N_INTERFACES = 3

#: each cell turns a different combination of stack knobs on, so the
#: read-only proof covers every subsystem alone and in combination
CELLS = (
    ("book", 1, dict(faults=False, checkpoint=False)),
    ("book", 2, dict(faults=True, checkpoint=False)),
    ("book", 3, dict(faults=False, checkpoint=True)),
    ("auto", 1, dict(faults=True, checkpoint=False)),
    ("auto", 2, dict(faults=False, checkpoint=True)),
    ("auto", 3, dict(faults=True, checkpoint=True)),
)

CELL_IDS = [f"{domain}-s{seed}-" for domain, seed, _ in CELLS]

#: work counters of one default profiled run on book, 5 interfaces, seed 1
PINNED_WORK = {
    "donor.candidates": 276,
    "donor.value_comparisons": 103,
    "engine.round_trips": 779,
    "index.intersections": 2147,
    "index.window_checks": 226,
    "pmi.phrase_queries": 715,
    "similarity.evaluations": 42,
    "surface.search_memo_hits": 32,
    "tokenizer.calls": 1384,
}

#: round trips of the same run without the run's search memo: every memo
#: hit skips exactly one engine search, so the two counts sum to it
ROUND_TRIPS_UNMEMOIZED = 811

#: tokeniser calls of the same run without the Surface memo and the
#: search memo: every Surface-memo hit skips exactly one tagging, and
#: every search-memo hit one query parse of two tokenisations (the
#: quoted cue and book's one +keyword), so the counts sum to it
TOKENIZER_CALLS_UNMEMOIZED = 1529

#: similarity evaluations of the same run before the blocked matrix: all
#: n(n−1)/2 pairs of its 25 views; every pair the blocking index skips is
#: one evaluation fewer, so the two counts sum to it
SIMILARITY_PAIRS = 25 * 24 // 2


def resilience_on():
    return ResilienceConfig(
        profile=FaultProfile(fault_rate=0.15, seed=5),
        breaker=BreakerPolicy(failure_threshold=10_000),
    )


def run_cell(domain, seed, knobs, profile, tmp_path=None):
    checkpoint = None
    if knobs["checkpoint"]:
        suffix = "profiled" if profile else "plain"
        checkpoint = CheckpointConfig(
            directory=str(tmp_path / f"journal-{suffix}"))
    config = WebIQConfig(
        resilience=resilience_on() if knobs["faults"] else None,
        checkpoint=checkpoint,
        obs=ObsConfig(profile=profile),
    )
    dataset = build_domain_dataset(domain, N_INTERFACES, seed)
    return WebIQMatcher(config).run(dataset)


def comparable(result):
    payload = run_result_to_dict(result)
    # the journal directory is a tmp path, different per run by design
    payload.pop("checkpoint", None)
    return json.dumps(payload, sort_keys=True)


class TestProfileIsReadOnly:
    @pytest.mark.parametrize("domain,seed,knobs", CELLS, ids=CELL_IDS)
    def test_profile_on_is_bit_identical(self, domain, seed, knobs,
                                         tmp_path):
        plain = run_cell(domain, seed, knobs, profile=False,
                         tmp_path=tmp_path)
        profiled = run_cell(domain, seed, knobs, profile=True,
                            tmp_path=tmp_path)
        assert profiled.obs.counters is not None
        assert plain.obs.counters is None
        assert comparable(profiled) == comparable(plain)

        # the observed run passes the full invariant audit, including the
        # profiler's own conservation law
        report = check_run(profiled)
        assert report.ok, report.summary()
        assert "profile-time-conservation" in report.checked
        assert not span_time_violations(profiled.obs.tracer)

        # ...and the profile the run yields balances: all self time is
        # accounted to exactly one path, summing back to the roots
        profile = build_profile(profiled)
        det = profile["deterministic"]
        total_self = sum(row["t_self"] for row in det["spans"])
        root_cum = sum(row["t_cum"] for row in det["spans"]
                       if ";" not in row["path"])
        assert total_self == pytest.approx(root_cum, abs=1e-9)
        assert all(row["t_self"] >= -1e-9 for row in det["spans"])

    def test_profiled_cells_collected_work(self, tmp_path):
        result = run_cell("book", 2, CELLS[1][2], profile=True,
                          tmp_path=tmp_path)
        counts = result.obs.counters.as_dict()
        for name in ("tokenizer.calls", "engine.round_trips",
                     "similarity.evaluations", "pmi.phrase_queries",
                     "index.intersections"):
            assert counts.get(name, 0) > 0, name

        # the donor-selection counters need a cell whose case-2 donors
        # share words with their recipients (book-s2's do not):
        # auto-s1, faults
        domain, seed, knobs = CELLS[3]
        hot = ("donor.value_comparisons", "donor.candidates",
               "similarity.feature_builds", "agglomerate.pairs_seeded",
               "agglomerate.heap_pops")
        first = run_cell(domain, seed, knobs, profile=True,
                         tmp_path=tmp_path)
        counts = first.obs.counters.as_dict()
        for name in hot:
            assert counts.get(name, 0) > 0, name
        # features are built once per matched view
        views = sum(len(cluster.keys)
                    for cluster in first.match_result.clusters)
        assert counts["similarity.feature_builds"] == views
        # work counts, not timings: a second run repeats them exactly
        again = run_cell(domain, seed, knobs, profile=True,
                         tmp_path=tmp_path).obs.counters.as_dict()
        for name in hot:
            assert again[name] == counts[name], name


class TestCounterBooksBalance:
    """Hot-path counters vs. the stack's own accounting (satellite 6)."""

    def test_round_trip_counter_matches_cache_and_transport(self):
        """On a pristine run, three independent ledgers count the same
        thing: the engine's hot-path counter, the memo's miss count, and
        the observed engine calls. Any stopwatch mischarging at a counter
        site breaks this equality."""
        config = WebIQConfig(obs=ObsConfig(profile=True))
        dataset = build_domain_dataset("book", 4, 2)
        result = WebIQMatcher(config).run(dataset)
        counter = result.obs.counters.get("engine.round_trips")
        observed_calls = result.obs.tracer.count_events(
            "web_call", substrate="engine")
        assert counter == result.cache.misses == observed_calls
        assert counter == dataset.engine.query_count

    def test_work_counters_pinned(self):
        """The Surface-Web, donor-selection and matching work of one
        profiled run, pinned: a change to how the index, tokeniser, PMI
        scorer, donor index or blocking index reads its data must leave
        these counts exactly where they are."""
        config = WebIQConfig(obs=ObsConfig(profile=True))
        result = WebIQMatcher(config).run(build_domain_dataset("book", 5, 1))
        counts = result.obs.counters.as_dict()
        pinned = {name: counts.get(name) for name in PINNED_WORK}
        assert pinned == PINNED_WORK
        assert counts["engine.round_trips"] \
            + counts["surface.search_memo_hits"] == ROUND_TRIPS_UNMEMOIZED
        assert counts["tokenizer.calls"] + counts["surface.memo_hits"] \
            + 2 * counts["surface.search_memo_hits"] \
            == TOKENIZER_CALLS_UNMEMOIZED
        assert counts["similarity.evaluations"] \
            + counts["similarity.pairs_blocked"] == SIMILARITY_PAIRS
        assert result.match_result.similarity_evaluations == SIMILARITY_PAIRS

    def test_counters_off_by_default(self):
        config = WebIQConfig(obs=ObsConfig())
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        result = WebIQMatcher(config).run(dataset)
        assert result.obs.counters is None
        # a profile still builds, but advertises the absent counters
        # explicitly so its digest differs from a counted run
        assert build_profile(result)["deterministic"]["counters"] == {}

    def test_profile_requires_observability(self):
        config = WebIQConfig()
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        result = WebIQMatcher(config).run(dataset)
        with pytest.raises(ValueError, match="ObsConfig"):
            build_profile(result)


class TestProfileArtifacts:
    @pytest.fixture(scope="class")
    def profiled(self):
        config = WebIQConfig(obs=ObsConfig(profile=True))
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        return WebIQMatcher(config).run(dataset)

    def test_aggregate_paths_are_semicolon_joined(self, profiled):
        table = aggregate_spans(profiled.obs.tracer)
        assert "run" in table
        assert any(path.startswith("run;") for path in table)
        for stats in table.values():
            assert stats.count >= 1
            assert stats.t_cum >= stats.t_self >= 0.0

    def test_profile_digest_is_deterministic(self, profiled):
        config = WebIQConfig(obs=ObsConfig(profile=True))
        dataset = build_domain_dataset("book", N_INTERFACES, 1)
        again = WebIQMatcher(config).run(dataset)
        first, second = build_profile(profiled), build_profile(again)
        assert first["digest"] == second["digest"]
        assert first["deterministic"] == second["deterministic"]

    def test_collapsed_stacks_format(self, profiled):
        profile = build_profile(profiled)
        lines = collapsed_stacks(profile).splitlines()
        assert len(lines) == len(profile["deterministic"]["spans"])
        for line in lines:
            path, _, value = line.rpartition(" ")
            assert path and value.isdigit()

    def test_write_profile_emits_json_and_folded(self, profiled, tmp_path):
        profile = build_profile(profiled)
        path = tmp_path / "profile.json"
        folded = write_profile(str(path), profile)
        assert json.loads(path.read_text())["digest"] == profile["digest"]
        assert folded.endswith(".folded")
        with open(folded) as handle:
            assert handle.read() == collapsed_stacks(profile)

    def test_hottest_paths_sorted_by_self_time(self, profiled):
        profile = build_profile(profiled)
        hottest = hottest_paths(profile, limit=3)
        assert len(hottest) == 3
        selves = [row["t_self"] for row in hottest]
        assert selves == sorted(selves, reverse=True)
