"""Substrate micro-benchmarks (median-of-k timing of the hot paths).

The figure benches run each expensive pipeline once; these measure the
substrate operations that dominate those runs with robust statistics, so
performance regressions are visible at the operation level:

- inverted-index construction over a domain corpus,
- phrase queries and hit counting,
- snippet extraction from one result,
- pairwise similarity evaluation, the one-time per-view feature build,
  and full constrained clustering,
- a Deep-Web probe round trip.

Each operation is timed with :func:`time.perf_counter_ns` over ``k``
repetitions after a warmup pass; the **median** is reported, which is
robust to the one-off scheduler hiccups that poison means on shared CI
runners. The medians are exported as ``BENCH_micro.json`` (path
override: ``BENCH_MICRO_JSON``) as a versioned bench envelope
(:mod:`repro.bench`); wall-clock metrics gate loosely, the deterministic
work counts gate tight.
"""

import dataclasses
import statistics
import time

import pytest

from repro.core.surface import ExtractionQueryBuilder, SnippetExtractor
from repro.datasets import build_domain_dataset
from repro.datasets.corpus import build_corpus
from repro.matching import IceQMatcher
from repro.matching.clustering import views_from_interfaces
from repro.matching.similarity import attribute_similarity
from repro.surfaceweb.engine import SearchEngine
from repro.text.labels import analyze_label

from .conftest import BENCH_SEED, TOL_INFO, TOL_TIGHT, emit_bench, print_table

#: repetitions per operation; the median of 15 tolerates 7 outliers
ROUNDS = 15
#: expensive whole-subsystem operations get fewer rounds
ROUNDS_SLOW = 5


def median_ms(fn, rounds=ROUNDS, warmup=1):
    """Median wall-clock milliseconds of ``fn`` over ``rounds`` calls.

    The warmup calls pay one-time costs (imports resolved, caches
    primed, branch predictors settled) outside the measured window; the
    median over the remaining samples is what gets gated.
    """
    for _ in range(warmup):
        result = fn()
    samples = []
    for _ in range(rounds):
        started = time.perf_counter_ns()
        result = fn()
        samples.append(time.perf_counter_ns() - started)
    return statistics.median(samples) / 1e6, result


@pytest.fixture(scope="module")
def auto_docs():
    return build_corpus("auto", seed=BENCH_SEED)


@pytest.fixture(scope="module")
def auto_engine(auto_docs):
    return SearchEngine(auto_docs)


@pytest.fixture(scope="module")
def airfare_views():
    dataset = build_domain_dataset("airfare", n_interfaces=20,
                                   seed=BENCH_SEED)
    return views_from_interfaces(dataset.interfaces)


def test_microbench(auto_docs, auto_engine, airfare_views):
    timings = {}

    index_ms, engine = median_ms(
        lambda: SearchEngine(auto_docs), rounds=ROUNDS_SLOW)
    timings["index_build_ms"] = index_ms
    assert engine.n_documents == len(auto_docs)

    search_ms, results = median_ms(
        lambda: auto_engine.search('"makes such as" +auto +car'))
    timings["phrase_search_ms"] = search_ms
    assert results

    hits_ms, hits = median_ms(lambda: auto_engine.num_hits('"honda"'))
    timings["num_hits_ms"] = hits_ms
    assert hits > 0

    prox_ms, _ = median_ms(
        lambda: auto_engine.num_hits_proximity("make", "honda"))
    timings["proximity_hits_ms"] = prox_ms

    query = ExtractionQueryBuilder().build(
        analyze_label("Make"), ("auto", "car"), "car")[0]
    snippet = auto_engine.search(query.query)[0].snippet
    extractor = SnippetExtractor()
    extract_ms, candidates = median_ms(
        lambda: extractor.extract(snippet, query))
    timings["snippet_extraction_ms"] = extract_ms
    assert candidates

    a, b = airfare_views[0], airfare_views[25]
    sim_ms, _ = median_ms(lambda: attribute_similarity(a, b))
    timings["pairwise_similarity_ms"] = sim_ms

    # Views cache their similarity features, so every round below starts
    # from equal but cold copies: the feature build stays inside the timer.
    def cold_views():
        return [dataclasses.replace(view) for view in airfare_views]

    features_ms, _ = median_ms(
        lambda: [view.features for view in cold_views()])
    timings["view_features_ms"] = features_ms

    matcher = IceQMatcher()
    cluster_ms, cluster_result = median_ms(
        lambda: matcher.match_views(cold_views()), rounds=ROUNDS_SLOW)
    timings["full_clustering_ms"] = cluster_ms
    assert cluster_result.clusters

    dataset = build_domain_dataset("airfare", n_interfaces=5,
                                   seed=BENCH_SEED)
    source = next(iter(dataset.sources.values()))
    attr = source.interface.attributes[0].name
    probe_ms, page = median_ms(lambda: source.submit({attr: "Boston"}))
    timings["probe_roundtrip_ms"] = probe_ms
    assert page.text

    print_table(
        f"Microbench — median of {ROUNDS} ({ROUNDS_SLOW} for slow ops), "
        "perf_counter_ns",
        ("operation", "median ms"),
        [(name, f"{ms:.3f}") for name, ms in sorted(timings.items())],
    )

    # Deterministic work sizes ride along so a wall-clock drift can be
    # told apart from the workload itself changing under the timer.
    work = {
        "corpus_documents": len(auto_docs),
        "search_results": len(results),
        "num_hits": hits,
        "extraction_candidates": len(candidates),
        "clusters": len(cluster_result.clusters),
        "cluster_evaluations": cluster_result.similarity_evaluations,
    }

    metrics = dict(work)
    metrics.update(timings)
    tolerances = {name: TOL_TIGHT for name in work}
    tolerances.update({name: TOL_INFO for name in timings})
    emit_bench(
        "BENCH_MICRO_JSON",
        "microbench",
        workload={
            "seed": BENCH_SEED,
            "rounds": ROUNDS,
            "rounds_slow": ROUNDS_SLOW,
        },
        metrics=metrics,
        tolerances=tolerances,
        default="BENCH_micro.json",
    )
