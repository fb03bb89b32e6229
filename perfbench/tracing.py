"""Benchmark-side tracing: spans and counters around the program's layers.

Nothing here changes the program. :func:`instrumented` swaps a handful of
public entry points (and the module globals that call sites resolve at
call time) for thin wrappers, and restores the originals on exit. A
wrapper records only while the benchmark holds an ``op`` span open, so
set-up and correctness checks never leak into the per-layer numbers.

Spans are kept in memory as ``[name, start, end, parent]`` rows and
written out once, at the end of the traced run. A layer's self time is
its spans' duration minus the time covered by their direct children; its
busy time is the duration of its outermost spans (a layer nested inside
itself is counted once).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "instrumented", "layer_metrics"]


class Tracer:
    """In-memory span list plus named counters for one traced pass."""

    def __init__(self) -> None:
        #: rows of ``[name, start, end, parent index or -1]``
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def innermost(self) -> Optional[str]:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def write(self, path: str) -> None:
        """Write the spans (start/end relative to the first span) and the
        counters as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": [
                    [name, round(start - origin, 9), round(end - origin, 9),
                     parent]
                    for name, start, end, parent in self.spans
                ],
                "counts": dict(sorted(self.counts.items())),
            }, handle)


# ---------------------------------------------------------------- wrappers
def _spanned(tracer: Tracer, name: str,
             on_result: Optional[Callable] = None) -> Callable:
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer.counts, result, args)
            return result
        return wrapper
    return wrap


def _counted(tracer: Tracer, key: str) -> Callable:
    def wrap(fn: Callable) -> Callable:
        counts = tracer.counts
        stack = tracer.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    return wrap


def _bytes_written(tracer: Tracer) -> Callable:
    """Wrap ``atomic_write_json``: file bytes land on the enclosing layer."""
    owners = {"checkpoint.append": "checkpoint.bytes_written",
              "registry.save": "registry.bytes_written"}

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            key = owners.get(tracer.innermost())
            if key is not None:
                tracer.counts[key] += os.path.getsize(path)
            return result
        return wrapper
    return wrap


# ------------------------------------------------------- result observers
def _on_acquired(counts: Counter, report, args) -> None:
    for record in report.records:
        if record.surface_attempted:
            counts["core.surface.attempted"] += 1
            counts["core.surface.reached_k"] += record.surface_success(report.k)


def _on_deep_validated(counts: Counter, result, args) -> None:
    if result.sampled:
        counts["core.attr_deep.validations"] += 1
        counts["core.attr_deep.accepted_sets"] += bool(result.accepted)


def _on_surface_validated(counts: Counter, accepted, args) -> None:
    counts["core.attr_surface.candidates"] += len(args[2])
    counts["core.attr_surface.accepted"] += len(accepted)


def _on_agglomerated(counts: Counter, result, args) -> None:
    counts["matching.merges"] += len(result[1])


def _on_preload_applied(counts: Counter, result, args) -> None:
    counts["perf.preload_entries"] += args[0].n_entries


def _on_assimilated(counts: Counter, record, args) -> None:
    counts["registry.pairs_evaluated"] += record.evaluated
    counts["registry.pairs_blocked"] += record.blocked


def _patches(tracer: Tracer):
    """``(owner, attribute, wrap)`` for every traced entry point."""
    from repro.checkpoint import journal
    from repro.core import acquisition, attr_deep, attr_surface, surface
    from repro.deepweb.source import DeepWebSource
    from repro.matching import clustering, similarity
    from repro.perf.cache import CachePreload
    from repro.registry import assimilate, blocking, store
    from repro.service import server, state
    from repro.surfaceweb.engine import SearchEngine

    span = functools.partial(_spanned, tracer)
    count = functools.partial(_counted, tracer)
    return [
        (acquisition.InstanceAcquirer, "acquire",
         span("core.acquisition", _on_acquired)),
        (acquisition, "values_similar", count("core.acquisition.value_comparisons")),
        (surface.SurfaceDiscoverer, "discover", span("core.surface")),
        (attr_deep.AttrDeepValidator, "validate",
         span("core.attr_deep", _on_deep_validated)),
        (attr_surface.AttrSurfaceValidator, "build_classifier",
         span("core.attr_surface")),
        (attr_surface.AttrSurfaceValidator, "validate",
         span("core.attr_surface", _on_surface_validated)),
        (SearchEngine, "search", span("surfaceweb")),
        (SearchEngine, "num_hits", span("surfaceweb")),
        (SearchEngine, "num_hits_proximity", span("surfaceweb")),
        (DeepWebSource, "submit", span("deepweb")),
        (clustering, "similarity_components", span("matching.similarity")),
        (assimilate, "similarity_components", span("matching.similarity")),
        (similarity, "infer_type", count("matching.type_inferences")),
        (blocking, "infer_type", count("matching.type_inferences")),
        (clustering, "agglomerate",
         span("matching.agglomerate", _on_agglomerated)),
        (assimilate, "agglomerate",
         span("matching.agglomerate", _on_agglomerated)),
        (server, "build_domain_dataset", span("datasets.build")),
        (CachePreload, "capture", span("perf.preload")),
        (CachePreload, "apply", span("perf.preload", _on_preload_applied)),
        (journal.RunJournal, "append", span("checkpoint.append")),
        (journal, "atomic_write_json", _bytes_written(tracer)),
        (server, "run_result_to_dict", span("io.export")),
        (state.WarmState, "publish", span("service.publish")),
        (assimilate.RegistryAssimilator, "assimilate",
         span("registry.assimilate", _on_assimilated)),
        (store.RegistryStore, "save", span("registry.save")),
        (store, "atomic_write_json", _bytes_written(tracer)),
    ]


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attribute, wrap in _patches(tracer):
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(original.__func__))
            else:
                replacement = wrap(original)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ------------------------------------------------------------ aggregation
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        own[name] += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[name] += duration
    counts = tracer.counts
    evaluated = counts["registry.pairs_evaluated"]
    blocked = counts["registry.pairs_blocked"]
    return {
        "core.acquisition.self_s": own["core.acquisition"],
        "core.acquisition.value_comparisons":
            counts["core.acquisition.value_comparisons"],
        "matching.similarity_s": busy["matching.similarity"],
        "matching.similarity_evals": calls["matching.similarity"],
        "matching.type_inferences": counts["matching.type_inferences"],
        "matching.agglomerate_s": busy["matching.agglomerate"],
        "matching.merges": counts["matching.merges"],
        "core.surface.busy_s": busy["core.surface"],
        "core.surface.calls": calls["core.surface"],
        "core.surface.attempted": counts["core.surface.attempted"],
        "core.surface.success_ratio": _ratio(
            counts["core.surface.reached_k"], counts["core.surface.attempted"]),
        "core.attr_deep.busy_s": busy["core.attr_deep"],
        "core.attr_deep.validations": counts["core.attr_deep.validations"],
        "core.attr_deep.accept_ratio": _ratio(
            counts["core.attr_deep.accepted_sets"],
            counts["core.attr_deep.validations"]),
        "core.attr_surface.busy_s": busy["core.attr_surface"],
        "core.attr_surface.candidates": counts["core.attr_surface.candidates"],
        "core.attr_surface.accept_ratio": _ratio(
            counts["core.attr_surface.accepted"],
            counts["core.attr_surface.candidates"]),
        "surfaceweb.calls": calls["surfaceweb"],
        "surfaceweb.busy_s": busy["surfaceweb"],
        "deepweb.probes": calls["deepweb"],
        "deepweb.busy_s": busy["deepweb"],
        "datasets.builds": calls["datasets.build"],
        "datasets.build_s": busy["datasets.build"],
        "perf.preload_s": busy["perf.preload"],
        "perf.preload_entries": counts["perf.preload_entries"],
        "checkpoint.appends": calls["checkpoint.append"],
        "checkpoint.append_s": busy["checkpoint.append"],
        "checkpoint.bytes_written": counts["checkpoint.bytes_written"],
        "io.export_s": busy["io.export"],
        "service.publish_s": busy["service.publish"],
        "registry.assimilate_s": busy["registry.assimilate"],
        "registry.pairs_evaluated": evaluated,
        "registry.pairs_blocked": blocked,
        "registry.pairs_considered": evaluated + blocked,
        "registry.block_ratio": _ratio(blocked, evaluated + blocked),
        "registry.save_s": busy["registry.save"],
        "registry.bytes_written": counts["registry.bytes_written"],
    }
