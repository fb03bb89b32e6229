"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper over the full
five-domain, 20-interface evaluation set. Pipeline runs are expensive, so a
session-scoped :class:`RunCache` memoises them; each benchmark then times
its own core regeneration step honestly (via ``benchmark.pedantic`` with a
single round) and prints a paper-vs-measured table.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
from typing import Any, Dict, Mapping, Optional, Tuple

import pytest

from repro.bench import make_envelope, write_bench
from repro.core.pipeline import WebIQConfig, WebIQMatcher, WebIQRunResult
from repro.datasets import DOMAINS, DomainDataset, build_domain_dataset

#: the seed every benchmark uses; change to probe robustness
BENCH_SEED = 1

#: named pipeline configurations used across figures
CONFIGS: Dict[str, WebIQConfig] = {
    "baseline": WebIQConfig(enable_surface=False, enable_attr_deep=False,
                            enable_attr_surface=False),
    "surface": WebIQConfig(enable_surface=True, enable_attr_deep=False,
                           enable_attr_surface=False),
    "surface+deep": WebIQConfig(enable_surface=True, enable_attr_deep=True,
                                enable_attr_surface=False),
    "webiq": WebIQConfig(),
    "webiq+threshold": WebIQConfig(threshold=0.1),
}


class RunCache:
    """Memoised pipeline runs keyed by (domain, config name)."""

    def __init__(self) -> None:
        self._datasets: Dict[str, DomainDataset] = {}
        self._runs: Dict[Tuple[str, str], WebIQRunResult] = {}

    def dataset(self, domain: str) -> DomainDataset:
        if domain not in self._datasets:
            self._datasets[domain] = build_domain_dataset(
                domain, n_interfaces=20, seed=BENCH_SEED)
        return self._datasets[domain]

    def run(self, domain: str, config_name: str) -> WebIQRunResult:
        key = (domain, config_name)
        if key not in self._runs:
            matcher = WebIQMatcher(CONFIGS[config_name])
            self._runs[key] = matcher.run(self.dataset(domain))
        return self._runs[key]


@pytest.fixture(scope="session")
def cache() -> RunCache:
    return RunCache()


def emit_bench(
    env_var: str,
    name: str,
    workload: Mapping[str, Any],
    metrics: Mapping[str, Any],
    tolerances: Mapping[str, Mapping[str, Any]],
    *,
    detail: Optional[Mapping[str, Any]] = None,
    profile_digest: Optional[int] = None,
    default: Optional[str] = None,
) -> Optional[str]:
    """Write a versioned bench envelope if ``env_var`` names a path.

    Every sweep benchmark funnels its artifact through here, so each
    ``BENCH_*.json`` carries the same schema (format + CRC + workload
    fingerprint + tolerance bands) and ``repro bench diff`` can gate any
    of them against a committed baseline. Returns the path written, or
    ``None`` when the env var is unset (local runs that only print).
    """
    path = os.environ.get(env_var) or default
    if not path:
        return None
    envelope = make_envelope(
        name, workload, metrics, tolerances,
        detail=detail, profile_digest=profile_digest,
    )
    write_bench(path, envelope)
    print(f"\nwrote {path} (bench={name}, {len(metrics)} gated metrics)")
    return path


#: Tolerance shorthands shared by the sweep benchmarks. Deterministic
#: metrics gate tightly. The bench-gated sweeps record wall-clock as
#: ``info``: a loaded CI runner can easily be several times slower without
#: any code change, and CI's ``bench-ab`` job gates wall time by
#: alternating base/candidate runs instead. ``TOL_WALL`` remains for the
#: ungated resume and supervisor sweeps.
TOL_EXACT = {"rel": 0.0, "direction": "two_sided"}
TOL_TIGHT = {"rel": 0.02, "direction": "two_sided"}
TOL_COUNT = {"rel": 0.02, "direction": "lower_is_better"}
TOL_SCORE = {"rel": 0.02, "direction": "higher_is_better"}
TOL_WALL = {"rel": 10.0, "direction": "lower_is_better"}
TOL_INFO = {"rel": 0.0, "direction": "info"}


def print_table(title: str, header, rows) -> None:
    """Render one reproduction table to stdout (visible with ``-s``)."""
    widths = [max(len(str(header[i])),
                  max((len(str(r[i])) for r in rows), default=0))
              for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
