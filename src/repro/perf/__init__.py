"""repro.perf — hot-path performance layers for the Web substrates.

Currently: the run's memo of Surface questions and its warm-start
snapshot (:mod:`repro.perf.cache`). The layering contract is documented
there; the short version is that the memo is the only cache, sits above
the resilience layer, keeps what the run received (degraded answers
included), and leaves ``query_count``/budget/latency accounting charging
real round trips only.
"""

from repro.perf.cache import (
    CachePreload,
    CacheStats,
    ValidationCache,
    normalize_query,
)

__all__ = [
    "CachePreload",
    "CacheStats",
    "ValidationCache",
    "normalize_query",
]
