"""Fault-tolerant Web access: injection, retries, breakers, degradation.

The original WebIQ system faced the real 2006 Web; this package restores
that unreliability to the offline reproduction — deterministically — and
provides the machinery to survive it:

- :mod:`repro.resilience.faults` — :class:`FaultProfile`, which decides
  each attempt's fate: a timeout, 5xx transient, rate limit or truncated
  page, or none;
- :mod:`repro.resilience.client` — :class:`ResilientClient` (retry with
  exponential backoff + jitter, per-component budgets, per-source circuit
  breakers), the drop-in :class:`ResilientSearchEngine` /
  :class:`ResilientDeepWebSource` proxies, one per substrate, that draw
  each attempt's fate and retry it, and the :class:`DegradationReport` a
  run attaches to its result;
- :mod:`repro.resilience.context` — the per-unit scope that keys fault
  and jitter streams by checkpoint unit, making their draws independent
  of execution order.

Enable it per run via ``WebIQConfig(resilience=ResilienceConfig(...))``;
with the default ``FaultProfile()`` (rate 0) the whole layer is an exact
pass-through.
"""

from repro.resilience.client import (
    BreakerPolicy,
    Budget,
    CircuitBreaker,
    DegradationReport,
    ResilienceConfig,
    ResilientClient,
    ResilientDeepWebSource,
    ResilientSearchEngine,
    RetryPolicy,
)
from repro.resilience.faults import (
    FaultKind,
    FaultProfile,
    KillSwitch,
)

__all__ = [
    "FaultKind",
    "FaultProfile",
    "KillSwitch",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "Budget",
    "DegradationReport",
    "ResilienceConfig",
    "ResilientClient",
    "ResilientSearchEngine",
    "ResilientDeepWebSource",
]
