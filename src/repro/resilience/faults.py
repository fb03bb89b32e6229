"""Deterministic fault injection for the simulated Web substrates.

The paper's WebIQ ran against the real 2006 Web: Google round trips that
time out, Deep-Web forms that error, rate-limit, or come back truncated.
The offline reproduction's substrates answer every call instantly and
perfectly, so none of the resilience the original system implicitly needed
is exercised. This module restores that hostility — deterministically.

:class:`FlakySearchEngine` and :class:`FlakyDeepWebSource` wrap the real
substrates and, driven by a :class:`FaultProfile` and
:func:`repro.util.rng.derive_rng`, convert a configurable fraction of calls
into failures:

- ``timeout``   — the call raises :class:`~repro.util.errors.WebTimeoutError`;
- ``transient`` — a 5xx-style :class:`~repro.util.errors.TransientWebError`;
- ``rate_limit``— a 429-style :class:`~repro.util.errors.RateLimitError`;
- ``garbled``   — the call *succeeds* but the payload is truncated
  mid-transfer, exercising the downstream parsing heuristics instead of the
  retry loop.

Every faulted call still increments the wrapped substrate's query/probe
counter: the round trip happened and must be charged to Figure 8's overhead
accounts, exactly as a failed Google query still cost the paper 0.1-0.5 s.

**Fault determinism.** For the search engine, a call's fate is a pure
function of ``(profile seed, scope, method, arguments, retry attempt)``:
whether a given query faults depends only on the query itself and on how
many times it has been retried within one resilient call — never on what
other queries were issued before it. Re-issuing a query replays the same
fate sequence. This keeps fault behaviour stable under call reordering and
composes with the :mod:`repro.perf` cache: answering a repeated query from
the cache cannot shift the fate of the queries that still reach the
engine, so cached and uncached runs see the same Web. Deep-Web sources
keep sequential streams (probes are stateful submissions), partitioned
per ``(source, checkpoint unit)``: inside a unit scope (see
:mod:`repro.resilience.context`) the stream is derived from the unit key
and starts at position 0, so a unit's fates are independent of which
units ran before it and of where a resumed run picks up — no
fast-forwarding needed. Outside any unit (direct use in tests) the
legacy per-source sequential stream applies unchanged. With
``fault_rate=0.0`` the wrappers are exact pass-throughs: results,
counters and downstream RNG streams are bit-identical to the unwrapped
substrates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.deepweb.source import DeepWebSource, ResponsePage
from repro.surfaceweb.engine import (
    DEFAULT_PROXIMITY_WINDOW,
    SearchEngine,
    SearchResult,
)
from repro.util.errors import (
    PreemptionError,
    RateLimitError,
    TransientWebError,
    WebAccessError,
    WebTimeoutError,
)
from repro.util.rng import derive_rng

from repro.resilience.context import UnitKey, current_unit

__all__ = [
    "FaultKind",
    "FaultProfile",
    "FlakySearchEngine",
    "FlakyDeepWebSource",
    "KillSwitch",
    "PreemptionPoint",
    "error_for_fault",
    "garble_text",
]


class FaultKind(enum.Enum):
    """Failure modes a flaky substrate can inject."""

    TIMEOUT = "timeout"
    TRANSIENT = "transient"
    RATE_LIMIT = "rate_limit"
    GARBLED = "garbled"


#: Fixed draw order — iteration over the enum is insertion-ordered, but an
#: explicit tuple makes the weighted-pick order an API guarantee.
_KIND_ORDER = (
    FaultKind.TIMEOUT,
    FaultKind.TRANSIENT,
    FaultKind.RATE_LIMIT,
    FaultKind.GARBLED,
)


@dataclass(frozen=True)
class FaultProfile:
    """How often and in which ways simulated Web access fails.

    ``fault_rate`` is the probability that any single call faults; the
    ``*_weight`` fields set the relative likelihood of each
    :class:`FaultKind` among faulted calls. ``seed`` roots the per-wrapper
    fault streams (independent of the dataset seed, so enabling faults
    never perturbs corpus or interface generation).
    """

    fault_rate: float = 0.0
    timeout_weight: float = 1.0
    transient_weight: float = 1.0
    rate_limit_weight: float = 1.0
    garbled_weight: float = 1.0
    seed: int = 0
    #: deterministic process death: abort the run right after journal
    #: boundary N (requires checkpointing; see :class:`KillSwitch`).
    #: ``None`` (default) never preempts. Like fault fates, the kill point
    #: is part of the *injected hostility*, not of the run's identity —
    #: a resumed run deliberately drops it.
    preempt_at: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        weights = self._weights()
        if any(w < 0 for w in weights):
            raise ValueError("fault weights must be non-negative")
        if self.fault_rate > 0 and not sum(weights):
            raise ValueError("a positive fault_rate needs a positive weight")
        if self.preempt_at is not None and self.preempt_at < 0:
            raise ValueError("preempt_at must be non-negative")

    def kill_switch(self) -> Optional["KillSwitch"]:
        """The profile's :class:`KillSwitch`, or ``None`` if it never kills."""
        if self.preempt_at is None:
            return None
        return KillSwitch(self.preempt_at)

    def _weights(self) -> List[float]:
        return [
            self.timeout_weight,
            self.transient_weight,
            self.rate_limit_weight,
            self.garbled_weight,
        ]

    def draw(self, rng) -> Optional[FaultKind]:
        """Decide the fate of one call: ``None`` (healthy) or a fault kind."""
        if self.fault_rate <= 0.0:
            return None
        if rng.random() >= self.fault_rate:
            return None
        weights = self._weights()
        pick = rng.random() * sum(weights)
        cumulative = 0.0
        for kind, weight in zip(_KIND_ORDER, weights):
            cumulative += weight
            if pick < cumulative:
                return kind
        return _KIND_ORDER[-1]  # guard against float round-off


class KillSwitch:
    """Deterministic preemption at a chosen journal boundary.

    The checkpoint layer calls :meth:`check` with each journal record's
    index immediately *after* the record is durably on disk; when the
    index matches ``kill_at`` the switch raises
    :class:`~repro.util.errors.PreemptionError`, simulating the process
    dying at exactly that boundary — the worst-case crash the journal's
    write-ahead discipline is designed to survive. Use
    :meth:`sweep_point` to pick a boundary pseudo-randomly from a seed,
    the same derived-stream style as fault fates.
    """

    def __init__(self, kill_at: int) -> None:
        if kill_at < 0:
            raise ValueError("kill_at must be non-negative")
        self.kill_at = kill_at
        #: True once the switch has fired (a fired switch stays quiet, so
        #: a resumed run re-armed by mistake cannot kill itself twice at
        #: a boundary that no longer exists).
        self.fired = False

    @staticmethod
    def sweep_point(seed: int, n_boundaries: int) -> int:
        """A seeded kill point in ``[0, n_boundaries)`` for sweep tests."""
        if n_boundaries < 1:
            raise ValueError("n_boundaries must be at least 1")
        return derive_rng(seed, "preemption").randrange(n_boundaries)

    def check(self, boundary: int) -> None:
        """Raise :class:`PreemptionError` when ``boundary`` is the kill point."""
        if self.fired or boundary != self.kill_at:
            return
        self.fired = True
        raise PreemptionError(
            f"run preempted at journal boundary {boundary}"
        )


#: The ISSUE-facing alias: a *preemption point* is the arming side of the
#: same mechanism (where may the run die?), the kill switch the firing side.
PreemptionPoint = KillSwitch


def error_for_fault(kind: FaultKind, where: str) -> WebAccessError:
    """The exception a raising fault kind surfaces as."""
    if kind is FaultKind.TIMEOUT:
        return WebTimeoutError(f"{where}: no response within deadline")
    if kind is FaultKind.TRANSIENT:
        return TransientWebError(f"{where}: HTTP 502 bad gateway")
    if kind is FaultKind.RATE_LIMIT:
        return RateLimitError(f"{where}: HTTP 429 rate limit exceeded")
    raise ValueError(f"{kind} does not raise")  # pragma: no cover


def garble_text(text: str) -> str:
    """Simulate a connection dropped mid-transfer: keep a prefix only."""
    return text[: len(text) // 2]


class FlakySearchEngine:
    """A :class:`SearchEngine` whose round trips fail per a fault profile.

    Drop-in replacement: exposes the engine's full query API plus the
    ``query_count`` bookkeeping the pipeline reads. Faulted calls raise a
    :class:`~repro.util.errors.WebAccessError` subclass (or, for
    ``garbled``, succeed with truncated snippets / a zero hit count).

    Fates are keyed by call content and retry attempt (see module docs):
    ``attempt_provider``, when given, supplies the 0-based attempt index of
    the current resilient call (wire it to
    :attr:`~repro.resilience.client.ResilientClient.current_attempt`) so
    that retrying a faulted query re-rolls its fate while re-*issuing* the
    query later replays it. ``garbled_count`` counts silently-corrupted
    answers; cache layers read it to refuse to memoise them.
    """

    def __init__(
        self,
        inner: SearchEngine,
        profile: FaultProfile,
        scope: str = "engine",
        on_fault: Optional[Callable[[FaultKind], None]] = None,
        attempt_provider: Optional[Callable[[], int]] = None,
    ) -> None:
        self.inner = inner
        self.profile = profile
        self.on_fault = on_fault
        self.garbled_count = 0
        self._scope = scope
        self._attempt_provider = attempt_provider

    # ------------------------------------------------------- engine facade
    @property
    def query_count(self) -> int:
        return self.inner.query_count

    def reset_query_count(self) -> None:
        self.inner.reset_query_count()

    @property
    def n_documents(self) -> int:
        return self.inner.n_documents

    def search(self, query: str, max_results: int = 10) -> List[SearchResult]:
        kind = self._charge_fault("search", query, max_results)
        results = self.inner.search(query, max_results)
        if kind is FaultKind.GARBLED:
            return [
                SearchResult(r.doc_id, r.url, r.title, garble_text(r.snippet))
                for r in results
            ]
        return results

    def num_hits(self, query: str) -> int:
        kind = self._charge_fault("num_hits", query)
        hits = self.inner.num_hits(query)
        # A truncated hit-count page reads as "no evidence", not garbage.
        return 0 if kind is FaultKind.GARBLED else hits

    def num_hits_proximity(
        self,
        phrase_a: str,
        phrase_b: str,
        window: int = DEFAULT_PROXIMITY_WINDOW,
    ) -> int:
        kind = self._charge_fault("num_hits_proximity", phrase_a, phrase_b,
                                  window)
        hits = self.inner.num_hits_proximity(phrase_a, phrase_b, window)
        return 0 if kind is FaultKind.GARBLED else hits

    # ---------------------------------------------------------- internals
    def _attempt(self) -> int:
        return self._attempt_provider() if self._attempt_provider else 0

    def _charge_fault(self, where: str, *call_key: object) -> Optional[FaultKind]:
        """Draw this call's fate; raising kinds charge the trip, then raise.

        The fate RNG is derived fresh per call from the full call identity
        plus the retry attempt, making it independent of call history.
        """
        rng = derive_rng(
            self.profile.seed, "faults", self._scope, where,
            self._attempt(), *call_key,
        )
        kind = self.profile.draw(rng)
        if kind is not None and self.on_fault is not None:
            self.on_fault(kind)
        if kind is None:
            return kind
        if kind is FaultKind.GARBLED:
            self.garbled_count += 1
            return kind
        self.inner.query_count += 1  # the failed round trip still happened
        raise error_for_fault(kind, f"search engine {where}")


class FlakyDeepWebSource:
    """A :class:`DeepWebSource` whose form submissions fail per a profile.

    Each source gets an independent fault stream derived from its
    interface id, so probing order across sources does not couple their
    failures. Garbled responses return a truncated page — the §4 response
    heuristics must then make sense of half a results page, exactly the
    "analyse what came back" burden real crawlers carry.
    """

    def __init__(
        self,
        inner: DeepWebSource,
        profile: FaultProfile,
        on_fault: Optional[Callable[[FaultKind], None]] = None,
    ) -> None:
        self.inner = inner
        self.profile = profile
        self.on_fault = on_fault
        self.garbled_count = 0
        #: legacy sequential stream, used only outside any unit scope
        self._rng = derive_rng(
            profile.seed, "faults", "source", inner.interface.interface_id
        )
        #: per-unit sequential streams (see module docs): each starts at
        #: position 0 when its unit first probes this source, making fates
        #: a pure function of ``(seed, source, unit, draw index)``.
        self._unit_rngs: Dict[UnitKey, object] = {}
        #: total fate draws consumed, across all streams. Not the same as
        #: ``probe_count`` (a submission rejected for an unknown attribute
        #: name draws a fate but counts no probe); journaled as a counter
        #: for accounting — per-unit streams need no fast-forward.
        self.draws = 0

    # ------------------------------------------------------- source facade
    @property
    def interface(self):
        return self.inner.interface

    @property
    def interface_id(self) -> str:
        return self.inner.interface.interface_id

    @property
    def records(self) -> Sequence[Mapping[str, str]]:
        return self.inner.records

    @property
    def required_attributes(self):
        return self.inner.required_attributes

    @property
    def probe_count(self) -> int:
        return self.inner.probe_count

    @probe_count.setter
    def probe_count(self, value: int) -> None:
        self.inner.probe_count = value

    def recognizes(self, attribute_name: str, value: str) -> bool:
        return self.inner.recognizes(attribute_name, value)

    def fast_forward(self, draws: int) -> None:
        """Advance a fresh *legacy* stream past ``draws`` historical fates.

        Only meaningful for standalone (outside-unit-scope) use, where the
        sequential per-source stream still applies: each historical fate
        is re-drawn and discarded. Pipeline runs draw from per-unit
        streams that need no re-positioning, so resume no longer calls
        this.
        """
        if self.draws:
            raise ValueError(
                "fast_forward needs a fresh fault stream "
                f"(already drew {self.draws})"
            )
        for _ in range(draws):
            self.profile.draw(self._rng)
        self.draws = draws

    def _fate_rng(self):
        """This thread's fate stream: per-unit inside a unit scope (derived
        fresh from the unit key on first use), the legacy sequential
        per-source stream otherwise."""
        unit = current_unit()
        if unit is None:
            return self._rng
        rng = self._unit_rngs.get(unit)
        if rng is None:
            rng = derive_rng(
                self.profile.seed, "faults", "source",
                self.inner.interface.interface_id, *unit,
            )
            self._unit_rngs[unit] = rng
        return rng

    def submit(self, values: Mapping[str, str]) -> ResponsePage:
        self.draws += 1
        kind = self.profile.draw(self._fate_rng())
        if kind is not None and self.on_fault is not None:
            self.on_fault(kind)
        if kind is not None and kind is not FaultKind.GARBLED:
            self.inner.probe_count += 1  # the failed submission still counts
            raise error_for_fault(
                kind, f"source {self.interface_id} submit"
            )
        page = self.inner.submit(values)
        if kind is FaultKind.GARBLED:
            self.garbled_count += 1
            return ResponsePage(page.url, garble_text(page.text))
        return page
