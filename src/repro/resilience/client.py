"""Retry, circuit breaking, budgets and graceful degradation.

:class:`ResilientClient` is the policy engine between WebIQ's components
and the Web substrates, whose calls its fault profile makes fail:

- **retry with exponential backoff + jitter** (:class:`RetryPolicy`) for
  the recoverable :class:`~repro.util.errors.WebAccessError` family, with
  rate-limit rejections backed off harder than ordinary transients;
- **per-source circuit breakers** (:class:`CircuitBreaker`,
  closed → open → half-open) so a dead Deep-Web source stops consuming the
  probe budget after a few consecutive failures;
- **per-component budgets** (:class:`Budget`) bounding the total round
  trips each of ``surface`` / ``attr_surface`` / ``attr_deep`` may spend;
- **degradation accounting** (:class:`DegradationReport`): every fault,
  retry, backoff second, breaker trip, exhausted budget and skipped
  attribute is recorded, so a run that survived a hostile Web can say
  exactly what it paid and what it gave up.

Backoff delays are *simulated* seconds: the client never sleeps. The
pipeline charges them to the :class:`~repro.util.clock.SimulatedClock`
under ``<component>_retry`` accounts, keeping Figure 8's overhead model
honest about what resilience costs.

:class:`ResilientSearchEngine` and :class:`ResilientDeepWebSource` are the
drop-in proxies components talk to, one per substrate. Each draws the fate
of every attempt from the client's :class:`~repro.resilience.faults.FaultProfile`
inside the retry loop, so injection and retry are one layer over the raw
substrate. When a call is abandoned — retries
exhausted, breaker open, or budget spent — they degrade instead of raising:
empty search results, zero hit counts, or an "unavailable" error page that
the §4 response heuristics classify as a failed probe. The pipeline
therefore never crashes; it yields partial results and reports the damage.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.deepweb.source import ResponsePage
from repro.surfaceweb.engine import DEFAULT_PROXIMITY_WINDOW, SearchResult
from repro.util.errors import (
    BudgetExhaustedError,
    CircuitOpenError,
    RateLimitError,
    WebAccessError,
)
from repro.util.rng import derive_rng

from repro.resilience.context import current_unit
from repro.resilience.faults import (
    FaultKind,
    FaultProfile,
    error_for_fault,
    garble_text,
)

__all__ = [
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

T = TypeVar("T")

#: Component name used when a call happens outside any declared component.
DEFAULT_COMPONENT = "web"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter.

    The delay before retry ``attempt`` (0-based) is
    ``base_delay * multiplier**attempt``, clamped to ``max_delay``, then
    scaled by a jitter factor uniform in ``[1-jitter, 1+jitter]``.
    Rate-limit rejections multiply the delay by ``rate_limit_factor``
    first — hammering a throttling endpoint only digs the hole deeper.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    rate_limit_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    def delay(self, attempt: int, rng, rate_limited: bool = False) -> float:
        seconds = self.base_delay * (self.multiplier ** attempt)
        if rate_limited:
            seconds *= self.rate_limit_factor
        seconds = min(seconds, self.max_delay)
        if self.jitter:
            seconds *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return seconds


@dataclass(frozen=True)
class BreakerPolicy:
    """When a per-source circuit breaker opens and how long it rests.

    Time is counted in *calls*, not seconds: after ``failure_threshold``
    consecutive failures the breaker opens and fast-fails the next
    ``cooldown_rejections`` calls, then half-opens to let one trial probe
    through. Call-counted cooldowns keep the state machine deterministic
    without tying it to any clock.
    """

    failure_threshold: int = 3
    cooldown_rejections: int = 5

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_rejections < 0:
            raise ValueError("cooldown_rejections must be non-negative")


class CircuitBreaker:
    """The classic closed → open → half-open state machine, call-counted."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy = BreakerPolicy()) -> None:
        self.policy = policy
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.times_opened = 0
        self.rejections = 0
        self._cooldown_left = 0

    def allow(self) -> bool:
        """May the next call proceed? (Open breakers count down cooldown.)"""
        if self.state == self.OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self.rejections += 1
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> bool:
        """Note a failure; returns True when this one tripped the breaker."""
        self.consecutive_failures += 1
        trip = (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.policy.failure_threshold
        )
        if trip:
            self.state = self.OPEN
            self.times_opened += 1
            self.consecutive_failures = 0
            self._cooldown_left = self.policy.cooldown_rejections
        return trip

    # --------------------------------------------------- checkpoint support
    def state_payload(self) -> Dict[str, object]:
        """The full state-machine position, JSON-ready (for the journal)."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "times_opened": self.times_opened,
            "rejections": self.rejections,
            "cooldown_left": self._cooldown_left,
        }

    def restore_state(self, payload: Mapping[str, object]) -> None:
        """Inverse of :meth:`state_payload` (policy comes from config)."""
        self.state = payload["state"]
        self.consecutive_failures = payload["consecutive_failures"]
        self.times_opened = payload["times_opened"]
        self.rejections = payload["rejections"]
        self._cooldown_left = payload["cooldown_left"]


@dataclass
class Budget:
    """A bounded pool of remote round trips for one component."""

    limit: Optional[int] = None
    spent: int = 0

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit

    def charge(self, count: int = 1) -> None:
        self.spent += count


@dataclass
class DegradationReport:
    """What a run paid to survive faults, and what it gave up.

    Attached to :class:`~repro.core.pipeline.WebIQRunResult` when a
    resilience configuration is active; ``degraded`` distinguishes "some
    calls needed retries but everything completed" from "results are
    partial" (give-ups, tripped breakers, exhausted budgets, skipped
    attributes).
    """

    #: fault kind value -> injections (e.g. ``{"timeout": 12}``); counted
    #: by the proxies as each attempt's fate is drawn, so silent
    #: ``garbled`` faults count
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: component -> raised faults observed while it was active
    faults_by_component: Dict[str, int] = field(default_factory=dict)
    #: component -> retries issued (a call retried twice counts two)
    retries_by_component: Dict[str, int] = field(default_factory=dict)
    #: component -> simulated seconds spent waiting in backoff
    backoff_seconds_by_component: Dict[str, float] = field(default_factory=dict)
    #: component -> calls abandoned after the last retry failed
    giveups_by_component: Dict[str, int] = field(default_factory=dict)
    #: source id -> times its breaker tripped open
    breaker_trips: Dict[str, int] = field(default_factory=dict)
    #: source id -> calls fast-failed while its breaker was open
    breaker_rejections: Dict[str, int] = field(default_factory=dict)
    #: components whose budget ran dry, in the order it happened
    budgets_exhausted: List[str] = field(default_factory=list)
    #: (interface_id, attribute) pairs skipped once a budget was gone
    attributes_skipped: List[Tuple[str, str]] = field(default_factory=list)
    #: component -> budgeted round trips charged (tracked even when the
    #: budget is unbounded, so observability invariants can reconcile it
    #: against the stopwatch's per-account query counts)
    budget_spent_by_component: Dict[str, int] = field(default_factory=dict)
    #: units the supervisor quarantined after repeated crashes, with full
    #: provenance (:class:`repro.supervisor.QuarantinedUnit`). Mirrored
    #: here by :class:`repro.supervisor.RunSupervisor` *after* the run
    #: completes; deliberately in-memory only — the JSON export keeps its
    #: quarantine provenance in the ``supervisor`` section so the
    #: ``degradation`` section stays byte-identical to an unsupervised
    #: reference run.
    quarantined_units: List[Any] = field(default_factory=list)

    # ------------------------------------------------------------ queries
    @property
    def total_faults(self) -> int:
        return sum(self.faults_by_kind.values())

    @property
    def total_retries(self) -> int:
        return sum(self.retries_by_component.values())

    @property
    def total_backoff_seconds(self) -> float:
        return sum(self.backoff_seconds_by_component.values())

    @property
    def degraded(self) -> bool:
        """Did the run give anything up (as opposed to merely retrying)?"""
        return bool(
            self.giveups_by_component
            or self.breaker_trips
            or self.budgets_exhausted
            or self.attributes_skipped
        )

    @property
    def empty(self) -> bool:
        return (
            self.total_faults == 0
            and self.total_retries == 0
            and not self.faults_by_component
            and not self.degraded
        )

    def summary(self) -> str:
        """Human-readable multi-line account, for the CLI."""
        lines = ["degradation report:"]
        kinds = ", ".join(
            f"{kind} {count}"
            for kind, count in sorted(self.faults_by_kind.items())
        )
        lines.append(
            f"  faults seen: {self.total_faults}"
            + (f" ({kinds})" if kinds else "")
        )
        for component in sorted(self.retries_by_component):
            lines.append(
                f"  retries[{component}]: "
                f"{self.retries_by_component[component]} "
                f"(backoff "
                f"{self.backoff_seconds_by_component.get(component, 0.0):.1f}s)"
            )
        for component in sorted(self.giveups_by_component):
            lines.append(
                f"  gave up[{component}]: {self.giveups_by_component[component]}"
            )
        for source_id in sorted(self.breaker_trips):
            lines.append(
                f"  breaker[{source_id}]: "
                f"{self.breaker_trips[source_id]} trips, "
                f"{self.breaker_rejections.get(source_id, 0)} fast-fails"
            )
        if self.budgets_exhausted:
            lines.append(
                "  budgets exhausted: " + ", ".join(self.budgets_exhausted)
            )
        if self.attributes_skipped:
            lines.append(
                f"  attributes skipped: {len(self.attributes_skipped)}"
            )
        for unit in self.quarantined_units:
            lines.append(
                f"  quarantined[{'/'.join(unit.unit)}]: "
                f"{unit.crashes} crashes "
                f"(restarts {list(unit.restart_indices)})"
            )
        if self.empty:
            lines.append("  (no faults observed)")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the resilience layer needs for one pipeline run."""

    profile: FaultProfile = field(default_factory=FaultProfile)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: per-component round-trip budgets; ``None`` means unbounded
    surface_query_budget: Optional[int] = None
    attr_surface_query_budget: Optional[int] = None
    attr_deep_probe_budget: Optional[int] = None

    def budgets(self) -> Dict[str, Budget]:
        return {
            "surface": Budget(self.surface_query_budget),
            "attr_surface": Budget(self.attr_surface_query_budget),
            "attr_deep": Budget(self.attr_deep_probe_budget),
        }


class ResilientClient:
    """Shared retry/breaker/budget engine for one pipeline run."""

    def __init__(self, config: ResilienceConfig = ResilienceConfig(),
                 obs=None) -> None:
        self.config = config
        self.report = DegradationReport()
        self._budgets = config.budgets()
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: per-unit jitter streams, derived lazily from the unit key so a
        #: unit's draws are identical however the run is scheduled/resumed;
        #: calls outside any unit scope (direct client use) share the
        #: stream keyed ``()``
        self._unit_rngs: Dict[Tuple[str, ...], Any] = {}
        #: backoff delays computed so far (an accounting counter; per-unit
        #: streams need no fast-forward on resume)
        self.backoff_draws = 0
        #: per-thread mutable call state (the active component).
        #: Thread-local so concurrent callers — e.g. the service's tenants
        #: sharing one client — cannot race each other's ambient state.
        self._local = threading.local()
        #: optional :class:`~repro.obs.Observability` bundle; when attached,
        #: every retry-loop decision is traced (and so counted). Strictly
        #: observational: attaching it changes no behaviour.
        self.obs = obs

    # ------------------------------------------------------------- context
    @contextmanager
    def component(self, name: str) -> Iterator[None]:
        """Attribute calls (budgets, accounting) to component ``name``."""
        previous = getattr(self._local, "component", None)
        self._local.component = name
        try:
            yield
        finally:
            self._local.component = previous

    @property
    def active_component(self) -> str:
        return getattr(self._local, "component", None) or DEFAULT_COMPONENT

    def budget_exhausted(self, component: str) -> bool:
        budget = self._budgets.get(component)
        return budget is not None and budget.exhausted

    def breaker_for(self, source_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(source_id)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker)
            self._breakers[source_id] = breaker
        return breaker

    def skip_attribute(self, interface_id: str, attribute: str) -> None:
        """Record that an attribute was skipped outright (budget gone)."""
        self.report.attributes_skipped.append((interface_id, attribute))

    # --------------------------------------------------- checkpoint support
    def state_payload(self) -> Dict[str, object]:
        """Everything a resumed process must restore to continue this
        client's policy decisions bit-identically: the degradation
        report, per-component budget spend, per-source breaker positions
        and the backoff draw counter. JSON-ready."""
        r = self.report
        return {
            "report": {
                "faults_by_kind": dict(r.faults_by_kind),
                "faults_by_component": dict(r.faults_by_component),
                "retries_by_component": dict(r.retries_by_component),
                "backoff_seconds_by_component": dict(
                    r.backoff_seconds_by_component
                ),
                "giveups_by_component": dict(r.giveups_by_component),
                "breaker_trips": dict(r.breaker_trips),
                "breaker_rejections": dict(r.breaker_rejections),
                "budgets_exhausted": list(r.budgets_exhausted),
                "attributes_skipped": [
                    list(pair) for pair in r.attributes_skipped
                ],
                "budget_spent_by_component": dict(
                    r.budget_spent_by_component
                ),
            },
            "budgets": {
                name: budget.spent
                for name, budget in sorted(self._budgets.items())
            },
            "breakers": {
                source_id: breaker.state_payload()
                for source_id, breaker in sorted(self._breakers.items())
            },
            "backoff_draws": self.backoff_draws,
        }

    def restore_state(self, payload: Mapping[str, object]) -> None:
        """Inverse of :meth:`state_payload`, on a freshly-built client.

        Backoff jitter streams are keyed per unit and start at position 0
        whenever their unit runs, so nothing needs fast-forwarding: fresh
        units after the replayed prefix derive exactly the streams the
        uninterrupted run would have. Only the draw *counter* is restored,
        for accounting.
        """
        if self.backoff_draws:
            raise ValueError(
                "restore_state needs a fresh client "
                f"(already drew {self.backoff_draws} backoffs)"
            )
        snapshot = payload["report"]
        r = self.report
        r.faults_by_kind = dict(snapshot["faults_by_kind"])
        r.faults_by_component = dict(snapshot["faults_by_component"])
        r.retries_by_component = dict(snapshot["retries_by_component"])
        r.backoff_seconds_by_component = dict(
            snapshot["backoff_seconds_by_component"]
        )
        r.giveups_by_component = dict(snapshot["giveups_by_component"])
        r.breaker_trips = dict(snapshot["breaker_trips"])
        r.breaker_rejections = dict(snapshot["breaker_rejections"])
        r.budgets_exhausted = list(snapshot["budgets_exhausted"])
        r.attributes_skipped = [
            tuple(pair) for pair in snapshot["attributes_skipped"]
        ]
        r.budget_spent_by_component = dict(
            snapshot["budget_spent_by_component"]
        )
        for name, spent in payload["budgets"].items():
            if name not in self._budgets:
                self._budgets[name] = Budget()
            self._budgets[name].spent = spent
        for source_id, state in payload["breakers"].items():
            self.breaker_for(source_id).restore_state(state)
        self.backoff_draws = payload["backoff_draws"]

    # ----------------------------------------------------------- the loop
    def call(
        self,
        fn: Callable[[], T],
        source_id: Optional[str] = None,
    ) -> T:
        """Run ``fn`` under retry/breaker/budget policy, once per attempt.

        Raises :class:`CircuitOpenError` when the source's breaker rejects
        the call, :class:`BudgetExhaustedError` when the component's budget
        is spent, or the last :class:`WebAccessError` once retries are
        exhausted. Anything else ``fn`` raises (e.g. a ``KeyError``
        programming error) propagates untouched.
        """
        component = self.active_component
        budget = self._budgets.get(component)
        breaker = self.breaker_for(source_id) if source_id else None

        if breaker is not None and not breaker.allow():
            self._bump(self.report.breaker_rejections, source_id)
            self._observe("breaker_reject", source=source_id,
                          component=component)
            raise CircuitOpenError(f"breaker open for source {source_id}")

        retry = self.config.retry
        for attempt in range(retry.max_attempts):
            if budget is not None and budget.exhausted:
                if component not in self.report.budgets_exhausted:
                    self.report.budgets_exhausted.append(component)
                    self._observe("budget_exhausted", component=component,
                                  limit=budget.limit)
                raise BudgetExhaustedError(
                    f"{component} budget of {budget.limit} round trips spent"
                )
            if budget is not None:
                budget.charge()
                self._bump(self.report.budget_spent_by_component, component)
            try:
                result = fn()
            except WebAccessError as exc:
                self._note_fault(component, exc)
                if breaker is not None and breaker.record_failure():
                    self._bump(self.report.breaker_trips, source_id)
                    self._observe("breaker_trip", source=source_id,
                                  component=component)
                    raise CircuitOpenError(
                        f"breaker tripped for source {source_id}"
                    ) from exc
                if attempt + 1 >= retry.max_attempts:
                    self._bump(self.report.giveups_by_component, component)
                    self._observe("giveup", component=component,
                                  attempts=retry.max_attempts)
                    raise
                self.backoff_draws += 1
                seconds = retry.delay(
                    attempt, self._backoff_rng(),
                    rate_limited=isinstance(exc, RateLimitError),
                )
                self._bump(self.report.retries_by_component, component)
                self.report.backoff_seconds_by_component[component] = (
                    self.report.backoff_seconds_by_component.get(component, 0.0)
                    + seconds
                )
                self._observe("retry", component=component, attempt=attempt,
                              backoff_seconds=seconds)
                continue
            if breaker is not None:
                breaker.record_success()
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    # ---------------------------------------------------------- internals
    def _backoff_rng(self):
        """The jitter stream for this thread's unit (one shared stream
        outside any unit scope). A per-unit stream starts at position 0
        whenever its unit runs, so backoff jitter is a pure function of
        ``(seed, unit, draw index within the unit)`` — independent of
        execution order and resume point."""
        unit = current_unit() or ()
        rng = self._unit_rngs.get(unit)
        if rng is None:
            rng = derive_rng(
                self.config.profile.seed, "resilience", "backoff", *unit
            )
            self._unit_rngs[unit] = rng
        return rng

    def _observe(self, event: str, **attrs) -> None:
        """Trace one retry-loop decision (no-op without obs)."""
        if self.obs is not None:
            self.obs.tracer.event(event, **attrs)

    def _note_fault(self, component: str, exc: WebAccessError) -> None:
        self._bump(self.report.faults_by_component, component)
        self._observe("fault", component=component,
                      kind=type(exc).__name__)

    @staticmethod
    def _bump(counter: Dict[str, int], key: str) -> None:
        counter[key] = counter.get(key, 0) + 1


def _raises(client: ResilientClient, kind: FaultKind) -> bool:
    """Count an injected fault in the report; does it raise? (Every kind
    but ``garbled`` does: a garbled answer comes back truncated instead.)"""
    client._bump(client.report.faults_by_kind, kind.value)
    return kind is not FaultKind.GARBLED


def _no_hits(hits: int) -> int:
    """A truncated hit-count page reads as "no evidence", not garbage."""
    return 0


class ResilientSearchEngine:
    """Search-engine proxy: injects faults, retries them, degrades to emptiness.

    Wraps the raw :class:`~repro.surfaceweb.engine.SearchEngine`. Each
    attempt's fate comes from :meth:`FaultProfile.call_fate`, keyed by the
    call's content and the attempt's index within its retry loop, so a
    retry re-rolls the fate while repeating the call later replays it.
    Calls the client cannot complete come back as the harmless neutral
    element of each query type — no results, zero hits — so Surface and
    Attr-Surface simply see an unhelpful Web rather than an exception.
    """

    def __init__(self, inner, client: ResilientClient) -> None:
        self.inner = inner
        self.client = client
        self.profile = client.config.profile

    @property
    def query_count(self) -> int:
        return self.inner.query_count

    def search(self, query: str, max_results: int = 10) -> List[SearchResult]:
        return self._call(
            "search", lambda: self.inner.search(query, max_results),
            lambda results: [
                SearchResult(r.doc_id, r.url, r.title, garble_text(r.snippet))
                for r in results
            ],
            [], query, max_results,
        )

    def num_hits(self, query: str) -> int:
        return self._call(
            "num_hits", lambda: self.inner.num_hits(query), _no_hits, 0,
            query,
        )

    def num_hits_proximity(
        self,
        phrase_a: str,
        phrase_b: str,
        window: int = DEFAULT_PROXIMITY_WINDOW,
    ) -> int:
        return self._call(
            "num_hits_proximity",
            lambda: self.inner.num_hits_proximity(phrase_a, phrase_b, window),
            _no_hits, 0, phrase_a, phrase_b, window,
        )

    def _call(self, method: str, fetch: Callable[[], T],
              garble: Callable[[T], T], neutral: T, *call_key: object) -> T:
        attempts = itertools.count()

        def attempt() -> T:
            kind = self.profile.call_fate(method, next(attempts), *call_key)
            if kind is not None and _raises(self.client, kind):
                self.inner.query_count += 1  # the failed round trip happened
                raise error_for_fault(kind, f"search engine {method}")
            answer = fetch()
            return answer if kind is None else garble(answer)

        try:
            return self.client.call(attempt)
        except (WebAccessError, CircuitOpenError, BudgetExhaustedError):
            return neutral


#: The page a resilient source serves when a probe is abandoned. Contains
#: explicit failure markers so the §4 heuristics classify it as a failed
#: submission — an unreachable source must never validate a value.
_UNAVAILABLE_TEXT = (
    "Error\n"
    "Service temporarily unavailable. No results could be retrieved.\n"
    "Please try again later."
)


class ResilientDeepWebSource:
    """Deep-Web source proxy: injects faults, retries them behind a
    per-source breaker, degrades to a page.

    Each source draws its fates from its own sequential stream per
    checkpoint unit (see :mod:`repro.resilience.faults`), so probing order
    across sources does not couple their failures. Garbled responses
    return a truncated page — the §4 response heuristics must then make
    sense of half a results page. Abandoned probes return a synthetic
    "service unavailable" page instead of raising, mirroring how a browser
    user experiences a dead source — they still get *a* page, just not a
    useful one.
    """

    def __init__(self, inner, client: ResilientClient) -> None:
        self.inner = inner
        self.client = client
        self.profile = client.config.profile
        #: per-unit sequential fate streams: each starts at position 0
        #: when its unit first probes this source, making fates a pure
        #: function of ``(seed, source, unit, draw index)``. Calls outside
        #: any unit share the stream keyed ``()``.
        self._unit_rngs: Dict[Tuple[str, ...], Any] = {}

    @property
    def interface(self):
        return self.inner.interface

    @property
    def interface_id(self) -> str:
        return self.inner.interface.interface_id

    @property
    def probe_count(self) -> int:
        return self.inner.probe_count

    def submit(self, values: Mapping[str, str]) -> ResponsePage:
        def attempt() -> ResponsePage:
            kind = self.profile.draw(self._fate_rng())
            if kind is not None and _raises(self.client, kind):
                self.inner.probe_count += 1  # the failed submission counts
                raise error_for_fault(
                    kind, f"source {self.interface_id} submit"
                )
            page = self.inner.submit(values)
            if kind is None:
                return page
            return ResponsePage(page.url, garble_text(page.text))

        try:
            return self.client.call(attempt, source_id=self.interface_id)
        except (WebAccessError, CircuitOpenError, BudgetExhaustedError):
            return ResponsePage(
                f"deep://{self.interface_id}/unavailable", _UNAVAILABLE_TEXT
            )

    def _fate_rng(self):
        """This unit's fate stream, derived from its unit key on first
        use: per-unit inside a unit scope, one sequential per-source
        stream outside any."""
        unit = current_unit() or ()
        rng = self._unit_rngs.get(unit)
        if rng is None:
            rng = derive_rng(
                self.profile.seed, "faults", "source", self.interface_id,
                *unit,
            )
            self._unit_rngs[unit] = rng
        return rng
