"""Exception hierarchy for the WebIQ reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without masking programming errors such as
``TypeError``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class QuerySyntaxError(ReproError):
    """A search-engine query string could not be parsed.

    Raised by :class:`repro.surfaceweb.query.QueryParser` for malformed input
    such as unbalanced double quotes or an empty query.
    """


class UnknownDomainError(ReproError):
    """A dataset domain name is not one of the five ICQ domains."""


class ValidationError(ReproError):
    """Invalid argument or state detected inside a WebIQ component.

    Used for contract violations that are recoverable by the caller, e.g.
    asking a classifier to predict before it has been trained.
    """


class WebAccessError(ReproError):
    """A remote Web access (search query or form submission) failed.

    Base class of the fault family injected by :mod:`repro.resilience`;
    every subclass represents a failure mode that a retry may cure, which
    is why :class:`repro.resilience.ResilientClient` catches exactly this
    type in its retry loop.
    """


class TransientWebError(WebAccessError):
    """A transient server-side failure (the 5xx family: bad gateway, ...)."""


class RateLimitError(WebAccessError):
    """The remote endpoint rejected the request for quota reasons (429)."""


class WebTimeoutError(WebAccessError):
    """The remote endpoint did not answer within the deadline."""


class CircuitOpenError(ReproError):
    """A call was rejected locally because the target's circuit breaker is
    open — the source has failed repeatedly and is being rested instead of
    consuming more of the probe budget."""


class BudgetExhaustedError(ReproError):
    """A component's query/probe budget is spent; the call was not sent."""


class PreemptionError(ReproError):
    """The run was deterministically preempted at a journal boundary.

    Raised by :class:`repro.resilience.faults.KillSwitch` immediately
    *after* a journal record reached disk, simulating process death at
    that exact point. Deliberately **not** a :class:`WebAccessError`:
    preemption must never enter the retry loop — a killed process does
    not get retried, it gets resumed.
    """


class DeadlineExceededError(PreemptionError):
    """A supervised unit (or the whole run) overran its wall-clock budget.

    Charged against :class:`repro.util.clock.SimulatedClock` rates, raised
    only *after* the offending unit's journal record is durable — so a
    deadline kill, like any preemption, is resume-eligible and loses no
    paid-for work. Subclasses :class:`PreemptionError` deliberately: the
    supervisor treats both identically (journal durable, restart, resume).
    """

    def __init__(self, message: str, *, scope: str = "unit",
                 seconds: float = 0.0, deadline: float = 0.0) -> None:
        super().__init__(message)
        #: ``"unit"`` or ``"run"`` — which budget was overrun
        self.scope = scope
        #: simulated seconds actually spent when the deadline fired
        self.seconds = seconds
        #: the configured budget, in simulated seconds
        self.deadline = deadline


class InjectedCrashError(ReproError):
    """A deterministic crash injected into a unit by a test/chaos schedule.

    Raised by :class:`repro.supervisor.UnitFaultInjector` inside the unit
    bracket. Deliberately **not** a :class:`WebAccessError` — it models an
    arbitrary in-process fault (segfault stand-in), not a remote failure,
    so the resilience retry loop must never see it.
    """


class SupervisionExhaustedError(ReproError):
    """The supervisor spent its restart budget without completing the run.

    Carries the final attempt's failure as ``__cause__`` so callers see
    the real reason the run kept dying.
    """


class ExportCorruptionError(ReproError):
    """A persisted run export could not be parsed (truncated or bit-rotten).

    Wraps the raw ``json.JSONDecodeError`` from :func:`repro.io.load_run_result`
    into a typed error naming the file path and byte offset of the damage.
    """

    def __init__(self, message: str, *, path: str, offset: int) -> None:
        super().__init__(message)
        #: filesystem path of the corrupt export
        self.path = path
        #: byte offset at which decoding failed
        self.offset = offset


class JournalError(ReproError):
    """Base class for run-journal failures (:mod:`repro.checkpoint`)."""


class JournalCorruptionError(JournalError):
    """A journal record is torn, CRC-mismatched, out of sequence or
    duplicated. The message names the offending record index; resuming
    from such a journal is refused rather than risking silent divergence."""


class JournalFormatError(JournalError):
    """A journal record carries a schema version newer than this reader."""


class JournalMismatchError(JournalError):
    """The journal on disk belongs to a different run configuration, or
    its replay diverged from the unit sequence the resumed run produces."""


class ResumeError(JournalError):
    """Resume was requested in a configuration that cannot honour the
    byte-identical replay guarantee (e.g. with observability attached)."""


class ServiceError(ReproError):
    """Base class for matching-service failures (:mod:`repro.service`)."""


class AdmissionRejected(ServiceError):
    """The service declined to queue a request, with a typed reason.

    ``reason`` is one of ``"queue_full"`` (the bounded request queue is at
    capacity — overload shedding), ``"tenant_over_quota"`` (the tenant's
    cumulative spend already exceeds a :class:`repro.service.TenantQuota`
    limit) or ``"deadline_infeasible"`` (the requested deadline cannot fit
    even one round trip, so admitting it would only waste queue slots).
    Rejection happens *before* any warm state is touched: a rejected
    request costs the service nothing but this exception.
    """

    def __init__(self, message: str, *, reason: str, tenant: str) -> None:
        super().__init__(message)
        #: ``"queue_full"`` / ``"tenant_over_quota"`` / ``"deadline_infeasible"``
        self.reason = reason
        #: the tenant whose request was rejected
        self.tenant = tenant


class StaleEpochError(ServiceError):
    """An epoch publication lost the race: its parent is no longer the
    current epoch. Under the service's serial commit discipline this can
    only mean a bug (two executors over one :class:`WarmState`), so the
    publication is refused rather than silently dropping the other
    writer's epoch — the epoch-publication invariant law audits that the
    published chain has no such gaps."""


class RegistryError(ReproError):
    """Base class for attribute-registry failures (:mod:`repro.registry`)."""


class RegistryCorruptionError(RegistryError):
    """The registry store is torn, CRC-mismatched, or internally
    inconsistent (duplicate interface or attribute, a similarity cache
    pair that is unknown, non-canonical or repeated, ...). The message
    names the damaged entry; loading such a store is refused rather than
    risking silent drift between the registry and the batch oracle."""


class RegistryFormatError(RegistryError):
    """The registry store carries a schema version newer than this reader."""


class RegistryMismatchError(RegistryError):
    """The registry on disk does not fit the requested operation: missing
    store, wrong domain, different similarity/threshold/linkage
    configuration, or an interface assimilated twice."""


class RegistryLockedError(RegistryError):
    """A second writer tried to open a registry directory for writing.

    Registry writes are guarded by a sentinel lock file
    (``registry.lock``); a writer finding one refuses instead of racing
    the holder into a torn store. Carries the directory and whatever
    holder identity the lock file records (``"unknown"`` when the lock
    file itself is unreadable — a torn lock still counts as held, because
    the safe reading of damage is "someone is mid-write").
    """

    def __init__(self, message: str, *, directory: str,
                 owner: str = "unknown") -> None:
        super().__init__(message)
        #: the registry directory that is locked
        self.directory = directory
        #: holder identity recorded in the lock file (best effort)
        self.owner = owner
