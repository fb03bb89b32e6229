"""The complete WebIQ + IceQ pipeline evaluated in paper §6.

:class:`WebIQMatcher` runs instance acquisition (with any subset of the
three WebIQ components enabled) followed by IceQ matching, evaluates
accuracy against the dataset's ground truth, and accounts the overhead of
every component on a :class:`~repro.util.clock.SimulatedClock`:

- search-engine queries (Surface, Attr-Surface) are charged the paper's
  typical Google round-trip ("0.1-0.5 second" — we charge the midpoint);
- Deep-Web probes (Attr-Deep) are charged a form-submission latency;
- matching is charged a nominal per-similarity-evaluation cost calibrated
  to the paper's 2006 hardware, so Figure 8's relative shape is preserved.

When a :class:`~repro.resilience.ResilienceConfig` is attached, the run
executes against fault-injected substrates behind the resilient proxies:
retried round trips flow into the ordinary per-component accounts (they
were real round trips), backoff waits are charged to ``<component>_retry``
accounts, and the resulting :class:`~repro.resilience.DegradationReport`
rides on the run result — Figure 8's overhead then reflects what surviving
a flaky Web actually costs.

Every run memoises its Surface questions in one
:class:`~repro.perf.ValidationCache` sitting *above* the resilient proxy:
memo hits never reach the retry loop, so they consume no query budget,
charge no latency, and leave the stopwatch untouched — only real round
trips bill. The memo's :class:`~repro.perf.CacheStats` and its content
(a :class:`~repro.perf.CachePreload`) ride on the run result, and the
run may be warm-started from an earlier run's content.

When an :class:`~repro.obs.ObsConfig` is attached, the run is traced: a
root ``run`` span with one child span per pipeline phase, one observed
pass-through layer between the memo and the resilient proxy (and one per
Deep-Web source), and metrics counters everywhere the other layers make
a decision. The resulting :class:`~repro.obs.Observability` bundle
rides on the run result, where the
:class:`~repro.obs.InvariantChecker` can audit it against the stopwatch,
degradation and cache accounting. Observation is strictly read-only: with
``obs=None`` (the default) the pipeline is bit-identical to earlier
revisions, and with it enabled only the observability artifacts differ.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.session import (
    CheckpointConfig,
    CheckpointReport,
    CheckpointSession,
    open_session,
)
from repro.core.acquisition import (
    AcquisitionConfig,
    AcquisitionReport,
    InstanceAcquirer,
)
from repro.datasets.dataset import DomainDataset
from repro.matching.clustering import IceQMatcher, MatchResult
from repro.matching.metrics import MatchMetrics, evaluate_matches
from repro.matching.similarity import SimilarityConfig
from repro.registry.assimilate import RegistryReport, build_registry
from repro.registry.store import RegistryStore
from repro.obs.instrument import (
    Observability,
    ObsConfig,
    ObservedDeepWebSource,
    ObservedSearchEngine,
)
from repro.perf.cache import CachePreload, CacheStats, ValidationCache
from repro.resilience.client import (
    DegradationReport,
    ResilienceConfig,
    ResilientClient,
    ResilientDeepWebSource,
    ResilientSearchEngine,
)
from repro.resilience.faults import KillSwitch
from repro.supervisor import SupervisorConfig, SupervisorReport
from repro.util.clock import SimulatedClock, StopwatchReport
from repro.util.counters import collecting as collecting_counters
from repro.util.errors import ResumeError, ValidationError

__all__ = ["WebIQConfig", "WebIQRunResult", "WebIQMatcher"]

#: Simulated seconds per pairwise similarity evaluation, calibrated so that
#: a 20-interface domain's matching lands in Figure 8's minutes range on
#: the paper's 2006-era hardware.
MATCHING_SECONDS_PER_EVALUATION = 0.012


@dataclass(frozen=True)
class WebIQConfig:
    """Configuration of one pipeline run."""

    enable_surface: bool = True
    enable_attr_deep: bool = True
    enable_attr_surface: bool = True
    #: IceQ clustering threshold τ (paper: 0, then 0.1)
    threshold: float = 0.0
    #: inter-cluster linkage: "average" (default), "single" or "complete"
    linkage: str = "average"
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    #: fault injection + retry/breaker/budget policy; ``None`` (default)
    #: runs against the pristine substrates exactly as before
    resilience: Optional[ResilienceConfig] = None
    #: run tracing + metrics; ``None`` (default) observes nothing and
    #: leaves the run bit-identical to an uninstrumented one.
    obs: Optional[ObsConfig] = None
    #: crash-safe checkpointing; ``None`` (default) journals nothing and
    #: leaves the run bit-identical to an unjournaled one. With a
    #: directory attached every completed unit of work is durably
    #: journaled, and ``resume=True`` replays a prior journal without
    #: re-spending a single engine query or source probe on it.
    checkpoint: Optional[CheckpointConfig] = None
    #: supervision hooks — quarantined units, wall-clock deadlines and the
    #: chaos saboteur (see :mod:`repro.supervisor`). Requires a checkpoint
    #: journal: quarantine skips and deadline preemptions are only sound
    #: at journal boundaries. Like ``kill_at``, this is recovery policy,
    #: not run identity — it never enters the journal meta, because the
    #: supervisor legitimately varies it between attempts of one run.
    supervisor: Optional[SupervisorConfig] = None
    #: directory to persist a canonical attribute registry to
    #: (:mod:`repro.registry`). ``None`` (default) builds none. When set,
    #: the run's post-acquisition interfaces are assimilated one at a
    #: time after matching and the registry's induced matching is audited
    #: against the batch clusters by the InvariantChecker. Registry
    #: construction is bookkeeping outside the run proper: it touches no
    #: clock account, no observability span and no export byte, so runs
    #: with and without it are payload-identical (and it never enters
    #: the journal meta).
    registry: Optional[str] = None

    @property
    def webiq_enabled(self) -> bool:
        return (
            self.enable_surface
            or self.enable_attr_deep
            or self.enable_attr_surface
        )


@dataclass
class WebIQRunResult:
    """Everything one run produces: accuracy, acquisition stats, overhead."""

    domain: str
    config: WebIQConfig
    metrics: MatchMetrics
    match_result: MatchResult
    acquisition: Optional[AcquisitionReport]
    stopwatch: StopwatchReport
    #: present iff the run executed under a resilience configuration
    degradation: Optional[DegradationReport] = None
    #: present iff the run acquired instances (``config.webiq_enabled``):
    #: the memo's hits and misses
    cache: Optional[CacheStats] = None
    #: present iff the run executed with observability enabled
    obs: Optional[Observability] = None
    #: present iff the run executed with checkpointing enabled
    checkpoint: Optional[CheckpointReport] = None
    #: present iff the run completed under a :class:`repro.supervisor.RunSupervisor`
    #: (attached by the supervisor, not by the pipeline itself)
    supervisor: Optional[SupervisorReport] = None
    #: the dataset seed the run executed against (attributable diagnostics)
    seed: Optional[int] = None
    #: present iff the run persisted a registry (``config.registry``).
    #: In-memory only — excluded from JSON exports, which must stay
    #: byte-identical with and without a registry attached.
    registry: Optional["RegistryReport"] = None
    #: present iff the run acquired instances: the post-run memo as a
    #: :class:`~repro.perf.CachePreload`, for warm-starting a later run.
    #: In-memory only — the export's ``cache`` section carries
    #: the stats, never the content.
    cache_content: Optional[CachePreload] = None
    #: present iff the run was executed by the matching service
    #: (:mod:`repro.service`), which attaches its per-request coordinates
    #: (request id, tenant, epoch lineage) after the run. Exported as the
    #: ``service`` section; the equivalence oracle strips it
    #: before byte-comparing against a standalone run.
    service: Optional[object] = None

    def overhead_minutes(self, account: str) -> float:
        return self.stopwatch.minutes(account)


class WebIQMatcher:
    """Run WebIQ acquisition + IceQ matching over a domain dataset."""

    def __init__(self, config: WebIQConfig = WebIQConfig()) -> None:
        self.config = config

    def run(
        self,
        dataset: DomainDataset,
        *,
        warm: Optional[CachePreload] = None,
    ) -> WebIQRunResult:
        """Execute one full run; the dataset is reset first, so runs with
        different configurations over the same dataset are independent.

        ``warm``, when given, seeds the run's memo with a
        :class:`~repro.perf.CachePreload` captured from an earlier run
        *before* any unit executes — the warm run hits where the donor
        run paid, and its export is byte-identical to any other run of
        the same configuration given the same preload (the matching
        service's equivalence oracle). A run that acquires nothing has
        no memo and ignores it.
        """
        dataset.clear_acquired()
        dataset.reset_counters()
        clock = SimulatedClock()
        obs: Optional[Observability] = None
        if self.config.obs is not None:
            obs = Observability(
                self.config.obs,
                clock_seconds=lambda: clock.now_seconds,
            )
        session: Optional[CheckpointSession] = None
        if self.config.supervisor is not None and self.config.webiq_enabled \
                and self.config.checkpoint is None:
            raise ValidationError(
                "supervision requires a checkpoint journal: quarantine "
                "skips and deadline preemptions are only sound at journal "
                "boundaries — attach a CheckpointConfig"
            )
        if self.config.checkpoint is not None and self.config.webiq_enabled:
            if self.config.checkpoint.resume and obs is not None:
                raise ResumeError(
                    "cannot resume under observability: replayed units issue "
                    "no calls for the tracer to observe, so the resumed "
                    "trace could not match the original — rerun with "
                    "obs=None, or without resume"
                )
            session = open_session(
                self.config.checkpoint,
                self._journal_meta(dataset, warm),
                kill_switch=self._kill_switch(),
            )
            if self.config.supervisor is not None:
                session.supervise(self.config.supervisor, clock)

        acquisition: Optional[AcquisitionReport] = None
        degradation: Optional[DegradationReport] = None
        checkpoint_report: Optional[CheckpointReport] = None
        validation_cache: Optional[ValidationCache] = None
        with ExitStack() as run_scope:
            if obs is not None:
                run_scope.enter_context(
                    obs.tracer.span("run", domain=dataset.domain)
                )
                if obs.counters is not None:
                    # Profiling: collect hot-path work counters for the
                    # whole run scope. Strictly read-only — the counters
                    # live outside the export payload.
                    run_scope.enter_context(collecting_counters(obs.counters))
            if self.config.webiq_enabled:
                # The run's one memo of Surface questions (extraction
                # searches and hit counts), shared by Surface and
                # Attr-Surface. It sits ABOVE the resilient proxy: a hit
                # is served before the retry loop runs, so it consumes no
                # query budget and charges no latency or backoff.
                validation_cache = ValidationCache()
                if warm is not None:
                    # Warm start: seed the memo BEFORE any unit runs (and
                    # before journal replay, mirroring the donor run,
                    # where the preload also preceded every journaled
                    # unit). Stats stay at zero — the warm run counts its
                    # own hits against the preloaded content.
                    warm.apply(validation_cache)
                engine = dataset.engine
                sources = dataset.sources
                client: Optional[ResilientClient] = None
                if self.config.resilience is not None:
                    client = ResilientClient(self.config.resilience, obs=obs)
                    engine = ResilientSearchEngine(engine, client)
                    sources = {
                        source_id: ResilientDeepWebSource(source, client)
                        for source_id, source in sources.items()
                    }
                if obs is not None:
                    # One observer per substrate, directly below the memo:
                    # every engine call crossing here is a memo miss
                    # heading for the (possibly flaky) Web.
                    engine = ObservedSearchEngine(engine, obs)
                    sources = {
                        source_id: ObservedDeepWebSource(source, obs)
                        for source_id, source in sources.items()
                    }
                if session is not None:
                    session.attach_substrates(engine, sources, client=client)
                acquirer = InstanceAcquirer(
                    engine, sources, self.config.acquisition,
                    resilience=client, validation_cache=validation_cache,
                    clock=clock, obs=obs, checkpoint=session,
                    memo=dataset.world.memo,
                )
                acquisition = acquirer.acquire(
                    dataset.interfaces,
                    domain_keywords=dataset.spec.keyword_terms(),
                    object_name=dataset.spec.object_name,
                    enable_surface=self.config.enable_surface,
                    enable_attr_deep=self.config.enable_attr_deep,
                    enable_attr_surface=self.config.enable_attr_surface,
                )
                if session is not None:
                    checkpoint_report = session.finalize()
                if client is not None:
                    degradation = client.report
                    # Backoff waits are real wall time to a live system;
                    # charge them so Figure 8 reflects the retry cost.
                    # (On resume the report was restored from the journal,
                    # so this single end-of-run charge already includes the
                    # killed process's backoff.)
                    backoff = degradation.backoff_seconds_by_component
                    for component, seconds in sorted(backoff.items()):
                        clock.charge_seconds(f"{component}_retry", seconds)

            matcher = IceQMatcher(
                self.config.similarity, linkage=self.config.linkage,
                provenance=obs.provenance if obs is not None else None,
            )
            with ExitStack() as match_scope:
                if obs is not None:
                    match_scope.enter_context(obs.phase("matching"))
                match_result = matcher.match(
                    dataset.interfaces, threshold=self.config.threshold
                )
                clock.charge_seconds(
                    "matching",
                    match_result.similarity_evaluations
                    * MATCHING_SECONDS_PER_EVALUATION,
                )

        metrics = evaluate_matches(
            match_result.match_pairs(), dataset.ground_truth.match_pairs()
        )
        registry_report: Optional[RegistryReport] = None
        if self.config.registry is not None:
            # Registry construction happens strictly after the run proper:
            # it reads the post-acquisition interfaces, charges no clock
            # account and records no span, so exports stay byte-identical
            # with and without it. The InvariantChecker audits that its
            # induced matching equals the batch clusters above.
            with ExitStack() as registry_scope:
                if obs is not None and obs.counters is not None:
                    # Blocking-index probes and registry similarity
                    # evaluations belong to the run's work profile even
                    # though the registry lives outside the run proper.
                    registry_scope.enter_context(
                        collecting_counters(obs.counters)
                    )
                _, registry_report = build_registry(
                    dataset.domain,
                    dataset.interfaces,
                    store=RegistryStore(
                        domain=dataset.domain,
                        threshold=self.config.threshold,
                        linkage=self.config.linkage,
                        similarity=self.config.similarity,
                    ),
                    directory=self.config.registry,
                )
        cache_stats: Optional[CacheStats] = None
        cache_content: Optional[CachePreload] = None
        if validation_cache is not None:
            # The post-run memo, as the warm-start input a later run (or
            # the matching service's next epoch) can be seeded with.
            # Captured after everything that can touch the memo; what the
            # run left unchanged is shared with ``warm``.
            cache_stats = validation_cache.stats
            cache_content = CachePreload.capture(validation_cache, warm)
        return WebIQRunResult(
            domain=dataset.domain,
            config=self.config,
            metrics=metrics,
            match_result=match_result,
            acquisition=acquisition,
            stopwatch=clock.report(),
            degradation=degradation,
            cache=cache_stats,
            obs=obs,
            checkpoint=checkpoint_report,
            seed=dataset.seed,
            registry=registry_report,
            cache_content=cache_content,
        )

    # ----------------------------------------------------------- checkpoint
    def _kill_switch(self) -> Optional[KillSwitch]:
        """Arm ``CheckpointConfig.kill_at``'s deterministic preemption, if
        any. The switch is injected hostility, not run identity — it
        never enters the journal meta.
        """
        assert self.config.checkpoint is not None
        kill_at = self.config.checkpoint.kill_at
        return KillSwitch(kill_at) if kill_at is not None else None

    def _journal_meta(
        self,
        dataset: DomainDataset,
        warm: Optional[CachePreload] = None,
    ) -> Dict[str, object]:
        """The run-identity coordinates a journal is only valid for.

        Resume refuses a journal whose meta differs in any key: replaying
        a ``book`` journal into an ``airfare`` run would silently corrupt
        the result.
        Deliberately excluded: ``kill_at`` (injected hostility),
        observability (read-only), and ``registry`` (post-run
        bookkeeping that cannot change a run byte). A warm preload *is* run
        identity (it decides which queries hit), so warm runs carry its
        fingerprint, and cold runs omit the key entirely.
        """
        cfg = self.config
        meta: Dict[str, object] = {
            "domain": dataset.domain,
            "seed": dataset.seed,
            "n_interfaces": len(dataset.interfaces),
            "enable_surface": cfg.enable_surface,
            "enable_attr_deep": cfg.enable_attr_deep,
            "enable_attr_surface": cfg.enable_attr_surface,
            "threshold": cfg.threshold,
            "linkage": cfg.linkage,
            "k": cfg.acquisition.k,
            "resilience": None,
        }
        if warm is not None:
            meta["warm"] = warm.fingerprint()
        if cfg.resilience is not None:
            res = cfg.resilience
            meta["resilience"] = {
                "fault_rate": res.profile.fault_rate,
                "fault_seed": res.profile.seed,
                "weights": [
                    res.profile.timeout_weight,
                    res.profile.transient_weight,
                    res.profile.rate_limit_weight,
                    res.profile.garbled_weight,
                ],
                "retry": [
                    res.retry.max_attempts,
                    res.retry.base_delay,
                    res.retry.multiplier,
                    res.retry.max_delay,
                    res.retry.jitter,
                    res.retry.rate_limit_factor,
                ],
                "breaker": [
                    res.breaker.failure_threshold,
                    res.breaker.cooldown_rejections,
                ],
                "budgets": [
                    res.surface_query_budget,
                    res.attr_surface_query_budget,
                    res.attr_deep_probe_budget,
                ],
            }
        return meta
