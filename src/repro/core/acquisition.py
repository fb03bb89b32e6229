"""Instance-acquisition orchestration (paper §5, "Instance Acquisition").

For every attribute ``X1`` across all interfaces:

1. If ``X1`` has **no** instances: gather from the Surface Web (Surface).
   a. If at least ``k`` instances were gathered, stop.
   b. Otherwise borrow from other attributes and validate via the Deep Web
      (Attr-Deep) — not via the Surface Web, which already failed.
2. If ``X1`` has pre-defined instances: borrow and validate via the Surface
   Web (Attr-Surface) — the Deep Web cannot be used because a SELECT widget
   physically rejects foreign values.

Borrowing is restricted to donors "whose domains are deemed potentially
similar": in case 1, donors with similar labels whose domain differs from
every other attribute on ``X1``'s interface; in case 2, donors sharing at
least two very similar values with ``X1``.

Implementation note: the paper iterates attributes one by one; we run the
Surface step for *all* attributes before any borrowing, so that every
Surface-acquired instance set is available as a donor regardless of
iteration order. This keeps results order-independent and matches the
paper's intent (donors in its examples already have instances).

The three phases run as plain loops over a state-independent enumeration
of checkpoint units — one ``(phase, interface, attribute)`` per unit —
so the journal's boundary layout depends only on the interfaces and the
enabled phases, never on what earlier units produced.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.checkpoint.session import CheckpointSession, ReplayedUnit, UnitCapture
from repro.core.attr_deep import AttrDeepValidator
from repro.core.attr_surface import AttrSurfaceValidator, ClassifierConfig
from repro.core.surface import (
    SurfaceConfig,
    SurfaceDiscoverer,
    SurfaceMemo,
    WebValidator,
)
from repro.deepweb.models import Attribute, QueryInterface
from repro.deepweb.source import DeepWebSource
from repro.matching.similarity import label_cosine, label_vector, values_similar
from repro.obs.instrument import Observability
from repro.obs.provenance import (
    PHASE_ATTR_DEEP,
    PHASE_ATTR_SURFACE,
    InstanceLineage,
    ProbeVerdict,
    ProvenanceRecorder,
    ValidationEvidence,
)
from repro.perf.cache import ValidationCache
from repro.resilience.client import ResilientClient
from repro.resilience.context import UnitKey, unit_scope
from repro.surfaceweb.engine import SearchEngine
from repro.util import counters as work
from repro.util.clock import SimulatedClock

__all__ = [
    "AcquisitionConfig",
    "AcquisitionRecord",
    "AcquisitionReport",
    "InstanceAcquirer",
]

AttrKey = Tuple[str, str]


@dataclass(frozen=True)
class _Unit:
    """One checkpoint unit: one ``(phase, interface, attribute)`` of work,
    with the acquisition record it updates."""

    phase: str
    interface: QueryInterface
    attribute: Attribute
    record: AcquisitionRecord

    @property
    def key(self) -> UnitKey:
        return (self.phase, self.interface.interface_id, self.attribute.name)


@dataclass(frozen=True)
class AcquisitionConfig:
    """Policy knobs of §5."""

    #: success bar: "if WebIQ obtains at least 10 instances, then the
    #: acquisition process is deemed successful"
    k: int = 10
    #: minimum label similarity for a case-1 donor
    label_sim_threshold: float = 0.3
    #: a case-1 donor is rejected if its domain overlaps any other attribute
    #: of X1's interface more than this
    domain_dissimilar_max: float = 0.3
    #: case-2 condition: "at least two values, one from each domain, which
    #: are very similar"
    min_similar_values: int = 2
    #: donors tried per attribute (bounds probing/validation cost)
    max_donors: int = 4
    #: donors tried per pre-defined attribute in case 2 (each costs many
    #: validation queries: Attr-Surface is the most query-hungry component)
    case2_max_donors: int = 2
    #: a case-2 donor whose domain already overlaps X1's this much is skipped:
    #: borrowing from it cannot make the domains noticeably more similar
    case2_skip_overlap: float = 0.5
    #: cap on values added to a pre-defined attribute by Attr-Surface
    max_borrow_enrichment: int = 12
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self) -> None:
        # Case 2 scans only the donors sharing a similar value with X1,
        # which is every donor that can qualify only from 1 up.
        if self.min_similar_values < 1:
            raise ValueError("min_similar_values must be at least 1")


@dataclass
class AcquisitionRecord:
    """What happened for one attribute during acquisition."""

    interface_id: str
    attribute: str
    label: str
    had_instances: bool
    n_after_surface: int = 0
    n_after_borrow: int = 0
    surface_attempted: bool = False
    borrow_deep_attempted: bool = False
    borrow_surface_attempted: bool = False

    def success(self, k: int) -> bool:
        return self.n_after_borrow >= k

    def surface_success(self, k: int) -> bool:
        return self.n_after_surface >= k


@dataclass
class AcquisitionReport:
    """Per-attribute records plus per-component query accounting."""

    records: List[AcquisitionRecord] = field(default_factory=list)
    surface_queries: int = 0
    attr_surface_queries: int = 0
    attr_deep_probes: int = 0
    k: int = 10

    def record_for(self, interface_id: str, attribute: str) -> AcquisitionRecord:
        for record in self.records:
            if record.interface_id == interface_id and record.attribute == attribute:
                return record
        raise KeyError((interface_id, attribute))

    def _no_instance_records(self) -> List[AcquisitionRecord]:
        return [r for r in self.records if not r.had_instances]

    @property
    def surface_success_rate(self) -> float:
        """Table 1 column 6: Surface-only success over no-instance attributes."""
        targets = self._no_instance_records()
        if not targets:
            return 0.0
        return 100.0 * sum(r.surface_success(self.k) for r in targets) / len(targets)

    @property
    def final_success_rate(self) -> float:
        """Table 1 column 7: Surface + Deep success over no-instance attributes."""
        targets = self._no_instance_records()
        if not targets:
            return 0.0
        return 100.0 * sum(r.success(self.k) for r in targets) / len(targets)


class InstanceAcquirer:
    """Runs the §5 acquisition policy over a set of interfaces."""

    def __init__(
        self,
        engine: SearchEngine,
        sources: Dict[str, DeepWebSource],
        config: AcquisitionConfig = AcquisitionConfig(),
        resilience: Optional[ResilientClient] = None,
        validation_cache: Optional[ValidationCache] = None,
        clock: Optional[SimulatedClock] = None,
        obs: Optional[Observability] = None,
        checkpoint: Optional[CheckpointSession] = None,
        memo: Optional[SurfaceMemo] = None,
    ) -> None:
        """``engine`` and ``sources`` may be the raw substrates or the
        drop-in resilient proxies from :mod:`repro.resilience`; pass the
        proxies' shared ``resilience`` client to enable per-component
        budget attribution and graceful budget-exhaustion skipping.

        ``validation_cache`` is the run's memo of Surface questions
        (extraction searches and hit counts), shared by Surface discovery
        and the Attr-Surface classifier so neither re-asks what the run
        already asked; without one the acquirer makes its own.

        ``clock``, when given, is charged each phase's simulated remote
        latency as the phase completes (the pipeline used to charge the
        run's totals at the end; per-phase charging is equivalent — the
        same per-account count is charged exactly once — but gives
        observability spans meaningful end timestamps). ``obs`` wraps
        every phase in a trace span and scopes call attribution.

        ``checkpoint``, when given, brackets every per-attribute unit of
        work: completed units are journaled durably, and on resume the
        journaled ones are replayed without issuing a single engine query
        or source probe (see :mod:`repro.checkpoint`).

        ``memo`` is the Surface memo of the Web behind ``engine``, shared
        with every other run over that Web (each dataset keeps one); every
        run reads and fills it. Without one the acquirer makes its own."""
        self.engine = engine
        self.sources = sources
        self.config = config
        self.resilience = resilience
        self.clock = clock
        self.obs = obs
        self.checkpoint = checkpoint
        self._interfaces: List[QueryInterface] = []
        self._domain_keywords: List[str] = []
        self._object_name: str = "object"
        # The unit bracket currently open — exceptions escaping acquire()
        # are stamped with it so the supervisor can attribute the crash
        # to a (phase, interface, attribute) and quarantine repeat
        # offenders.
        self._current_unit: Optional[Tuple[str, str, str]] = None
        # label -> label_vector(label); labels never change, so the memo
        # spares case-1 donor selection re-normalising every donor label.
        self._label_vectors: Dict[str, Tuple[Dict[str, int], float]] = {}
        # every donor's normalised forms, inverted; built lazily per run
        self._donor_forms: Optional[_DonorIndex] = None
        # snippet extractions and label analyses of the Web behind engine
        self.memo = SurfaceMemo() if memo is None else memo
        # ValidationCache defines __len__: an empty one is falsy
        if validation_cache is None:
            validation_cache = ValidationCache()
        self.validation_cache = validation_cache
        self._discoverer = SurfaceDiscoverer(
            engine, config.surface, validation_cache=validation_cache,
            provenance=self.provenance,
        )
        self._attr_surface = AttrSurfaceValidator(
            WebValidator(engine, cache=validation_cache), config.classifier
        )
        self._attr_deep = AttrDeepValidator(sources)
        if checkpoint is not None:
            # the cross-unit memos whose growth each unit must journal
            checkpoint.register_validation_cache(validation_cache)
            checkpoint.register_probe_memo(self._attr_deep.probe_memo)

    def acquire(
        self,
        interfaces: Sequence[QueryInterface],
        domain_keywords: Sequence[str] = (),
        object_name: str = "object",
        enable_surface: bool = True,
        enable_attr_deep: bool = True,
        enable_attr_surface: bool = True,
    ) -> AcquisitionReport:
        """Acquire instances for every attribute; mutates ``attr.acquired``.

        Any exception escaping a unit bracket is stamped with the unit's
        ``(phase, interface, attribute)`` key (as ``exc.webiq_unit``) so a
        supervisor can attribute the crash without parsing messages.
        """
        try:
            return self._acquire(
                interfaces, domain_keywords, object_name,
                enable_surface, enable_attr_deep, enable_attr_surface,
            )
        except Exception as exc:
            if self._current_unit is not None \
                    and not hasattr(exc, "webiq_unit"):
                try:
                    exc.webiq_unit = self._current_unit
                except AttributeError:
                    pass  # exceptions with __slots__: crash stays unattributed
            raise
        finally:
            # the donor index serves one run; free it before matching
            self._donor_forms = None

    def _acquire(
        self,
        interfaces: Sequence[QueryInterface],
        domain_keywords: Sequence[str],
        object_name: str,
        enable_surface: bool,
        enable_attr_deep: bool,
        enable_attr_surface: bool,
    ) -> AcquisitionReport:
        self._interfaces = list(interfaces)
        self._donor_forms = None
        self._domain_keywords = list(domain_keywords)
        self._object_name = object_name
        report = AcquisitionReport(k=self.config.k)
        # Unit enumeration is state-independent: which units exist depends
        # only on the interfaces and the enabled phases, never on what
        # earlier units produced (per-unit gates like "Surface already
        # reached k" stay *inside* the unit), so the journal's boundary
        # layout is fixed before the first query.
        slots: List[Tuple[QueryInterface, Attribute, AcquisitionRecord]] = []
        for interface in interfaces:
            for attribute in interface.attributes:
                record = AcquisitionRecord(
                    interface_id=interface.interface_id,
                    attribute=attribute.name,
                    label=attribute.label,
                    had_instances=attribute.has_instances,
                )
                report.records.append(record)
                slots.append((interface, attribute, record))
        no_instances = [slot for slot in slots if not slot[1].has_instances]
        # pre-defined values: handled by Attr-Surface, not Attr-Deep
        predefined = [slot for slot in slots if slot[1].has_instances]

        # Accounting is accumulated per unit (not as one phase-wide
        # counter delta): every query happens inside some unit, so the sum
        # is identical — but per-unit deltas are what the checkpoint
        # journal records and what replay re-charges.
        if enable_surface:
            with self._phase("surface"):
                cost = 0
                for slot in no_instances:
                    cost += self._execute_unit(_Unit("surface", *slot))
                report.surface_queries += cost
                if self.clock is not None:
                    self.clock.charge_search_query("surface", cost)
        if enable_attr_deep:
            with self._phase("attr_deep"):
                cost = 0
                for slot in no_instances:
                    cost += self._execute_unit(_Unit("attr_deep", *slot))
                report.attr_deep_probes += cost
                if self.clock is not None:
                    self.clock.charge_deep_probe("attr_deep", cost)
        if enable_attr_surface:
            with self._phase("attr_surface"):
                cost = 0
                for slot in predefined:
                    cost += self._execute_unit(_Unit("attr_surface", *slot))
                report.attr_surface_queries += cost
                if self.clock is not None:
                    self.clock.charge_search_query("attr_surface", cost)

        # Final instance counts for attributes no borrowing phase touched.
        for _, attribute, record in slots:
            record.n_after_borrow = max(
                record.n_after_borrow, self._acquired_count(attribute)
            )
        return report

    def _execute_unit(self, unit: _Unit) -> int:
        """One unit, then its notice to the donor index: a unit appends to
        its own attribute and to no other. Returns the unit's round-trip
        cost (queries, or probes for ``attr_deep``)."""
        cost = self._run_unit(unit)
        self._notify_donor_index(unit.interface, unit.attribute)
        return cost

    def _run_unit(self, unit: _Unit) -> int:
        """Replay the unit from the journal if a record is pending, honour
        quarantine, else run it fresh."""
        replayed = self._replayed(unit.phase, unit.interface, unit.attribute,
                                  unit.record)
        if replayed is not None:
            return (replayed.probes if unit.phase == "attr_deep"
                    else replayed.queries)
        if self._skip_quarantined(unit.phase, unit.interface, unit.attribute,
                                  unit.record):
            return 0
        # The unit scope partitions every sequential random stream
        # (backoff jitter, source fault fates) by unit key, making the
        # unit's draws independent of execution order and resume point.
        with unit_scope(unit.key):
            return self._fresh_unit(unit)

    def _fresh_unit(self, unit: _Unit) -> int:
        interface, attribute, record = unit.interface, unit.attribute, unit.record
        capture = self._begin(unit.phase, interface, attribute)
        before = self._cost_mark(unit.phase)
        if unit.phase == "attr_deep" \
                and record.n_after_surface >= self.config.k:
            record.n_after_borrow = record.n_after_surface
            # step 1.a succeeded — still a (zero-cost) journal
            # boundary, so replay enumerates the same units
            self._commit(capture, attribute, record)
            return 0
        if self._skip_exhausted(unit.phase, interface, attribute):
            self._commit(capture, attribute, record, skipped=True)
            return 0
        if unit.phase == "surface":
            record.surface_attempted = True
            with self._subject(interface.interface_id, attribute.name):
                result = self._discoverer.discover(
                    attribute, self._domain_keywords, self._object_name,
                    self.memo,
                )
            attribute.acquired.extend(result.instances)
            record.n_after_surface = self._acquired_count(attribute)
        elif unit.phase == "attr_deep":
            record.borrow_deep_attempted = True
            self._borrow_via_deep(interface, attribute)
            record.n_after_borrow = self._acquired_count(attribute)
        else:
            record.borrow_surface_attempted = True
            self._borrow_via_surface(interface, attribute)
            record.n_after_borrow = self._acquired_count(attribute)
        cost = self._cost_mark(unit.phase) - before
        self._commit(capture, attribute, record)
        return cost

    def _cost_mark(self, phase: str) -> int:
        """The round-trip counter a phase's unit costs are measured on."""
        if phase == "attr_deep":
            return self._total_probes()
        return self.engine.query_count

    def _borrow_via_deep(self, interface: QueryInterface,
                         attribute: Attribute) -> None:
        donors = self._case1_donors(interface, attribute)
        have = {v.lower() for v in attribute.all_instances()}
        provenance = self.provenance
        for donor_interface_id, donor in donors[: self.config.max_donors]:
            if len(have) >= self.config.k:
                break
            values = [
                v for v in donor.all_instances() if v.lower() not in have
            ]
            result = self._attr_deep.validate(
                interface.interface_id, attribute.name, values
            )
            verdict = None
            if provenance is not None and result.accepted:
                verdict = ProbeVerdict(
                    successes=result.successes,
                    sampled=result.sampled,
                    probes_issued=result.probes_issued,
                    accept_ratio=self._attr_deep.accept_ratio,
                    accepted=True,
                )
            for value in result.accepted:
                if value.lower() not in have:
                    have.add(value.lower())
                    attribute.acquired.append(value)
                    if provenance is not None:
                        provenance.record_lineage(InstanceLineage(
                            interface_id=interface.interface_id,
                            attribute=attribute.name,
                            value=value,
                            phase=PHASE_ATTR_DEEP,
                            donor=(donor_interface_id, donor.name),
                            probe=verdict,
                        ))

    def _case1_donors(self, interface: QueryInterface,
                      attribute: Attribute) -> List[Tuple[str, Attribute]]:
        """Donor ``(interface_id, attribute)`` pairs for a no-instance
        attribute (§5 case 1) — the donor's identity travels with it so
        borrowed instances can carry a provenance-grade donor key.

        The donor's label must be similar to X1's, and its domain must
        differ from every *other* attribute on X1's interface ("if Y and X1
        have similar domains, it is very unlikely that Y has some
        pre-defined values while X1 does not"). Note the rationale is about
        *pre-defined* values, so only Y's pre-defined instances participate:
        instances Y itself acquired from the Web say nothing about what the
        interface designer pre-defined.
        """
        index = self._donor_index()
        others = [
            _normalized(y.instances) for y in interface.attributes
            if y.name != attribute.name and y.instances
        ]
        own_vector, own_norm = self._label_vector(attribute.label)
        threshold = self.config.label_sim_threshold
        # label_cosine is 0 unless the labels share a word, so above a
        # threshold of 0 only the donors sharing one can qualify; they are
        # still scanned in rank order (DESIGN.md §31)
        ranks = index.label_ranks(own_vector) if threshold > 0 else None
        scored: List[Tuple[float, str, Attribute]] = []
        for _, other_interface, donor, donor_values in \
                index.donors(interface, ranks):
            sim = label_cosine(own_vector, own_norm,
                               *self._label_vector(donor.label))
            if sim < threshold:
                continue
            if any(
                _containment(donor_values, y_values)
                > self.config.domain_dissimilar_max
                for y_values in others
            ):
                continue
            scored.append((sim, other_interface.interface_id, donor))
        if work.ACTIVE is not None:
            work.ACTIVE.bump("donor.candidates", index.count(interface))
        scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
        return [(interface_id, donor) for _, interface_id, donor in scored]

    def _borrow_via_surface(self, interface: QueryInterface,
                            attribute: Attribute) -> None:
        donors = self._case2_donors(interface, attribute)
        if not donors:
            return
        classifier = self._attr_surface.build_classifier(
            attribute, interface, self.memo)
        if classifier is None:
            return
        have = {v.lower() for v in attribute.all_instances()}
        provenance = self.provenance
        added = 0
        for donor_interface_id, donor in donors[: self.config.case2_max_donors]:
            if added >= self.config.max_borrow_enrichment:
                break
            fresh = [v for v in donor.all_instances() if v.lower() not in have]
            for value in self._attr_surface.validate(classifier, fresh):
                if added >= self.config.max_borrow_enrichment:
                    break
                have.add(value.lower())
                attribute.acquired.append(value)
                added += 1
                if provenance is not None:
                    # Re-derives the already-memoised evidence (zero
                    # queries) behind the prediction that admitted value.
                    vector, features, posterior = classifier.explain(value)
                    provenance.record_lineage(InstanceLineage(
                        interface_id=interface.interface_id,
                        attribute=attribute.name,
                        value=value,
                        phase=PHASE_ATTR_SURFACE,
                        validation=ValidationEvidence(
                            phrases=tuple(classifier.phrases),
                            scores=tuple(vector),
                            score=posterior,
                        ),
                        features=tuple(features),
                        posterior=posterior,
                        donor=(donor_interface_id, donor.name),
                    ))

    def _case2_donors(self, interface: QueryInterface,
                      attribute: Attribute) -> List[Tuple[str, Attribute]]:
        """Donor ``(interface_id, attribute)`` pairs for a pre-defined
        attribute (§5 case 2): the domains share at least
        ``min_similar_values`` very similar values."""
        index = self._donor_index()
        own = _form_counts(attribute.all_instances())
        exact, overlap = index.tally(own)
        scored: List[Tuple[int, str, Attribute]] = []
        # A donor absent from overlap scores 0 < min_similar_values, so
        # only the scoring donors are scanned, still in rank order; each
        # holds a form, so own and donor_values are both non-empty.
        for rank, other_interface, donor, donor_values in \
                index.donors(interface, sorted(overlap)):
            # exact-form containment, as _containment computes it
            containment = (exact.get(rank, 0)
                           / min(len(own), len(donor_values)))
            if containment >= self.config.case2_skip_overlap:
                continue  # domains already similar: nothing to gain
            score = overlap[rank]
            if score >= self.config.min_similar_values:
                scored.append((score, other_interface.interface_id, donor))
        if work.ACTIVE is not None:
            work.ACTIVE.bump("donor.candidates", index.count(interface))
        scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
        return [(interface_id, donor) for _, interface_id, donor in scored]

    # ----------------------------------------------------------- checkpoint
    def _replayed(self, phase: str, interface: QueryInterface,
                  attribute: Attribute,
                  record: AcquisitionRecord) -> Optional[ReplayedUnit]:
        """Replay this unit from the journal, if a record is pending.

        A replayed unit applies its recorded effects (acquired values,
        record fields, memo growth) and reports its recorded cost —
        without a single engine query or source probe.
        """
        if self.checkpoint is None:
            return None
        return self.checkpoint.replay_unit(
            (phase, interface.interface_id, attribute.name),
            attribute, record,
        )

    def _skip_quarantined(self, phase: str, interface: QueryInterface,
                          attribute: Attribute,
                          record: AcquisitionRecord) -> bool:
        """Skip a unit the supervisor quarantined after repeated crashes.

        The skip is itself journaled (``quarantined=True``, zero cost, no
        saboteur) so replay enumerates the same boundaries and the
        degradation report can account for every attempted unit.
        """
        unit_key = (phase, interface.interface_id, attribute.name)
        if self.checkpoint is None \
                or not self.checkpoint.is_quarantined(unit_key):
            return False
        capture = self.checkpoint.begin_unit(
            unit_key, attribute, sabotage=False
        )
        self.checkpoint.commit_unit(
            capture, attribute, record, skipped=True, quarantined=True
        )
        return True

    def _begin(self, phase: str, interface: QueryInterface,
               attribute: Attribute) -> Optional[UnitCapture]:
        if self.checkpoint is None:
            return None
        self._current_unit = (phase, interface.interface_id, attribute.name)
        return self.checkpoint.begin_unit(
            self._current_unit, attribute
        )

    def _commit(self, capture: Optional[UnitCapture], attribute: Attribute,
                record: AcquisitionRecord, skipped: bool = False) -> None:
        if self.checkpoint is not None and capture is not None:
            self.checkpoint.commit_unit(
                capture, attribute, record, skipped=skipped
            )
        self._current_unit = None

    # ------------------------------------------------------------- helpers
    @property
    def provenance(self) -> Optional[ProvenanceRecorder]:
        """The run's decision recorder, if observability carries one."""
        return self.obs.provenance if self.obs is not None else None

    @contextmanager
    def _subject(self, interface_id: str, attribute: str) -> Iterator[None]:
        """Scope provenance records to one attribute (no-op unobserved)."""
        provenance = self.provenance
        if provenance is None:
            yield
        else:
            with provenance.subject(interface_id, attribute):
                yield

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Phase scope: trace span + metrics component (when observed) and
        budget/accounting attribution (when resilient). No-op otherwise."""
        with ExitStack() as stack:
            if self.obs is not None:
                stack.enter_context(self.obs.phase(name))
            if self.resilience is not None:
                stack.enter_context(self.resilience.component(name))
            yield

    def _skip_exhausted(self, component: str, interface: QueryInterface,
                        attribute: Attribute) -> bool:
        """Graceful degradation: once a component's budget is spent, skip
        its remaining attributes outright (recording each skip) instead of
        issuing calls that would all fast-fail anyway."""
        if self.resilience is None:
            return False
        if not self.resilience.budget_exhausted(component):
            return False
        self.resilience.skip_attribute(interface.interface_id, attribute.name)
        return True

    def _donor_index(self) -> _DonorIndex:
        """The run's donor index, built on first use; every unit since
        keeps it current through :meth:`_notify_donor_index`."""
        if self._donor_forms is None:
            self._donor_forms = _DonorIndex(self._interfaces, self.config,
                                            self._label_vector)
        return self._donor_forms

    def _notify_donor_index(self, interface: QueryInterface,
                            attribute: Attribute) -> None:
        """Tell the run's donor index that ``attribute`` may have grown.
        Before the index exists there is nothing to tell: building it
        reads every attribute."""
        if self._donor_forms is not None:
            self._donor_forms.notify(interface.interface_id, attribute.name)

    @staticmethod
    def _acquired_count(attribute: Attribute) -> int:
        return len(attribute.all_instances()) if not attribute.has_instances \
            else len(attribute.acquired)

    def _label_vector(self, label: str) -> Tuple[Dict[str, int], float]:
        vector = self._label_vectors.get(label)
        if vector is None:
            vector = self._label_vectors[label] = label_vector(label)
        return vector

    def _total_probes(self) -> int:
        return sum(s.probe_count for s in self.sources.values())


def _normalized(values: Sequence[str]) -> Dict[str, str]:
    """``strip().lower()`` form -> first value with that form, in order."""
    out: Dict[str, str] = {}
    for value in values:
        out.setdefault(value.strip().lower(), value)
    return out


def _containment(values_a: Dict[str, Any], values_b: Dict[str, Any]) -> float:
    """:func:`~repro.matching.similarity.value_similarity` over value sets
    already keyed by their normalised forms."""
    if not values_a or not values_b:
        return 0.0
    return len(values_a.keys() & values_b.keys()) / min(len(values_a),
                                                        len(values_b))


def _form_counts(values: Sequence[str]) -> Dict[str, int]:
    """``strip().lower()`` form -> how many of ``values`` have it."""
    out: Dict[str, int] = {}
    for value in values:
        norm = value.strip().lower()
        out[norm] = out.get(norm, 0) + 1
    return out


class _DonorIndex:
    """Every eligible donor's normalised forms, inverted for donor selection.

    A donor is any attribute whose instance set is a trustworthy domain:
    pre-defined SELECT values always qualify (however few — the interface
    designer vouches for them), acquired ones only once the acquisition
    *succeeded* (reached ``k``), since a handful of leftover candidates from
    a failed extraction is mostly noise and would crowd out genuine donors.
    Donors are ranked by enumeration order — interface order, then
    attribute order — which is the order both donor rules scan them in.

    The index keeps each donor's :func:`_normalized` forms, each form's
    holders, and a word -> forms posting list. :func:`~repro.matching.
    similarity.values_similar` sees its arguments only through their
    ``strip().lower()`` forms, is symmetric, holds on equal forms, and
    otherwise needs a word Jaccard of at least 0.5 — so at least one
    shared word. A recipient form can therefore only match the donor form
    equal to it or the donor forms sharing one of its words; :meth:`tally`
    confirms exactly those with ``values_similar``, once per distinct donor
    form however many donors hold it (DESIGN.md §18).

    ``acquired`` lists only grow during a run, so a donor whose
    ``(len(instances), len(acquired))`` version is unchanged has unchanged
    forms. Construction indexes every slot; after that, the acquirer
    names the one attribute each unit touched to :meth:`notify`, and only
    a notified donor whose version moved is re-indexed. The attribute lists
    themselves are fixed for the index's lifetime.

    Labels never change, so a word -> ranks posting list of every slot's
    :func:`~repro.matching.similarity.label_vector` words is built once;
    :meth:`label_ranks` reads it for case 1. ``values_similar`` is a pure
    function of two forms, so :meth:`tally` asks it once per pair for the
    index's lifetime (DESIGN.md §31).

    The index holds the interfaces, never the acquirer that queries it:
    the acquirer's label-vector memo is read at construction only.
    """

    def __init__(self, interfaces: Sequence[QueryInterface],
                 config: AcquisitionConfig,
                 label_vector: Callable[[str], Tuple[Dict[str, int], float]]
                 ) -> None:
        self._k = config.k
        #: ``(interface, attribute)`` by rank
        self._slots = [(interface, attribute) for interface in interfaces
                       for attribute in interface.attributes]
        #: ``(interface id, attribute name)`` -> rank
        self._ranks = {(interface.interface_id, attribute.name): rank
                       for rank, (interface, attribute)
                       in enumerate(self._slots)}
        self._versions: List[Optional[Tuple[int, int]]] = \
            [None] * len(self._slots)
        #: rank -> the donor's forms as :func:`_normalized` returns them;
        #: ``None`` while the attribute is not an eligible donor
        self._forms: List[Optional[Dict[str, str]]] = [None] * len(self._slots)
        #: normalised form -> ranks of the donors holding it
        self._holders: Dict[str, Set[int]] = {}
        #: word -> the held forms containing it
        self._postings: Dict[str, Set[str]] = {}
        #: interface id -> how many of its attributes are eligible donors
        self._eligible: Dict[str, int] = {}
        #: normalised label word -> ascending ranks of the labels holding it
        self._label_postings: Dict[str, List[int]] = {}
        #: ``(recipient form, donor form)`` -> ``values_similar`` of the two
        self._similar: Dict[Tuple[str, str], bool] = {}
        for rank, (_, attribute) in enumerate(self._slots):
            for word in label_vector(attribute.label)[0]:
                self._label_postings.setdefault(word, []).append(rank)
            self._update(rank)

    def notify(self, interface_id: str, attribute_name: str) -> None:
        """Re-index that attribute if its instance lists grew."""
        self._update(self._ranks[(interface_id, attribute_name)])

    def _update(self, rank: int) -> None:
        attribute = self._slots[rank][1]
        version = (len(attribute.instances), len(attribute.acquired))
        if version != self._versions[rank]:
            self._versions[rank] = version
            self._reindex(rank, attribute)

    def _reindex(self, rank: int, attribute: Attribute) -> None:
        for norm in self._forms[rank] or ():
            holders = self._holders[norm]
            holders.discard(rank)
            if not holders:
                del self._holders[norm]
                for word in norm.split():
                    self._postings[word].discard(norm)
        forms = None
        if attribute.has_instances or len(attribute.acquired) >= self._k:
            forms = _normalized(attribute.all_instances())
            for norm in forms:
                holders = self._holders.setdefault(norm, set())
                if not holders:
                    for word in norm.split():
                        self._postings.setdefault(word, set()).add(norm)
                holders.add(rank)
        if (forms is None) != (self._forms[rank] is None):
            interface_id = self._slots[rank][0].interface_id
            self._eligible[interface_id] = (
                self._eligible.get(interface_id, 0)
                + (1 if forms is not None else -1))
        self._forms[rank] = forms

    def donors(self, interface: QueryInterface,
               ranks: Optional[Iterable[int]] = None,
               ) -> Iterator[Tuple[int, QueryInterface, Attribute,
                                   Dict[str, str]]]:
        """``(rank, interface, donor, forms)`` for every eligible donor on
        an interface other than ``interface``, by rank; only those among
        ``ranks`` (ascending) when given."""
        for rank in range(len(self._slots)) if ranks is None else ranks:
            other, donor = self._slots[rank]
            forms = self._forms[rank]
            if forms is not None \
                    and other.interface_id != interface.interface_id:
                yield rank, other, donor, forms

    def label_ranks(self, vector: Dict[str, int]) -> List[int]:
        """Ascending ranks of the slots whose labels share a word with a
        :func:`~repro.matching.similarity.label_vector` ``vector``."""
        ranks: Set[int] = set()
        for word in vector:
            ranks.update(self._label_postings.get(word, ()))
        return sorted(ranks)

    def count(self, interface: QueryInterface) -> int:
        """How many donors :meth:`donors` yields for ``interface``."""
        return (sum(self._eligible.values())
                - self._eligible.get(interface.interface_id, 0))

    def tally(self, counts: Dict[str, int]
              ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Score a recipient against every donor at once.

        ``counts`` maps the recipient's forms to their multiplicities (as
        :func:`_form_counts` returns them). Returns, per donor rank, how
        many of those forms the donor holds exactly, and how many recipient
        values have a very similar partner among the donor's forms; donors
        scoring zero are absent."""
        holders = self._holders
        postings = self._postings
        memo = self._similar
        exact: Dict[int, int] = {}
        overlap: Dict[int, int] = {}
        comparisons = 0
        for norm, count in counts.items():
            held_by = holders.get(norm, ())
            for rank in held_by:
                exact[rank] = exact.get(rank, 0) + 1
            candidates = {norm} if held_by else set()
            for word in norm.split():
                candidates.update(postings.get(word, ()))
            comparisons += len(candidates)
            similar: Set[int] = set()
            for candidate in candidates:
                pair = (norm, candidate)
                alike = memo.get(pair)
                if alike is None:
                    alike = memo[pair] = values_similar(norm, candidate)
                if alike:
                    similar.update(holders[candidate])
            for rank in similar:
                overlap[rank] = overlap.get(rank, 0) + count
        if work.ACTIVE is not None:
            work.ACTIVE.bump("donor.value_comparisons", comparisons)
        return exact, overlap
