"""Decision provenance: why every instance and every match exists.

The trace (:mod:`repro.obs.trace`) records what the pipeline *did* on
the Web — calls, round trips, retries. This module records what it
*decided* and why, which is the evidence the paper's evaluation reasons
about (Figures 6–8, Table 1) and the substance an operator needs to audit
a match:

- an :class:`InstanceLineage` for every instance that enters the final
  result — which phase produced it (Surface / Attr-Deep / Attr-Surface),
  the extraction query and snippet that surfaced it, the donor attribute
  it was borrowed from, the PMI validation vector or naive-Bayes posterior
  that admitted it, or the Deep-Web probe verdict that vouched for it;
- a :class:`PruneEvent` for every candidate the pipeline rejected, naming
  the stage and — for discordancy outliers — the test statistic that
  drove the rejection;
- a :class:`MatchExplanation` for every pairwise similarity evaluation
  the matcher performed: the LabelSim and DomSim component scores, the
  α/β blend, and the threshold τ the blend was compared against;
- a :class:`MergeStep` for every cluster merge the matcher committed, so
  the step that put two attributes in the same cluster can be replayed.

Every record is an immutable dataclass; the recorder is a bounded ring
buffer (:data:`DEFAULT_PROVENANCE_CAPACITY` records per category) so an
arbitrarily large run cannot exhaust memory — overflow drops the oldest
records and counts the drops, and the
:class:`~repro.obs.invariants.InvariantChecker` only asserts the exact
per-attribute conservation laws while nothing has been dropped.

Recording is strictly read-only: every score a record carries is either
the value the pipeline already computed or a recomputation through the
same memoised caches (zero extra search-engine traffic), so a run with
provenance enabled is payload-bit-identical to one without.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "DEFAULT_PROVENANCE_CAPACITY",
    "ValidationEvidence",
    "ProbeVerdict",
    "InstanceLineage",
    "PruneEvent",
    "DiscoverySummary",
    "MatchExplanation",
    "MergeStep",
    "ThresholdSearchRecord",
    "ProvenanceRecorder",
]

#: Ring-buffer bound per record category. Generous: a 20-interface domain
#: produces a few thousand lineage/prune records and ~13k explanations,
#: an order of magnitude under the cap — but a runaway workload hits the
#: cap instead of exhausting memory.
DEFAULT_PROVENANCE_CAPACITY = 200_000

#: Phase labels carried by lineage records.
PHASE_SURFACE = "surface"
PHASE_ATTR_DEEP = "attr_deep"
PHASE_ATTR_SURFACE = "attr_surface"

#: Prune stages of the Surface pipeline, in execution order.
PRUNE_STAGES = ("type_filter", "outlier", "cap", "validation", "top_k")

AttrKey = Tuple[str, str]


@dataclass(frozen=True)
class ValidationEvidence:
    """The PMI feature vector that scored one candidate.

    ``scores[i]`` is the candidate's PMI against ``phrases[i]``; ``score``
    is the aggregate (mean PMI for Surface validation, the naive-Bayes
    posterior for Attr-Surface).
    """

    phrases: Tuple[str, ...]
    scores: Tuple[float, ...]
    score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phrases": list(self.phrases),
            "scores": list(self.scores),
            "score": self.score,
        }


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of the Deep-Web probing that admitted a borrowed set."""

    successes: int
    sampled: int
    probes_issued: int
    accept_ratio: float
    accepted: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "successes": self.successes,
            "sampled": self.sampled,
            "probes_issued": self.probes_issued,
            "accept_ratio": self.accept_ratio,
            "accepted": self.accepted,
        }


@dataclass(frozen=True)
class InstanceLineage:
    """Full lineage of one instance that entered the final result."""

    interface_id: str
    attribute: str
    value: str
    #: which acquisition phase produced the instance
    phase: str
    #: Surface only: the extraction pattern/query/snippet that first
    #: surfaced the candidate
    extraction_pattern: Optional[str] = None
    extraction_query: Optional[str] = None
    snippet_id: Optional[int] = None
    #: Surface: the mean-PMI validation evidence; Attr-Surface: the PMI
    #: vector the classifier thresholded
    validation: Optional[ValidationEvidence] = None
    #: Attr-Surface only: thresholded boolean features and the posterior
    features: Optional[Tuple[int, ...]] = None
    posterior: Optional[float] = None
    #: borrowing phases only: the attribute the value was borrowed from
    donor: Optional[AttrKey] = None
    #: Attr-Deep only: the probing verdict that admitted the donor's set
    probe: Optional[ProbeVerdict] = None

    @property
    def key(self) -> AttrKey:
        return (self.interface_id, self.attribute)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interface_id": self.interface_id,
            "attribute": self.attribute,
            "value": self.value,
            "phase": self.phase,
            "extraction_pattern": self.extraction_pattern,
            "extraction_query": self.extraction_query,
            "snippet_id": self.snippet_id,
            "validation": (
                self.validation.to_dict()
                if self.validation is not None else None
            ),
            "features": (
                list(self.features) if self.features is not None else None
            ),
            "posterior": self.posterior,
            "donor": list(self.donor) if self.donor is not None else None,
            "probe": self.probe.to_dict() if self.probe is not None else None,
        }


@dataclass(frozen=True)
class PruneEvent:
    """One candidate the Surface pipeline rejected, and why."""

    interface_id: str
    attribute: str
    value: str
    #: one of :data:`PRUNE_STAGES`
    stage: str
    #: discordancy outliers: the test statistic that drove the rejection
    statistic: Optional[str] = None
    #: how many standard deviations from the candidate-set mean
    deviation_sigmas: Optional[float] = None
    #: validation/top-k prunes: the score that fell short
    score: Optional[float] = None

    @property
    def key(self) -> AttrKey:
        return (self.interface_id, self.attribute)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interface_id": self.interface_id,
            "attribute": self.attribute,
            "value": self.value,
            "stage": self.stage,
            "statistic": self.statistic,
            "deviation_sigmas": self.deviation_sigmas,
            "score": self.score,
        }


@dataclass(frozen=True)
class DiscoverySummary:
    """Surface discovery totals for one attribute (the prune-law anchor)."""

    interface_id: str
    attribute: str
    #: distinct candidates extraction surfaced
    discovered: int
    #: instances that survived every pruning stage
    kept: int
    numeric_domain: bool

    @property
    def key(self) -> AttrKey:
        return (self.interface_id, self.attribute)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interface_id": self.interface_id,
            "attribute": self.attribute,
            "discovered": self.discovered,
            "kept": self.kept,
            "numeric_domain": self.numeric_domain,
        }


@dataclass(frozen=True)
class MatchExplanation:
    """One pairwise similarity evaluation, decomposed.

    ``sim`` is exactly ``alpha * label_sim + beta * dom_sim`` — the
    acceptance tests recompute the blend and require float equality.
    """

    a: AttrKey
    b: AttrKey
    label_sim: float
    dom_sim: float
    alpha: float
    beta: float
    sim: float
    #: the clustering threshold τ the run compared ``sim`` against
    threshold: float

    @property
    def exceeds_threshold(self) -> bool:
        """May this pair (as singletons) ever merge at the run's τ?"""
        return self.sim > self.threshold

    @property
    def margin(self) -> float:
        """Distance from the threshold — small means a hard decision."""
        return abs(self.sim - self.threshold)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "label_sim": self.label_sim,
            "dom_sim": self.dom_sim,
            "alpha": self.alpha,
            "beta": self.beta,
            "sim": self.sim,
            "threshold": self.threshold,
            "exceeds_threshold": self.exceeds_threshold,
        }


@dataclass(frozen=True)
class MergeStep:
    """One committed cluster merge, with membership at merge time."""

    step: int
    linkage_value: float
    threshold: float
    cluster_a: Tuple[AttrKey, ...]
    cluster_b: Tuple[AttrKey, ...]

    def commits(self, x: AttrKey, y: AttrKey) -> bool:
        """Did this step first put ``x`` and ``y`` in the same cluster?"""
        return (x in self.cluster_a and y in self.cluster_b) or (
            y in self.cluster_a and x in self.cluster_b
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "linkage_value": self.linkage_value,
            "threshold": self.threshold,
            "cluster_a": sorted(list(k) for k in self.cluster_a),
            "cluster_b": sorted(list(k) for k in self.cluster_b),
        }


@dataclass(frozen=True)
class ThresholdSearchRecord:
    """Outcome of one automatic τ grid search (:mod:`repro.matching.threshold`)."""

    grid: Tuple[float, ...]
    f1_by_threshold: Tuple[float, ...]
    chosen: float
    best_f1: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "grid": list(self.grid),
            "f1_by_threshold": list(self.f1_by_threshold),
            "chosen": self.chosen,
            "best_f1": self.best_f1,
        }


class _RingBuffer:
    """Append-only deque that counts what the capacity bound dropped."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("provenance capacity must be at least 1")
        self._items: Deque[Any] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, item: Any) -> None:
        if len(self._items) == self._items.maxlen:
            self.dropped += 1
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


class ProvenanceRecorder:
    """Collects one run's decision records into bounded ring buffers.

    The *subject scope* mirrors :meth:`Observability.component
    <repro.obs.instrument.Observability.component>`: the acquirer enters
    ``subject(interface_id, attribute)`` around each component call, so
    the Surface discoverer can record without threading identity through
    every internal method. Recording while suspended (see
    :meth:`suspended`) is a no-op — the automatic threshold search uses
    this so its grid of exploratory matching runs does not flood the
    explanation buffer that the invariant laws tie to the *final* match.
    """

    def __init__(self, capacity: int = DEFAULT_PROVENANCE_CAPACITY) -> None:
        self.capacity = capacity
        self._lineage = _RingBuffer(capacity)
        self._prunes = _RingBuffer(capacity)
        self._explanations = _RingBuffer(capacity)
        self._merges = _RingBuffer(capacity)
        self._discoveries = _RingBuffer(capacity)
        self._threshold_searches: List[ThresholdSearchRecord] = []
        self._subjects: List[AttrKey] = []
        self._suspended = 0

    # ------------------------------------------------------------- scoping
    @contextmanager
    def subject(self, interface_id: str, attribute: str) -> Iterator[None]:
        """Attribute records made inside the block to one attribute."""
        self._subjects.append((interface_id, attribute))
        try:
            yield
        finally:
            self._subjects.pop()

    @property
    def active_subject(self) -> AttrKey:
        return self._subjects[-1] if self._subjects else ("", "")

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Drop every record made inside the block (exploratory work)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    @property
    def recording(self) -> bool:
        return self._suspended == 0

    # ----------------------------------------------------------- recording
    def record_lineage(self, lineage: InstanceLineage) -> None:
        if self.recording:
            self._lineage.append(lineage)

    def record_prune(self, prune: PruneEvent) -> None:
        if self.recording:
            self._prunes.append(prune)

    def record_discovery(self, summary: DiscoverySummary) -> None:
        if self.recording:
            self._discoveries.append(summary)

    def record_explanation(self, explanation: MatchExplanation) -> None:
        if self.recording:
            self._explanations.append(explanation)

    def record_merge(self, merge: MergeStep) -> None:
        if self.recording:
            self._merges.append(merge)

    def record_threshold_search(self, record: ThresholdSearchRecord) -> None:
        if self.recording:
            self._threshold_searches.append(record)

    # ------------------------------------------------------------- queries
    @property
    def lineage(self) -> List[InstanceLineage]:
        return list(self._lineage)

    @property
    def prunes(self) -> List[PruneEvent]:
        return list(self._prunes)

    @property
    def discoveries(self) -> List[DiscoverySummary]:
        return list(self._discoveries)

    @property
    def explanations(self) -> List[MatchExplanation]:
        return list(self._explanations)

    @property
    def merges(self) -> List[MergeStep]:
        return list(self._merges)

    @property
    def threshold_searches(self) -> List[ThresholdSearchRecord]:
        return list(self._threshold_searches)

    @property
    def dropped(self) -> Dict[str, int]:
        """Records each ring buffer's bound discarded (all 0 normally)."""
        return {
            "lineage": self._lineage.dropped,
            "prunes": self._prunes.dropped,
            "discoveries": self._discoveries.dropped,
            "explanations": self._explanations.dropped,
            "merges": self._merges.dropped,
        }

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def lineage_for(self, interface_id: str,
                    attribute: Optional[str] = None) -> List[InstanceLineage]:
        """Lineage records of one interface (optionally one attribute)."""
        return [
            record for record in self._lineage
            if record.interface_id == interface_id
            and (attribute is None or record.attribute == attribute)
        ]

    def prunes_for(self, interface_id: str,
                   attribute: Optional[str] = None) -> List[PruneEvent]:
        return [
            record for record in self._prunes
            if record.interface_id == interface_id
            and (attribute is None or record.attribute == attribute)
        ]

    def explanations_involving(self, needle: str) -> List[MatchExplanation]:
        """Explanations touching any attribute whose name contains ``needle``
        (case-insensitive; matches the attribute name or interface id)."""
        low = needle.lower()

        def hit(key: AttrKey) -> bool:
            return low in key[0].lower() or low in key[1].lower()

        return [
            explanation for explanation in self._explanations
            if hit(explanation.a) or hit(explanation.b)
        ]

    def committing_merge(self, a: AttrKey, b: AttrKey) -> Optional[MergeStep]:
        """The merge step that first put ``a`` and ``b`` together."""
        for merge in self._merges:
            if merge.commits(a, b):
                return merge
        return None

    # -------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot (insertion order, deterministic)."""
        return {
            "version": 1,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "lineage": [record.to_dict() for record in self._lineage],
            "prunes": [record.to_dict() for record in self._prunes],
            "discoveries": [
                record.to_dict() for record in self._discoveries
            ],
            "explanations": [
                record.to_dict() for record in self._explanations
            ],
            "merges": [record.to_dict() for record in self._merges],
            "threshold_searches": [
                record.to_dict() for record in self._threshold_searches
            ],
        }

    def summary(self) -> str:
        """One CLI-ready line, mirroring the other layers' summaries."""
        line = (
            f"provenance: {len(self._lineage)} lineage, "
            f"{len(self._prunes)} prunes, "
            f"{len(self._explanations)} explanations, "
            f"{len(self._merges)} merges"
        )
        if self.total_dropped:
            line += f" ({self.total_dropped} dropped at capacity)"
        return line
