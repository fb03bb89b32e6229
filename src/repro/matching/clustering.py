"""Constrained average-linkage clustering — the automatic IceQ matcher.

Attributes start as singleton clusters; the pair of clusters with the
highest average pairwise similarity merges, repeatedly, while that average
exceeds the clustering threshold τ. Two clusters may never merge if doing so
would put two attributes of the *same interface* together (an interface
never asks for the same thing twice — the standard cannot-link constraint
for interface matching, and the force that stops merging when τ = 0).

The paper runs the automatic IceQ with τ = 0 ("as long as two attributes
have a positive similarity, they may potentially be matched") and then with
τ = 0.1.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.deepweb.models import QueryInterface
from repro.matching.blocking import BlockingIndex
from repro.matching.similarity import (
    AttributeView,
    SimilarityConfig,
    similarity_components,
)
from repro.obs.provenance import (
    MatchExplanation,
    MergeStep,
    ProvenanceRecorder,
)
from repro.util import counters as work

__all__ = [
    "Cluster",
    "MatchResult",
    "IceQMatcher",
    "agglomerate",
    "views_from_interfaces",
]

AttrKey = Tuple[str, str]

LINKAGES = ("single", "average", "complete")


@dataclass
class Cluster:
    """A group of matching attributes."""

    members: List[AttributeView]

    @property
    def keys(self) -> List[AttrKey]:
        return [m.key for m in self.members]

    @property
    def interfaces(self) -> Set[str]:
        return {m.interface_id for m in self.members}

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class MatchResult:
    """Outcome of one matching run."""

    clusters: List[Cluster]
    threshold: float
    #: the pair count the cost model charges: n(n−1)/2 over the matched
    #: views, the pairwise evaluations a 2006 IceQ performs. The pipeline
    #: charges simulated 2006-hardware time per pair for the Figure 8
    #: overhead account; the blocked matrix scores fewer pairs, counted by
    #: the ``similarity.evaluations`` work counter (DESIGN.md §25)
    similarity_evaluations: int

    def match_pairs(self) -> Set[FrozenSet[AttrKey]]:
        """All unordered attribute pairs placed in the same cluster."""
        pairs: Set[FrozenSet[AttrKey]] = set()
        for cluster in self.clusters:
            for a, b in itertools.combinations(sorted(cluster.keys), 2):
                pairs.add(frozenset((a, b)))
        return pairs


def agglomerate(
    views: Sequence[AttributeView],
    sims: Mapping[Tuple[int, int], float],
    threshold: float,
    linkage: str = "average",
    provenance: Optional[ProvenanceRecorder] = None,
) -> Tuple[List[List[int]], List[MergeStep]]:
    """The one agglomerative merge loop — batch IceQ, the incremental
    registry assimilator (:mod:`repro.registry`) and the interactive
    threshold learner all call exactly this function, so the tie-break
    order ("highest linkage value wins, equal values break toward the
    lowest ``(i, j)``") cannot drift between them.

    ``sims`` maps view-index pairs ``(i, j)`` with ``i < j`` to their
    singleton similarity; an absent pair is 0.0, whether an evaluation
    scored it zero or the blocking index never proposed it. Returns the
    final clusters as sorted member-index lists (ordered by smallest
    member index) plus the committed
    :class:`~repro.obs.provenance.MergeStep` sequence. When
    ``provenance`` is given, each step is also recorded.

    Linkage rows are sparse and the next merge comes off a lazy max-heap
    keyed ``(-value, i, j)``; DESIGN.md §19 argues why that picks exactly
    the pair a full rescan would.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    n = len(views)
    members: List[List[int]] = [[i] for i in range(n)]
    ifaces: List[Set[str]] = [{view.interface_id} for view in views]
    # avg[i][j]: linkage between active clusters i and j, symmetric. Only
    # nonzero values are kept, unless zero pairs can merge (0.0 > τ):
    # then every pair is materialised, exactly as a dense matrix would.
    avg: List[Dict[int, float]] = [{} for _ in range(n)]
    dense = 0.0 > threshold
    if dense:
        for i in range(n):
            for j in range(i + 1, n):
                avg[i][j] = avg[j][i] = sims.get((i, j), 0.0)
    else:
        for (i, j), value in sims.items():
            if value != 0.0:
                avg[i][j] = avg[j][i] = value
    heap = [
        (-value, i, j)
        for i, row in enumerate(avg)
        for j, value in row.items()
        if i < j and value > threshold
    ]
    heapq.heapify(heap)
    seeded = len(heap)
    pops = 0
    steps: List[MergeStep] = []

    while heap:
        key, i, j = heapq.heappop(heap)
        pops += 1
        # Discard stale entries (a side merged away, or the pair's value
        # changed since the push) and cannot-linked pairs. Interface sets
        # only grow, so a cannot-linked pair stays so until one side
        # merges — and that merge pushes fresh entries for it.
        value = avg[i].get(j)
        if value is None or value != -key or not ifaces[i].isdisjoint(ifaces[j]):
            continue
        step = MergeStep(
            step=len(steps),
            linkage_value=value,
            threshold=threshold,
            cluster_a=tuple(views[idx].key for idx in members[i]),
            cluster_b=tuple(views[idx].key for idx in members[j]),
        )
        if provenance is not None:
            provenance.record_merge(step)
        steps.append(step)
        size_i, size_j = len(members[i]), len(members[j])
        row_i, row_j = avg[i], avg[j]
        # Lance-Williams updates: the merged cluster's linkage to every k
        # either side touches; an absent operand is 0.0, and two absent
        # operands give 0.0 under every linkage, so other k stay absent.
        for k in row_i.keys() | row_j.keys():
            if k == i or k == j:
                continue
            sim_ik = row_i.get(k, 0.0)
            sim_jk = row_j.get(k, 0.0)
            if linkage == "single":
                merged = max(sim_ik, sim_jk)
            elif linkage == "complete":
                merged = min(sim_ik, sim_jk)
            else:
                merged = (size_i * sim_ik + size_j * sim_jk) / (
                    size_i + size_j
                )
            row_k = avg[k]
            row_k.pop(j, None)
            if merged == 0.0 and not dense:
                row_i.pop(k, None)
                row_k.pop(i, None)
                continue
            row_i[k] = row_k[i] = merged
            if merged > threshold:
                heapq.heappush(
                    heap, (-merged, i, k) if i < k else (-merged, k, i))
        members[i].extend(members[j])
        ifaces[i] |= ifaces[j]
        members[j] = []
        avg[j] = {}
        row_i.pop(j, None)

    if work.ACTIVE is not None:
        work.ACTIVE.bump("agglomerate.pairs_seeded", seeded)
        work.ACTIVE.bump("agglomerate.heap_pops", pops)
    return [sorted(group) for group in members if group], steps


def views_from_interfaces(interfaces: Sequence[QueryInterface]) -> List[AttributeView]:
    """Build matcher inputs from interfaces (pre-defined + acquired values)."""
    views = []
    for interface in interfaces:
        for attribute in interface.attributes:
            views.append(
                AttributeView(
                    interface_id=interface.interface_id,
                    name=attribute.name,
                    label=attribute.label,
                    instances=tuple(attribute.all_instances()),
                )
            )
    return views


class IceQMatcher:
    """Agglomerative matcher with cannot-link constraints.

    ``linkage`` selects how inter-cluster similarity is computed:

    - ``"average"`` (default): the size-weighted mean over member pairs
      (Lance-Williams update). Wrong cross-concept links get diluted by the
      many zero-similarity member pairs around them, so raising τ from 0 to
      0.1 prunes mostly-wrong merges — the paper's precision mechanism.
    - ``"single"``: the maximum pairwise similarity; permissive, chains
      aggressively (provided as an ablation).
    - ``"complete"``: the minimum over member pairs, most conservative.

    A :class:`~repro.obs.provenance.ProvenanceRecorder` passed as
    ``provenance`` receives one :class:`~repro.obs.provenance.MatchExplanation`
    per attribute pair (LabelSim/DomSim components, the α/β blend, the
    threshold it was compared against) and one
    :class:`~repro.obs.provenance.MergeStep` per committed merge. The
    recorded ``sim`` is the very float the matcher clusters on, so
    explanations recompute exactly; recording changes no decision.
    """

    def __init__(
        self,
        config: SimilarityConfig = SimilarityConfig(),
        linkage: str = "average",
        provenance: Optional[ProvenanceRecorder] = None,
    ) -> None:
        if linkage not in LINKAGES:
            raise ValueError(f"unknown linkage {linkage!r}")
        self.config = config
        self.linkage = linkage
        self.provenance = provenance

    def match(
        self,
        interfaces: Sequence[QueryInterface],
        threshold: float = 0.0,
    ) -> MatchResult:
        """Cluster all attributes of ``interfaces`` at threshold ``τ``.

        Merging continues while the best constraint-respecting pair of
        clusters has average similarity strictly greater than ``threshold``.
        """
        views = views_from_interfaces(interfaces)
        return self.match_views(views, threshold)

    def match_views(
        self,
        views: Sequence[AttributeView],
        threshold: float = 0.0,
    ) -> MatchResult:
        member_lists, _ = agglomerate(
            views,
            self.similarities(views, threshold),
            threshold,
            linkage=self.linkage,
            provenance=self.provenance,
        )
        clusters = [
            Cluster([views[idx] for idx in indices]) for indices in member_lists
        ]
        n = len(views)
        return MatchResult(clusters, threshold, n * (n - 1) // 2)

    def similarities(
        self,
        views: Sequence[AttributeView],
        threshold: float = 0.0,
    ) -> Dict[Tuple[int, int], float]:
        """The nonzero singleton similarities as ``{(i, j): Sim}`` with
        ``i < j``, in ``(i, j)`` order — the sparse input
        :func:`agglomerate` reads (absent = 0.0).

        Views join a :class:`~repro.matching.blocking.BlockingIndex` one
        at a time, each probing the views before it, and only the pairs it
        proposes are evaluated, finished from the overlap the probe
        counted (DESIGN.md §36); every other pair has ``Sim == 0``
        exactly, so the dict equals the one an all-pairs loop builds, key
        order included (DESIGN.md §25). The attached provenance recorder
        still gets one explanation per pair in ``(i, j)`` order: a skipped
        pair is explained by the components an evaluation would have
        produced, ``LabelSim = DomSim = 0.0``.
        """
        n = len(views)
        config = self.config
        provenance = self.provenance
        # partners[i]: flat (j, dot, shared) runs, one per proposed pair
        # (i, j) with j > i; flat, so buffering them allocates no tuples
        partners: List[List[int]] = [[] for _ in views]
        index = BlockingIndex()
        for j, view in enumerate(views):
            features = view.features
            for i, dot, shared in index.probe(features):
                partners[i] += (j, dot, shared)
            index.add(features)
        sims: Dict[Tuple[int, int], float] = {}
        scored: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        for i, row in enumerate(partners):
            view = views[i]
            runs = iter(row)
            for j, dot, shared in zip(runs, runs, runs):
                components = similarity_components(
                    view, views[j], config, overlap=(dot, shared))
                if components[2] != 0.0:
                    sims[(i, j)] = components[2]
                if provenance is not None:
                    scored[(i, j)] = components
        if work.ACTIVE is not None:
            evaluated = sum(len(row) for row in partners) // 3
            work.ACTIVE.bump("similarity.pairs_blocked",
                             n * (n - 1) // 2 - evaluated)
        if provenance is not None:
            # the blend of a skipped pair, with the evaluation's float ops
            skipped = (0.0, 0.0, config.alpha * 0.0 + config.beta * 0.0)
            for i in range(n):
                for j in range(i + 1, n):
                    label_sim, dom_sim, value = scored.get((i, j), skipped)
                    provenance.record_explanation(MatchExplanation(
                        a=views[i].key,
                        b=views[j].key,
                        label_sim=label_sim,
                        dom_sim=dom_sim,
                        alpha=config.alpha,
                        beta=config.beta,
                        sim=value,
                        threshold=threshold,
                    ))
        return sims
