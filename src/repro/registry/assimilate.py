"""Incremental assimilation: one interface joins the registry at a time.

A :meth:`RegistryAssimilator.assimilate` call does two things:

1. **Block** — the new interface's views query the
   :class:`~repro.matching.blocking.BlockingIndex` over all registered
   views (the index batch IceQ uses too); only the candidate pairs get
   :func:`~repro.matching.similarity.similarity_components`, finished
   from the overlap counts the probe hands over (DESIGN.md §36). Skipped
   pairs are charged to the :class:`~repro.registry.blocking.BlockingStats`
   ledger. Pairs *within* the new interface are never evaluated at all:
   the cannot-link constraint makes same-interface similarities
   unreachable by any merge decision (DESIGN.md §15 gives the induction).
2. **Cache** — nonzero similarities join the store's sparse cache, keyed
   by canonical attr-key pair, so they are never recomputed.

The matching itself is derived on demand, never stored:

3. **Induce** — :func:`induced_clusters` runs the *same*
   :func:`repro.matching.clustering.agglomerate` the batch IceQ matcher
   runs, over the canonical view order (interfaces sorted by id), reading
   similarities from the sparse cache (absent = 0.0). One shared merge
   loop means one tie-break order — incremental assimilation cannot
   drift from batch.
4. **Unify** — :func:`induced_entries` (behind
   :attr:`RegistryStore.entries <repro.registry.store.RegistryStore.entries>`)
   turns each induced cluster into a
   :class:`~repro.registry.store.RegistryEntry` via
   :func:`repro.matching.unify.unify_cluster`, carrying the
   :class:`~repro.obs.provenance.MergeStep` links that assembled it.

Because the canonical order and the cached similarities are independent
of arrival order, the induced matching after assimilating any permutation
of an interface set equals batch IceQ over that set, byte for byte — the
headline guarantee ``tests/test_registry_equivalence.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deepweb.models import QueryInterface
from repro.matching.blocking import BlockingIndex
from repro.matching.clustering import (
    Cluster,
    IceQMatcher,
    LINKAGES,
    agglomerate,
    views_from_interfaces,
)
from repro.matching.similarity import AttributeView, similarity_components
from repro.matching.unify import unify_cluster
from repro.obs.provenance import MergeStep
from repro.registry.blocking import AddRecord
from repro.registry.store import RegistryEntry, RegistryLock, RegistryStore
from repro.util.errors import RegistryMismatchError, ValidationError

__all__ = [
    "RegistryAssimilator",
    "RegistryReport",
    "batch_induced_clusters",
    "build_registry",
    "induced_entries",
]

AttrKey = Tuple[str, str]


@dataclass(frozen=True)
class RegistryReport:
    """Summary of a registry attached to a pipeline run (never exported —
    run payloads are byte-identical with and without a registry)."""

    domain: str
    n_interfaces: int
    n_views: int
    n_entries: int
    #: the induced matching: clusters in merge-loop order, member keys sorted
    induced: Tuple[Tuple[AttrKey, ...], ...]
    #: the cumulative blocking ledger (one AddRecord per assimilation)
    adds: Tuple[AddRecord, ...]
    directory: Optional[str] = None

    @property
    def evaluated(self) -> int:
        return sum(record.evaluated for record in self.adds)

    @property
    def blocked(self) -> int:
        return sum(record.blocked for record in self.adds)

    @property
    def pairs_considered(self) -> int:
        return sum(record.pairs_considered for record in self.adds)


def _canonical_sims(
    store: RegistryStore, views: Sequence[AttributeView]
) -> Dict[Tuple[int, int], float]:
    """The store's sparse similarity cache re-keyed onto ``views``'
    indices (``(i, j)`` with ``i < j``), the input :func:`agglomerate`
    reads. One pass over the cached pairs: O(nnz), not O(n²)."""
    position = {view.key: index for index, view in enumerate(views)}
    sims: Dict[Tuple[int, int], float] = {}
    for (a, b), value in store.sims.items():
        i, j = position[a], position[b]
        sims[(i, j) if i < j else (j, i)] = value
    return sims


def _agglomerate(store: RegistryStore):
    """The one merge loop behind the registry's induced matching:
    ``(views, member_lists, steps)`` over the canonical view order."""
    views = store.canonical_views()
    member_lists, steps = agglomerate(
        views,
        _canonical_sims(store, views),
        store.threshold,
        linkage=store.linkage,
    )
    return views, member_lists, steps


def induced_clusters(store: RegistryStore) -> Tuple[Tuple[Tuple[AttrKey, ...], ...], list]:
    """The registry's induced matching over the canonical view order.

    Returns ``(clusters, merge_steps)`` where clusters are tuples of
    sorted member keys, ordered by smallest member index — exactly the
    shape (and order) batch IceQ produces over id-sorted interfaces.
    """
    views, member_lists, steps = _agglomerate(store)
    clusters = tuple(
        tuple(sorted(views[idx].key for idx in indices))
        for indices in member_lists
    )
    return clusters, steps


def induced_entries(store: RegistryStore) -> List[RegistryEntry]:
    """The registry's canonical attributes, derived from its interfaces
    and similarity cache: each induced cluster unified, carrying the
    merge steps that assembled it. Backs :attr:`RegistryStore.entries`.
    """
    views, member_lists, steps = _agglomerate(store)
    # Every committed step ends inside exactly one final cluster:
    # attribute each once, through any key it merged.
    cluster_of = {
        views[idx].key: position
        for position, indices in enumerate(member_lists)
        for idx in indices
    }
    merges: List[List[MergeStep]] = [[] for _ in member_lists]
    for step in steps:
        merges[cluster_of[step.cluster_a[0]]].append(step)
    entries: List[RegistryEntry] = []
    for position, indices in enumerate(member_lists):
        cluster = Cluster([views[idx] for idx in indices])
        unified = unify_cluster(cluster, len(cluster.interfaces))
        entries.append(RegistryEntry(
            cluster_id=f"c{position:04d}",
            label=unified.label,
            instances=unified.instances,
            coverage=unified.coverage,
            members=unified.members,
            interfaces=tuple(sorted(cluster.interfaces)),
            label_votes=unified.label_votes,
            merges=tuple(merges[position]),
        ))
    return entries


def batch_induced_clusters(
    store: RegistryStore,
) -> Tuple[Tuple[AttrKey, ...], ...]:
    """Batch IceQ over the same views: one :class:`IceQMatcher` pass over
    the canonical view order, scoring the pairs the shared blocking index
    proposes (DESIGN.md §25).

    Used by the equivalence suite, the ``registry-batch-equivalence``
    invariant and the ``registry batch`` CLI path; must equal
    :func:`induced_clusters` on every store the assimilator can produce.
    It shares the blocking index with the assimilator, so the oracle
    independent of blocking is the tests' all-pairs evaluation.
    """
    matcher = IceQMatcher(config=store.similarity, linkage=store.linkage)
    result = matcher.match_views(store.canonical_views(), store.threshold)
    return tuple(
        tuple(sorted(cluster.keys)) for cluster in result.clusters
    )


class RegistryAssimilator:
    """Feeds interfaces into a :class:`RegistryStore` one at a time."""

    def __init__(self, store: RegistryStore) -> None:
        if store.linkage not in LINKAGES:
            raise ValidationError(f"unknown linkage {store.linkage!r}")
        self.store = store
        self._index = BlockingIndex()
        self._registered: List[AttributeView] = []
        self._ids = set(store.interface_ids())
        for view in store.registered_views():
            self._index.add(view.features)
            self._registered.append(view)

    def assimilate(self, interface: QueryInterface) -> AddRecord:
        """Absorb one interface; returns its blocking-ledger line."""
        store = self.store
        if interface.domain != store.domain:
            raise RegistryMismatchError(
                f"registry holds domain {store.domain!r}; interface "
                f"{interface.interface_id!r} is domain {interface.domain!r}"
            )
        if interface.interface_id in self._ids:
            raise RegistryMismatchError(
                f"interface {interface.interface_id!r} is already "
                "assimilated"
            )
        new_views = views_from_interfaces([interface])

        evaluated = 0
        existing = len(self._registered)
        for view in new_views:
            key = view.key
            for view_id, dot, shared in self._index.probe(view.features):
                other = self._registered[view_id]
                _, _, value = similarity_components(
                    other, view, store.similarity, overlap=(dot, shared))
                evaluated += 1
                if value != 0.0:
                    other_key = other.key
                    store.sims[(key, other_key) if key < other_key
                               else (other_key, key)] = value

        record = AddRecord(
            interface_id=interface.interface_id,
            new_views=len(new_views),
            existing_views=existing,
            evaluated=evaluated,
            blocked=len(new_views) * existing - evaluated,
        )
        store.stats.record(record)
        store.interfaces.append((interface.interface_id, new_views))
        self._ids.add(interface.interface_id)
        for view in new_views:
            self._index.add(view.features)
            self._registered.append(view)
        return record

    def report(self, directory: Optional[str] = None) -> RegistryReport:
        store = self.store
        clusters, _ = induced_clusters(store)
        return RegistryReport(
            domain=store.domain,
            n_interfaces=len(store.interfaces),
            n_views=store.n_views,
            n_entries=len(clusters),
            induced=clusters,
            adds=tuple(store.stats.adds),
            directory=directory,
        )


def build_registry(
    domain: str,
    interfaces: Sequence[QueryInterface],
    *,
    threshold: float = 0.0,
    linkage: str = "average",
    store: Optional[RegistryStore] = None,
    directory: Optional[str] = None,
) -> Tuple[RegistryStore, RegistryReport]:
    """Assimilate ``interfaces`` one at a time (in the given arrival
    order) into a fresh or existing store; optionally persist after every
    add so a crash loses at most the in-flight interface.

    When persisting, the whole build holds the directory's
    :class:`~repro.registry.store.RegistryLock` — a concurrent writer gets
    :class:`~repro.util.errors.RegistryLockedError` instead of a lost
    update."""
    if store is None:
        store = RegistryStore(domain=domain, threshold=threshold,
                              linkage=linkage)
    assimilator = RegistryAssimilator(store)
    if directory is None:
        for interface in interfaces:
            assimilator.assimilate(interface)
        return store, assimilator.report(directory)
    with RegistryLock(directory, owner="build_registry"):
        for interface in interfaces:
            assimilator.assimilate(interface)
            store.save(directory)
        if not interfaces:
            store.save(directory)
    return store, assimilator.report(directory)
