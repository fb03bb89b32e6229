"""The blocking index: which attribute pairs can have a nonzero similarity.

``Sim = α·LabelSim + β·DomSim`` can only be positive when the pair shares
observable evidence, and every kind of evidence the similarity reads is
indexable:

- **label tokens** — ``LabelSim`` is a cosine over the views' label word
  vectors; no shared key means a zero dot product;
- **value signatures** — for non-numeric domains ``DomSim`` is containment
  over ``strip().lower()``-normalised instance values, so a positive
  overlap requires at least one shared value *and* equal inferred types (a
  type mismatch outside the numeric family zeroes the type factor);
- **the numeric family** — two numeric-typed domains compare by range
  overlap, which can be positive without any shared literal value, so all
  numeric-typed attributes share one bucket.

A pair matching none of the three postings therefore has ``Sim == 0``
exactly (DESIGN.md §15), so skipping its evaluation is not an
approximation. Batch IceQ (:meth:`IceQMatcher.similarities
<repro.matching.clustering.IceQMatcher.similarities>`) and the incremental
registry (:mod:`repro.registry.assimilate`) both score only the pairs this
index proposes (DESIGN.md §25).

A :class:`Signature` is read off :attr:`AttributeView.features
<repro.matching.similarity.AttributeView.features>`, the very facts
``similarity_components`` compares, so indexing a view never normalises
its label or infers its type a second time. The index mirrors the postings
idiom of :class:`repro.surfaceweb.index.InvertedIndex`: plain key ->
ascending posting lists, built with ``setdefault``.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.matching.similarity import AttributeView
from repro.matching.types import DomainType
from repro.util import counters as work

__all__ = ["BlockingIndex", "Signature", "candidate_partners"]


class Signature(NamedTuple):
    """Everything the blocking index knows about one attribute view."""

    #: the keys of the view's label word vector
    tokens: FrozenSet[str]
    #: the ``strip().lower()`` instance values
    values: FrozenSet[str]
    #: inferred domain type, or None without instances (DomSim = 0 then)
    domain_type: Optional[DomainType]

    @classmethod
    def of(cls, view: AttributeView) -> "Signature":
        features = view.features
        return cls(frozenset(features.label_vector), features.values,
                   features.domain_type)


class BlockingIndex:
    """Inverted index over indexed views' blocking evidence.

    Candidate generation for a signature unions three posting families:
    shared label token, shared ``(type, value)`` pair, and the all-numeric
    bucket (when the probe is itself numeric). Posting lists hold view ids
    (positions in the order views were added), so candidates come back as
    an ascending id list.
    """

    def __init__(self) -> None:
        self._signatures: List[Signature] = []
        self._by_token: Dict[str, List[int]] = {}
        self._by_value: Dict[Tuple[DomainType, str], List[int]] = {}
        self._numeric: List[int] = []

    def add(self, signature: Signature) -> int:
        """Index one view's signature; returns its view id."""
        view_id = len(self._signatures)
        self._signatures.append(signature)
        for token in signature.tokens:
            self._by_token.setdefault(token, []).append(view_id)
        domain_type = signature.domain_type
        if domain_type is not None:
            if domain_type.is_numeric:
                self._numeric.append(view_id)
            else:
                for value in signature.values:
                    self._by_value.setdefault(
                        (domain_type, value), []).append(view_id)
        return view_id

    def candidates(self, signature: Signature) -> List[int]:
        """Indexed view ids that might have nonzero similarity to the
        view ``signature`` describes.

        Over-generation is allowed (it only costs evaluations); missing a
        pair that full evaluation would score nonzero is the bug the
        soundness suites hunt.
        """
        if work.ACTIVE is not None:
            work.ACTIVE.bump("blocking.probes")
        found: Set[int] = set()
        for token in signature.tokens:
            found.update(self._by_token.get(token, ()))
        domain_type = signature.domain_type
        if domain_type is not None:
            if domain_type.is_numeric:
                found.update(self._numeric)
            else:
                for value in signature.values:
                    found.update(self._by_value.get((domain_type, value), ()))
        return sorted(found)


def candidate_partners(views: Sequence[AttributeView]) -> List[List[int]]:
    """``partners[i]``: the ascending ``j > i`` whose pair ``(i, j)`` the
    index proposes, for every view of ``views`` — same-interface pairs
    included. Views join one at a time, each probing the views before it.
    """
    partners: List[List[int]] = [[] for _ in views]
    index = BlockingIndex()
    for j, view in enumerate(views):
        signature = Signature.of(view)
        for i in index.candidates(signature):
            partners[i].append(j)
        index.add(signature)
    return partners
