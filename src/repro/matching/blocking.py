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

The postings are the two numerators of ``Sim``, so a probe counts them as
it walks: per candidate, the integer label dot product and the number of
shared ``(type, value)`` keys, which ``similarity_components(...,
overlap=)`` finishes into the very floats a full evaluation computes
(DESIGN.md §36). The index reads :attr:`AttributeView.features
<repro.matching.similarity.AttributeView.features>`, the facts
``similarity_components`` compares, so indexing a view never normalises
its label or infers its type a second time. It mirrors the postings idiom
of :class:`repro.surfaceweb.index.InvertedIndex`: plain key -> ascending
posting lists of view ids, built with ``setdefault``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.matching.similarity import ViewFeatures
from repro.matching.types import DomainType
from repro.util import counters as work

__all__ = ["BlockingIndex"]

#: ``(view id, label dot product, shared (type, value) keys)``
Candidate = Tuple[int, int, int]


class BlockingIndex:
    """Inverted index over indexed views' blocking evidence.

    A probe unions three posting families: shared label token, shared
    ``(type, value)`` pair, and the all-numeric bucket (when the probe is
    itself numeric). Posting lists hold view ids (positions in the order
    views were added), so candidates come back in ascending id order.
    Value postings are kept one dict per type, so no per-value lookup
    hashes a :class:`DomainType`.
    """

    def __init__(self) -> None:
        #: each indexed view's label word counts, by view id
        self._vectors: List[Dict[str, int]] = []
        self._by_token: Dict[str, List[int]] = {}
        self._by_value: Dict[DomainType, Dict[str, List[int]]] = {}
        self._numeric: List[int] = []

    def add(self, features: ViewFeatures) -> int:
        """Index one view's features; returns its view id."""
        view_id = len(self._vectors)
        self._vectors.append(features.label_vector)
        for token in features.label_vector:
            self._by_token.setdefault(token, []).append(view_id)
        domain_type = features.domain_type
        if domain_type is not None:
            if domain_type.is_numeric:
                self._numeric.append(view_id)
            else:
                by_value = self._by_value.setdefault(domain_type, {})
                for value in features.values:
                    by_value.setdefault(value, []).append(view_id)
        return view_id

    def probe(self, features: ViewFeatures) -> List[Candidate]:
        """Indexed views that might have nonzero similarity to the view
        ``features`` describes, ascending by id, as ``(id, dot, shared)``.

        ``dot`` is the integer dot product of the two label word vectors,
        and ``shared`` the number of ``(type, value)`` keys the two views
        share: ``len(values_a & values_b)`` when the types are equal and
        non-numeric, else 0. Over-generation is allowed (it only costs
        evaluations); missing a pair that full evaluation would score
        nonzero is the bug the soundness suites hunt.
        """
        if work.ACTIVE is not None:
            work.ACTIVE.bump("blocking.probes")
        vectors = self._vectors
        by_token = self._by_token
        dots: Dict[int, int] = {}
        for token, count in features.label_vector.items():
            for view_id in by_token.get(token, ()):
                dots[view_id] = (dots.get(view_id, 0)
                                 + count * vectors[view_id][token])
        shared: Dict[int, int] = {}
        domain_type = features.domain_type
        if domain_type is None:
            found = dots.keys()
        elif domain_type.is_numeric:
            found = dots.keys() | self._numeric
        else:
            by_value = self._by_value.get(domain_type, {})
            for value in features.values:
                for view_id in by_value.get(value, ()):
                    shared[view_id] = shared.get(view_id, 0) + 1
            found = dots.keys() | shared.keys()
        return [(view_id, dots.get(view_id, 0), shared.get(view_id, 0))
                for view_id in sorted(found)]
