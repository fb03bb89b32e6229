"""Attribute similarity: ``Sim = alpha·LabelSim + beta·DomSim`` (paper §5).

``LabelSim(A, B) = Cos(vec(A), vec(B))`` over word vectors of the labels,
after light normalisation (lower-casing, de-pluralisation, dropping pure
function words — but *not* prepositions like "from"/"to", which carry the
entire meaning of airfare labels).

``DomSim`` multiplies a type-compatibility factor by a value-overlap factor:
numeric domains compare by range overlap, string/date domains by containment
of normalised values. Attributes without instances have ``DomSim = 0`` —
the root cause of the matching failures WebIQ exists to fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.matching.types import DomainType, infer_type
from repro.stats.outliers import parse_numeric
from repro.text.morphology import singularize
from repro.text.tokenizer import words as word_tokens
from repro.util import counters as work

__all__ = [
    "AttributeView",
    "ViewFeatures",
    "SimilarityConfig",
    "label_similarity",
    "value_similarity",
    "domain_similarity",
    "attribute_similarity",
    "similarity_components",
    "normalize_label_words",
    "label_vector",
    "label_cosine",
    "values_similar",
]

#: Function words dropped from label vectors. Deliberately tiny: "from" and
#: "to" carry the whole meaning of airfare labels and are kept; "on"/"at"
#: are grammatical filler ("Depart on", "Return on") whose overlap would
#: link attributes of *different* date concepts.
_LABEL_STOPWORDS = frozenset({"the", "a", "an", "please", "your", "enter",
                              "select", "choose", "on", "at"})


@dataclass(frozen=True)
class SimilarityConfig:
    """Weights and knobs of the combined similarity (paper: α=.6, β=.4)."""

    alpha: float = 0.6
    beta: float = 0.4
    #: type factor for numeric-family mismatches (integer vs monetary, ...)
    numeric_family_factor: float = 0.6


class ViewFeatures(NamedTuple):
    """Everything :func:`similarity_components` reads of one view.

    Each field is what the reference functions re-derive from the label
    or the instances on every call; computing it once per view leaves
    every float of ``Sim`` unchanged (DESIGN.md §18).
    """

    #: word counts of :func:`normalize_label_words`, in first-seen order
    label_vector: Dict[str, int]
    #: ``math.sqrt`` of the vector's sum of squared counts
    label_norm: float
    #: :func:`infer_type` of the instances, or ``None`` without instances
    domain_type: Optional[DomainType]
    #: parsed ``(min, max)`` for a numeric type with a parseable value
    numeric_range: Optional[Tuple[float, float]]
    #: the ``strip().lower()`` instance values
    values: FrozenSet[str]


@dataclass(frozen=True)
class AttributeView:
    """What the matcher sees of an attribute: identity, label, instances."""

    interface_id: str
    name: str
    label: str
    instances: Tuple[str, ...]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.interface_id, self.name)

    @cached_property
    def features(self) -> ViewFeatures:
        """The view's similarity features, built on first use.

        The cache lives in the instance ``__dict__``, outside the
        dataclass fields, so equality and hashing ignore it; the view is
        frozen, so the fields it was built from never change under it.
        """
        if work.ACTIVE is not None:
            work.ACTIVE.bump("similarity.feature_builds")
        vector, norm = label_vector(self.label)
        domain_type = infer_type(self.instances) if self.instances else None
        numeric_range = None
        if domain_type is not None and domain_type.is_numeric:
            numeric_range = _numeric_range(self.instances)
        values = frozenset(v.strip().lower() for v in self.instances)
        return ViewFeatures(vector, norm, domain_type, numeric_range, values)


def normalize_label_words(label: str) -> List[str]:
    """Lower-cased, de-pluralised, stopword-filtered words of a label.

    >>> normalize_label_words("Departure Cities")
    ['departure', 'city']
    """
    out = []
    for word in word_tokens(label):
        low = singularize(word.lower())
        if low not in _LABEL_STOPWORDS:
            out.append(low)
    return out


def label_vector(label: str) -> Tuple[Dict[str, int], float]:
    """A label's word-count vector and its norm, as :func:`label_similarity`
    builds them; :func:`label_cosine` of two of these equals
    :func:`label_similarity` of the labels bit for bit.

    >>> label_vector("From city to city")
    ({'from': 1, 'city': 2, 'to': 1}, 2.449489742783178)
    """
    vector: Dict[str, int] = {}
    for w in normalize_label_words(label):
        vector[w] = vector.get(w, 0) + 1
    return vector, math.sqrt(sum(v * v for v in vector.values()))


def label_cosine(vec_a: Dict[str, int], norm_a: float,
                 vec_b: Dict[str, int], norm_b: float) -> float:
    """Cosine of two :func:`label_vector` results; 0 if either is empty."""
    if not vec_a or not vec_b:
        return 0.0
    dot = sum(vec_a[w] * vec_b.get(w, 0) for w in vec_a)
    return dot / (norm_a * norm_b)


def label_similarity(label_a: str, label_b: str) -> float:
    """Cosine similarity of two labels' word vectors.

    >>> round(label_similarity("From city", "Departure city"), 3)
    0.5
    >>> label_similarity("Airline", "Carrier")
    0.0
    """
    words_a = normalize_label_words(label_a)
    words_b = normalize_label_words(label_b)
    if not words_a or not words_b:
        return 0.0
    vec_a: Dict[str, int] = {}
    vec_b: Dict[str, int] = {}
    for w in words_a:
        vec_a[w] = vec_a.get(w, 0) + 1
    for w in words_b:
        vec_b[w] = vec_b.get(w, 0) + 1
    dot = sum(vec_a[w] * vec_b.get(w, 0) for w in vec_a)
    norm = math.sqrt(sum(v * v for v in vec_a.values())) * math.sqrt(
        sum(v * v for v in vec_b.values())
    )
    return dot / norm if norm else 0.0


def values_similar(value_a: str, value_b: str) -> bool:
    """Are two instance values "very similar" (paper §5, case 2)?

    Case-insensitive equality, or a word-level Jaccard of at least 0.5
    ("Delta Air Lines" ~ "Delta Airlines" fails, but "United Airlines" ~
    "United" passes via the 0.5 overlap rule).
    """
    a = value_a.strip().lower()
    b = value_b.strip().lower()
    if a == b:
        return True
    set_a = set(a.split())
    set_b = set(b.split())
    if not set_a or not set_b:
        return False
    union = set_a | set_b
    return len(set_a & set_b) / len(union) >= 0.5


def value_similarity(values_a: Sequence[str], values_b: Sequence[str]) -> float:
    """Containment overlap of two string-domain instance sets in [0, 1].

    ``|A ∩ B| / min(|A|, |B|)`` with case-insensitive matching; containment
    (rather than Jaccard) because interfaces expose different-sized samples
    of the same underlying domain.
    """
    if not values_a or not values_b:
        return 0.0
    set_a = {v.strip().lower() for v in values_a}
    set_b = {v.strip().lower() for v in values_b}
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def _numeric_range(values: Sequence[str]) -> Optional[Tuple[float, float]]:
    numbers = []
    for value in values:
        try:
            numbers.append(parse_numeric(value))
        except ValueError:
            continue
    if not numbers:
        return None
    return (min(numbers), max(numbers))


def _range_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if hi < lo:
        return 0.0
    span = max(a[1], b[1]) - min(a[0], b[0])
    if span == 0:
        return 1.0  # both ranges are the same single point
    return (hi - lo) / span


def domain_similarity(
    values_a: Sequence[str],
    values_b: Sequence[str],
    config: SimilarityConfig = SimilarityConfig(),
) -> float:
    """DomSim: type compatibility times value overlap; 0 without instances."""
    if not values_a or not values_b:
        return 0.0
    type_a = infer_type(values_a)
    type_b = infer_type(values_b)
    if type_a is type_b:
        type_factor = 1.0
    elif type_a.is_numeric and type_b.is_numeric:
        type_factor = config.numeric_family_factor
    else:
        return 0.0
    if type_a.is_numeric and type_b.is_numeric:
        range_a = _numeric_range(values_a)
        range_b = _numeric_range(values_b)
        if range_a is None or range_b is None:
            return 0.0
        return type_factor * _range_overlap(range_a, range_b)
    return type_factor * value_similarity(values_a, values_b)


def similarity_components(
    a: AttributeView,
    b: AttributeView,
    config: SimilarityConfig = SimilarityConfig(),
    overlap: Optional[Tuple[int, int]] = None,
) -> Tuple[float, float, float]:
    """``(LabelSim, DomSim, Sim)`` with the blend computed exactly as
    :func:`attribute_similarity` computes it — provenance records built
    from these components recompute to the matcher's ``Sim`` bit for bit.

    ``overlap`` is the pair's ``(dot, shared)`` as a
    :meth:`BlockingIndex.probe <repro.matching.blocking.BlockingIndex.probe>`
    counts them: the label dot product and the number of shared
    ``(type, value)`` keys. Given, they replace the label-vector walk and
    the value-set intersection; every float stays the same (DESIGN.md §36).
    """
    if work.ACTIVE is not None:
        work.ACTIVE.bump("similarity.evaluations")
    fa = a.features
    fb = b.features
    if overlap is None:
        label_sim = label_cosine(fa.label_vector, fa.label_norm,
                                 fb.label_vector, fb.label_norm)
        dom_sim = _feature_domain_similarity(fa, fb, config)
    else:
        dot, shared = overlap
        label_sim = dot / (fa.label_norm * fb.label_norm) if dot else 0.0
        range_a = fa.numeric_range
        range_b = fb.numeric_range
        if shared:
            # a shared (type, value) key means equal non-numeric types,
            # whose type factor is 1.0, and 1.0 * x is x
            dom_sim = shared / min(len(fa.values), len(fb.values))
        elif range_a is None or range_b is None:
            dom_sim = 0.0
        else:
            # two ranges mean two numeric types: the family's factor
            type_factor = (1.0 if fa.domain_type is fb.domain_type
                           else config.numeric_family_factor)
            dom_sim = type_factor * _range_overlap(range_a, range_b)
    return label_sim, dom_sim, config.alpha * label_sim + config.beta * dom_sim


def _feature_domain_similarity(fa: ViewFeatures, fb: ViewFeatures,
                               config: SimilarityConfig) -> float:
    """:func:`domain_similarity` over precomputed features, same float ops."""
    type_a = fa.domain_type
    type_b = fb.domain_type
    if type_a is None or type_b is None:
        return 0.0
    if type_a is type_b:
        type_factor = 1.0
    elif type_a.is_numeric and type_b.is_numeric:
        type_factor = config.numeric_family_factor
    else:
        return 0.0
    if type_a.is_numeric and type_b.is_numeric:
        if fa.numeric_range is None or fb.numeric_range is None:
            return 0.0
        return type_factor * _range_overlap(fa.numeric_range, fb.numeric_range)
    values_a = fa.values
    values_b = fb.values
    return type_factor * (
        len(values_a & values_b) / min(len(values_a), len(values_b))
    )


def attribute_similarity(
    a: AttributeView,
    b: AttributeView,
    config: SimilarityConfig = SimilarityConfig(),
) -> float:
    """``Sim(A,B) = α·LabelSim + β·DomSim`` (paper's α=.6, β=.4 defaults)."""
    return similarity_components(a, b, config)[2]
