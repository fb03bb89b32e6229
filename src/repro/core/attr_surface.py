"""Attr-Surface: borrow instances and validate them via the Surface Web (§3).

To decide whether instance ``b`` of attribute ``B`` is also an instance of
attribute ``A``, WebIQ trains a *validation-based naive Bayes classifier*
for ``A`` — fully automatically:

1. **Training set** ``T``: ``A``'s own instances are positives; instances of
   the *other* attributes on ``A``'s interface are negatives. Each example
   is represented by its validation-score vector (one PMI score per
   validation phrase of ``A``).
2. **Thresholds**: ``T`` is split into ``T1``/``T2``; per-feature thresholds
   ``t_i`` are chosen on ``T1`` by information gain, turning score vectors
   into boolean feature vectors (``f_i = 1`` iff ``m_i > t_i``).
3. **Probabilities**: the thresholded ``T2`` trains a naive Bayes model with
   Laplacean smoothing (paper Figure 5).

Prediction thresholds ``b``'s score vector and takes the Bayes posterior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.surface import SurfaceMemo, WebValidator
from repro.deepweb.models import Attribute, QueryInterface
from repro.stats.entropy import best_threshold
from repro.stats.naive_bayes import BinaryNaiveBayes
from repro.util.errors import ValidationError

__all__ = ["ClassifierConfig", "ValidationClassifier", "AttrSurfaceValidator"]


@dataclass(frozen=True)
class ClassifierConfig:
    """Training-set sizing for the validation-based classifier."""

    #: at most this many positive / negative examples are scored (each costs
    #: validation queries)
    max_positives: int = 4
    max_negatives: int = 4
    #: minimum examples per class to attempt training at all
    min_per_class: int = 2


class ValidationClassifier:
    """The validation-based naive Bayes classifier for one attribute."""

    def __init__(
        self,
        validator: WebValidator,
        phrases: Sequence[str],
        config: ClassifierConfig = ClassifierConfig(),
    ) -> None:
        if not phrases:
            raise ValidationError("classifier needs at least one validation phrase")
        self._validator = validator
        self._phrases = list(phrases)
        self._config = config
        self._thresholds: List[float] = []
        self._model = BinaryNaiveBayes()
        self._trained = False

    @property
    def thresholds(self) -> List[float]:
        return list(self._thresholds)

    @property
    def phrases(self) -> List[str]:
        """The validation phrases the score vectors are computed against."""
        return list(self._phrases)

    @property
    def is_trained(self) -> bool:
        return self._trained

    def train(self, positives: Sequence[str], negatives: Sequence[str]) -> None:
        """Train from instance strings (paper §3.2's three steps).

        The split follows Figure 5: ``T1`` takes the first half of the
        positives and the first half of the negatives, ``T2`` the rest.
        With very few examples the halves would starve one step, so below
        ``2 * min_per_class`` per class the full set serves both steps —
        a documented deviation that only affects degenerate inputs.
        """
        cfg = self._config
        positives = list(positives)[: cfg.max_positives]
        negatives = list(negatives)[: cfg.max_negatives]
        if len(positives) < cfg.min_per_class or len(negatives) < cfg.min_per_class:
            raise ValidationError(
                f"need at least {cfg.min_per_class} examples per class, got "
                f"{len(positives)} positive / {len(negatives)} negative"
            )

        examples: List[Tuple[List[float], bool]] = [
            (self._validator.score_vector(self._phrases, p), True)
            for p in positives
        ] + [
            (self._validator.score_vector(self._phrases, n), False)
            for n in negatives
        ]

        pos = [e for e in examples if e[1]]
        neg = [e for e in examples if not e[1]]
        if len(pos) >= 2 * cfg.min_per_class and len(neg) >= 2 * cfg.min_per_class:
            t1 = pos[: len(pos) // 2] + neg[: len(neg) // 2]
            t2 = pos[len(pos) // 2:] + neg[len(neg) // 2:]
        else:
            t1 = t2 = examples

        # Step 2: per-feature thresholds by information gain on T1.
        self._thresholds = [
            best_threshold([(vector[i], label) for vector, label in t1])
            for i in range(len(self._phrases))
        ]

        # Step 3: threshold T2 and estimate smoothed probabilities.
        self._model = BinaryNaiveBayes()
        self._model.fit([(self._featurize(v), label) for v, label in t2])
        self._trained = True

    def predict(self, candidate: str) -> bool:
        """Is ``candidate`` an instance of the classifier's attribute?"""
        return self.posterior(candidate) > 0.5

    def posterior(self, candidate: str) -> float:
        if not self._trained:
            raise ValidationError("classifier has not been trained")
        vector = self._validator.score_vector(self._phrases, candidate)
        return self._model.posterior_positive(self._featurize(vector))

    def explain(self, candidate: str) -> Tuple[List[float], List[int], float]:
        """``(score_vector, thresholded_features, posterior)`` for a
        candidate — the full evidence behind one prediction.

        Every hit count is memoised in the run's memo, so explaining a
        candidate the classifier already scored reads the memo alone: zero
        queries, and no hit counted (provenance must not move the run's
        cache account).
        """
        if not self._trained:
            raise ValidationError("classifier has not been trained")
        vector = self._validator.recorded_vector(self._phrases, candidate)
        features = self._featurize(vector)
        return vector, features, self._model.posterior_positive(features)

    def _featurize(self, vector: Sequence[float]) -> List[int]:
        # Paper §3.1: f_i = 1 iff m_i > t_i.
        return [
            1 if score > threshold else 0
            for score, threshold in zip(vector, self._thresholds)
        ]


class AttrSurfaceValidator:
    """Validates borrowed instances for an attribute via the Surface Web."""

    def __init__(
        self,
        validator: WebValidator,
        config: ClassifierConfig = ClassifierConfig(),
    ) -> None:
        self._validator = validator
        self._config = config

    def build_classifier(
        self,
        target: Attribute,
        interface: QueryInterface,
        memo: Optional[SurfaceMemo] = None,
    ) -> Optional[ValidationClassifier]:
        """Train the classifier for ``target`` from its own interface.

        Positives are ``target``'s instances; negatives come from the other
        attributes of the same interface (paper Figure 5a). Returns ``None``
        when the interface cannot supply enough examples. ``memo``, when
        given, supplies the label analysis behind the validation phrases.
        """
        positives = target.all_instances()
        negatives: List[str] = []
        for other in interface.attributes:
            if other.name == target.name:
                continue
            negatives.extend(other.all_instances())
        if (
            len(positives) < self._config.min_per_class
            or len(negatives) < self._config.min_per_class
        ):
            return None
        analysis = memo.analysis(target.label) if memo is not None else None
        phrases = self._validator.validation_phrases(target.label, analysis)
        classifier = ValidationClassifier(self._validator, phrases, self._config)
        classifier.train(positives, negatives)
        return classifier

    def validate(
        self,
        classifier: ValidationClassifier,
        borrowed: Sequence[str],
    ) -> List[str]:
        """The borrowed values the classifier accepts, in input order."""
        return [b for b in borrowed if classifier.predict(b)]
