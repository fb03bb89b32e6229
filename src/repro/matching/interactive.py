"""Interactive threshold learning — the full IceQ's user-in-the-loop mode.

The paper runs "only the automatic version of IceQ" with a manually set
threshold, noting that "during the clustering process IceQ can also
interact with the user to automatically learn a thresholding value". This
module implements that interactive mode against a pluggable oracle:

1. run the agglomerative clustering once, recording the similarity of every
   merge it performs;
2. select the most *informative* merges — those whose similarities bracket
   the current threshold estimate (binary search over the sorted merge
   similarities);
3. ask the oracle whether each selected merge was correct (a user would
   eyeball the two attribute groups; tests use the ground truth);
4. place τ between the lowest similarity of an approved merge and the
   highest similarity of a rejected one.

The question budget is logarithmic in the number of merges, mirroring the
paper's claim that a little interaction suffices to set τ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.matching.clustering import Cluster, IceQMatcher, agglomerate
from repro.matching.similarity import AttributeView

__all__ = ["MergeQuestion", "InteractiveThresholdLearner", "truth_oracle"]

AttrKey = Tuple[str, str]
Pair = FrozenSet[AttrKey]

#: An oracle answers: "do these two attribute groups describe the same
#: thing?" — True for a correct merge.
Oracle = Callable[[Cluster, Cluster], bool]


@dataclass(frozen=True)
class MergeQuestion:
    """One question asked during learning, for audit/inspection."""

    similarity: float
    left_labels: Tuple[str, ...]
    right_labels: Tuple[str, ...]
    answer: bool


def truth_oracle(truth_pairs: Set[Pair]) -> Oracle:
    """A simulated user answering from expert ground truth.

    A merge is "correct" when the majority of the cross pairs it creates
    are true matches — the judgement a user makes when shown two groups.
    """

    def oracle(left: Cluster, right: Cluster) -> bool:
        total = correct = 0
        for a in left.members:
            for b in right.members:
                total += 1
                if frozenset((a.key, b.key)) in truth_pairs:
                    correct += 1
        return total > 0 and correct / total >= 0.5

    return oracle


class InteractiveThresholdLearner:
    """Learn the clustering threshold from a handful of oracle questions."""

    def __init__(
        self,
        matcher: Optional[IceQMatcher] = None,
        max_questions: int = 10,
    ) -> None:
        if max_questions < 1:
            raise ValueError("need at least one question")
        self.matcher = matcher or IceQMatcher()
        self.max_questions = max_questions
        self.questions: List[MergeQuestion] = []

    def learn(self, views: Sequence[AttributeView], oracle: Oracle) -> float:
        """Return a learned τ; records its questions in :attr:`questions`."""
        merges = self._record_merges(views)
        if not merges:
            return 0.0
        # Merges sorted by ascending similarity: correct merges concentrate
        # at high similarity, wrong ones at low. Binary-search the boundary.
        merges.sort(key=lambda m: m[0])
        self.questions = []
        lo, hi = 0, len(merges) - 1
        lowest_good: Optional[float] = None
        highest_bad: Optional[float] = None
        asked = 0
        while lo <= hi and asked < self.max_questions:
            mid = (lo + hi) // 2
            similarity, left, right = merges[mid]
            answer = oracle(left, right)
            asked += 1
            self.questions.append(MergeQuestion(
                similarity=similarity,
                left_labels=tuple(m.label for m in left.members),
                right_labels=tuple(m.label for m in right.members),
                answer=answer,
            ))
            if answer:
                lowest_good = similarity
                hi = mid - 1
            else:
                highest_bad = similarity
                lo = mid + 1
        return self._place_threshold(lowest_good, highest_bad)

    # ------------------------------------------------------------ internals
    def _record_merges(
        self, views: Sequence[AttributeView]
    ) -> List[Tuple[float, Cluster, Cluster]]:
        """Run the clustering at τ=0 (without provenance), returning each
        committed merge as ``(similarity, left, right)`` with both operand
        groups' members in view order."""
        matcher = IceQMatcher(self.matcher.config, self.matcher.linkage)
        _, steps = agglomerate(
            views, matcher.similarities(views), 0.0, linkage=matcher.linkage)
        index = {view.key: position for position, view in enumerate(views)}

        def operand(keys: Tuple[AttrKey, ...]) -> Cluster:
            return Cluster([views[i] for i in sorted(index[k] for k in keys)])

        return [
            (step.linkage_value, operand(step.cluster_a),
             operand(step.cluster_b))
            for step in steps
        ]

    @staticmethod
    def _place_threshold(lowest_good: Optional[float],
                         highest_bad: Optional[float]) -> float:
        if lowest_good is None and highest_bad is None:
            return 0.0
        if lowest_good is None:
            # every inspected merge was wrong: cut above the worst
            return highest_bad  # type: ignore[return-value]
        if highest_bad is None:
            # every inspected merge was right: keep everything
            return 0.0
        return (lowest_good + highest_bad) / 2.0
