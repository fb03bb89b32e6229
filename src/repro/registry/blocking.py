"""The registry's blocking ledger: what each assimilation evaluated and
what it skipped.

The blocking index itself lives in :mod:`repro.matching.blocking`, shared
with batch IceQ; DESIGN.md §15 argues why a pair it does not propose has
``Sim == 0`` exactly. Every skipped cross pair of an assimilation is
charged to the :class:`BlockingStats` ledger, so the InvariantChecker can
audit ``evaluated + blocked == n·|registry|`` for every add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

# perfbench's tracer counts type inferences by patching ``infer_type`` in
# this module, so the name stays importable here.
from repro.matching.types import infer_type  # noqa: F401

__all__ = ["AddRecord", "BlockingStats"]


@dataclass(frozen=True)
class AddRecord:
    """The ledger line for one assimilation: what was and wasn't evaluated."""

    interface_id: str
    #: attribute views the new interface contributed (``n``)
    new_views: int
    #: registered views at assimilation time (``|registry|``)
    existing_views: int
    #: candidate pairs that got the full similarity evaluation
    evaluated: int
    #: cross pairs the blocking stage skipped (charged as Sim = 0)
    blocked: int

    @property
    def pairs_considered(self) -> int:
        """The full cross-pair scope this add was accountable for."""
        return self.new_views * self.existing_views

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interface_id": self.interface_id,
            "new_views": self.new_views,
            "existing_views": self.existing_views,
            "evaluated": self.evaluated,
            "blocked": self.blocked,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AddRecord":
        return cls(
            interface_id=payload["interface_id"],
            new_views=payload["new_views"],
            existing_views=payload["existing_views"],
            evaluated=payload["evaluated"],
            blocked=payload["blocked"],
        )


@dataclass
class BlockingStats:
    """Cumulative blocking ledger: one :class:`AddRecord` per assimilation.

    The conservation law the InvariantChecker audits: for every add,
    ``evaluated + blocked == new_views · existing_views``, and the totals
    below are exactly the column sums of the history — no evaluation goes
    unaccounted, no skipped pair goes uncharged.
    """

    adds: List[AddRecord] = field(default_factory=list)

    @property
    def evaluated(self) -> int:
        return sum(record.evaluated for record in self.adds)

    @property
    def blocked(self) -> int:
        return sum(record.blocked for record in self.adds)

    @property
    def pairs_considered(self) -> int:
        return sum(record.pairs_considered for record in self.adds)

    @property
    def reduction(self) -> float:
        """Fraction of the cross-pair scope blocking skipped, in [0, 1]."""
        considered = self.pairs_considered
        return self.blocked / considered if considered else 0.0

    def record(self, add: AddRecord) -> None:
        self.adds.append(add)

    def to_dict(self) -> Dict[str, Any]:
        return {"adds": [record.to_dict() for record in self.adds]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BlockingStats":
        return cls(adds=[AddRecord.from_dict(r) for r in payload.get("adds", [])])
