"""The registry store: one domain's canonical attributes, durable on disk.

A registry is a directory holding ``registry.json``, a sealed envelope
(:mod:`repro.util.envelope`, the same codec the run journal uses) written
as canonical compact JSON::

    {"body":{...},"crc":<crc32 of canonical body JSON>,"format":3}

via :func:`repro.util.atomicio.atomic_write_json` — temp file, fsync,
``os.replace`` — so every assimilation either lands whole or not at all;
a crash mid-save leaves the previous registry intact. The body holds the
configuration, the interfaces, the nonzero similarity cache and the
blocking ledger; the registry's entries are not stored, because they are
a pure function of the interfaces and similarities
(:attr:`RegistryStore.entries` derives them). The loader verifies the
CRC and the body's internal consistency before trusting anything:

- a torn/unparseable file, a CRC mismatch, a duplicate interface or
  attribute, or a malformed similarity cache is
  :class:`RegistryCorruptionError` naming the damaged entry;
- a store written by a newer schema is :class:`RegistryFormatError`;
- a missing store, or one whose domain/configuration does not match the
  requested operation, is :class:`RegistryMismatchError`.

Format history: format **2** added the blocking ledger (``stats``);
format **3** dropped the derived ``entries`` section. The loader reads
both: a format-2 file's ``entries`` are ignored, since they were always
derived from the same interfaces and similarities. A format-1 store (no
``stats``) is refused as a malformed body; earlier revisions wrote the
same envelope with ``indent=2`` whitespace, which still verifies.

Atomic replace protects readers from a crashed writer, but not writers
from each other: two concurrent assimilators would each load, merge and
replace, silently dropping one writer's additions. :class:`RegistryLock`
closes that hole with a sentinel file (``registry.lock``) acquired with
``O_CREAT | O_EXCL`` — the second writer gets a typed
:class:`~repro.util.errors.RegistryLockedError` naming the holder instead
of a lost update. An unreadable/garbage lock file still counts as held:
the safe reading of damage is "someone is mid-write".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.matching.similarity import AttributeView, SimilarityConfig
from repro.obs.provenance import MergeStep
from repro.registry.blocking import BlockingStats
from repro.util.atomicio import atomic_write_json
from repro.util.envelope import read_sealed, seal
from repro.util.errors import (
    RegistryCorruptionError,
    RegistryFormatError,
    RegistryLockedError,
    RegistryMismatchError,
)

__all__ = [
    "LOCK_FILENAME",
    "REGISTRY_FILENAME",
    "REGISTRY_FORMAT",
    "RegistryEntry",
    "RegistryLock",
    "RegistryStore",
]

AttrKey = Tuple[str, str]

#: Schema version of the registry envelope.
REGISTRY_FORMAT = 3
REGISTRY_FILENAME = "registry.json"
#: Sentinel file guarding registry writes (see :class:`RegistryLock`).
LOCK_FILENAME = "registry.lock"


class RegistryLock:
    """Single-writer guard for a registry directory.

    Acquiring creates ``registry.lock`` with ``O_CREAT | O_EXCL`` — an
    atomic create-or-fail on every platform the test-suite targets — and
    records the holder's identity as JSON (``{"owner": ..., "pid": ...}``)
    for the error message the loser sees. Use as a context manager::

        with RegistryLock(directory, owner="cli registry add"):
            store = RegistryStore.load(directory)
            ...
            store.save(directory)

    A second acquirer raises :class:`RegistryLockedError` naming the
    recorded holder. A lock file whose content is torn or garbage still
    counts as held ("unknown" owner): damage means someone died mid-write
    and a human (or :meth:`break_lock`) must adjudicate — guessing
    "stale, ignore it" is exactly the race this class exists to prevent.
    """

    def __init__(self, directory: str, *, owner: str = "writer") -> None:
        self.directory = directory
        self.owner = owner
        self.path = os.path.join(directory, LOCK_FILENAME)
        self._held = False

    def acquire(self) -> "RegistryLock":
        os.makedirs(self.directory, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            raise RegistryLockedError(
                f"registry directory {self.directory} is locked by "
                f"{self.holder()!r} — refusing a second writer",
                directory=self.directory, owner=self.holder(),
            ) from None
        try:
            payload = json.dumps(
                {"owner": self.owner, "pid": os.getpid()}
            )
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        self._held = True
        return self

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.remove(self.path)
        except FileNotFoundError:  # already broken by an operator
            pass

    def holder(self) -> str:
        """Best-effort identity of the current lock holder."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                recorded = json.load(handle)
        except (OSError, ValueError):
            return "unknown"
        if isinstance(recorded, dict):
            owner = recorded.get("owner")
            if isinstance(owner, str) and owner:
                return owner
        return "unknown"

    @staticmethod
    def break_lock(directory: str) -> bool:
        """Operator escape hatch: remove a dead holder's lock file.

        Returns whether a lock file existed. Never called by library
        code — deciding a holder is dead is a human judgement.
        """
        path = os.path.join(directory, LOCK_FILENAME)
        try:
            os.remove(path)
        except FileNotFoundError:
            return False
        return True

    def __enter__(self) -> "RegistryLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


@dataclass(frozen=True)
class RegistryEntry:
    """One canonical attribute: a cluster with its unified form attached.

    ``merges`` are the :class:`~repro.obs.provenance.MergeStep` links that
    built this cluster in the registry's induced matching — the provenance
    trail back to every contributing interface.
    """

    cluster_id: str
    #: canonical label (most frequent variant; ties break short-then-lex)
    label: str
    #: unified value domain, consensus values first
    instances: Tuple[str, ...]
    #: number of distinct contributing interfaces
    coverage: int
    #: every (interface_id, attribute_name) in the cluster, sorted
    members: Tuple[AttrKey, ...]
    #: contributing interface ids, sorted
    interfaces: Tuple[str, ...]
    #: label variant -> vote count
    label_votes: Dict[str, int]
    #: merge steps that assembled this cluster, in commit order
    merges: Tuple[MergeStep, ...]


@dataclass
class RegistryStore:
    """In-memory registry state; :meth:`save`/:meth:`load` round-trip it.

    ``interfaces`` keeps **arrival order** (the audit trail of who joined
    when); everything the induced matching depends on uses
    :meth:`canonical_views` — interfaces sorted by id — which is what
    makes the registry arrival-permutation-invariant. ``sims`` caches
    only the *nonzero* evaluated similarities, keyed by the canonical
    (lexicographically sorted) attr-key pair; every absent cross pair is
    0.0 by the blocking soundness argument.
    """

    domain: str
    threshold: float = 0.0
    linkage: str = "average"
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    #: arrival-ordered (interface_id, views) — the assimilation history
    interfaces: List[Tuple[str, List[AttributeView]]] = field(default_factory=list)
    #: canonical-key-pair -> evaluated nonzero similarity
    sims: Dict[Tuple[AttrKey, AttrKey], float] = field(default_factory=dict)
    stats: BlockingStats = field(default_factory=BlockingStats)

    # -- views ---------------------------------------------------------

    def interface_ids(self) -> List[str]:
        return [interface_id for interface_id, _ in self.interfaces]

    def has_interface(self, interface_id: str) -> bool:
        return any(interface_id == iid for iid, _ in self.interfaces)

    def registered_views(self) -> List[AttributeView]:
        """All views in arrival order (the blocking index order)."""
        return [view for _, views in self.interfaces for view in views]

    def canonical_views(self) -> List[AttributeView]:
        """All views in canonical order: interfaces sorted by id,
        attributes in their interface's original order. The induced
        matching is computed over exactly this ordering, so it cannot
        depend on arrival order."""
        return [
            view
            for _, views in sorted(self.interfaces, key=lambda item: item[0])
            for view in views
        ]

    @property
    def n_views(self) -> int:
        return sum(len(views) for _, views in self.interfaces)

    @property
    def entries(self) -> List[RegistryEntry]:
        """The canonical attributes, derived from ``interfaces`` and
        ``sims`` on every access (one merge loop plus unification); bind
        the result once when it is needed twice."""
        from repro.registry.assimilate import induced_entries

        return induced_entries(self)

    # -- serialisation -------------------------------------------------

    def to_body(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "threshold": self.threshold,
            "linkage": self.linkage,
            "similarity": {
                "alpha": self.similarity.alpha,
                "beta": self.similarity.beta,
                "numeric_family_factor": self.similarity.numeric_family_factor,
            },
            "interfaces": [
                {
                    "interface_id": interface_id,
                    "attributes": [
                        {
                            "name": view.name,
                            "label": view.label,
                            "instances": list(view.instances),
                        }
                        for view in views
                    ],
                }
                for interface_id, views in self.interfaces
            ],
            "sims": [
                [list(a), list(b), value]
                for (a, b), value in sorted(self.sims.items())
            ],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_body(cls, body: Dict[str, Any], *, source: str = "registry") -> "RegistryStore":
        try:
            similarity = SimilarityConfig(**body["similarity"])
            store = cls(
                domain=body["domain"],
                threshold=body["threshold"],
                linkage=body["linkage"],
                similarity=similarity,
            )
            seen_keys: Dict[AttrKey, str] = {}
            for item in body["interfaces"]:
                interface_id = item["interface_id"]
                if store.has_interface(interface_id):
                    raise RegistryCorruptionError(
                        f"{source}: duplicate interface {interface_id!r}"
                    )
                views = []
                for attribute in item["attributes"]:
                    view = AttributeView(
                        interface_id=interface_id,
                        name=attribute["name"],
                        label=attribute["label"],
                        instances=tuple(attribute["instances"]),
                    )
                    if view.key in seen_keys:
                        raise RegistryCorruptionError(
                            f"{source}: duplicate attribute {view.key!r}"
                        )
                    seen_keys[view.key] = interface_id
                    views.append(view)
                store.interfaces.append((interface_id, views))
            for a_raw, b_raw, value in body["sims"]:
                a: AttrKey = (a_raw[0], a_raw[1])
                b: AttrKey = (b_raw[0], b_raw[1])
                if a not in seen_keys or b not in seen_keys:
                    raise RegistryCorruptionError(
                        f"{source}: similarity cache references unknown "
                        f"attribute pair {a!r} / {b!r}"
                    )
                if not a < b:
                    raise RegistryCorruptionError(
                        f"{source}: similarity cache pair {a!r} / {b!r} "
                        "is not in canonical order"
                    )
                if (a, b) in store.sims:
                    raise RegistryCorruptionError(
                        f"{source}: duplicate similarity cache pair "
                        f"{a!r} / {b!r}"
                    )
                store.sims[(a, b)] = value
            store.stats = BlockingStats.from_dict(body["stats"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryCorruptionError(
                f"{source}: malformed registry body ({exc})"
            ) from exc
        return store

    # -- persistence ---------------------------------------------------

    def save(self, directory: str) -> str:
        """Atomically persist the store; returns the file path written."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, REGISTRY_FILENAME)
        atomic_write_json(path, seal(self.to_body(), REGISTRY_FORMAT))
        return path

    @classmethod
    def load(cls, directory: str) -> "RegistryStore":
        path = os.path.join(directory, REGISTRY_FILENAME)
        if not os.path.exists(path):
            raise RegistryMismatchError(f"no registry store at {path}")
        body = read_sealed(
            path, "registry", REGISTRY_FORMAT,
            RegistryCorruptionError, RegistryFormatError,
        )["body"]
        return cls.from_body(body, source=path)
