"""The registry store: one domain's canonical attributes, durable on disk.

A registry is a directory holding a **snapshot**, ``registry.json``, and
zero or more **deltas**, ``delta-000001.json``, ``delta-000002.json``, ...
Every record is a sealed envelope (:mod:`repro.util.envelope`, the same
codec the run journal uses) written as canonical compact JSON::

    {"body":{...},"crc":<crc32 of canonical body JSON>,"format":4}

The snapshot body holds the configuration, the interfaces, the nonzero
similarity cache and the blocking ledger (:meth:`RegistryStore.to_body`).
A delta body holds only what one save added: the new interfaces, the new
nonzero similarities and the new :class:`~repro.registry.blocking.AddRecord`
lines, plus ``"base"``: the CRC of the snapshot it extends and the number
of interfaces it starts from. One encoder writes both: a snapshot is the
records added since the empty store, with the configuration in front.

:meth:`RegistryStore.save` keeps a watermark of what the store last wrote
or read in its directory (record count, newest record's CRC, and how many
interfaces, similarities and ledger lines those records hold). It appends
one delta when the directory's newest record is still that one, checked
by a ``listdir`` count and the newest record's CRC. It writes a fresh
snapshot instead for a store that never saved or loaded here, for a
directory another writer changed, after a change to the store's
configuration (deltas carry none), and once the deltas would outnumber
the snapshot's interfaces, so replay stays shorter than the store. A save
with nothing added writes nothing. Save cost therefore follows the adds
since the last save, not the size of the store; snapshot rewrites are
amortised: a snapshot of ``n`` interfaces is followed by at most ``n``
deltas before the next one.

Every record goes through :func:`repro.util.atomicio.atomic_write_json`
(temp file, fsync, ``os.replace``, directory fsync), so a crash leaves
either the records before the save or the records after it. A snapshot
supersedes every delta before it: deltas naming another snapshot's CRC
are ignored on load and deleted once the new snapshot is durable.

The entries are not stored, because they are a pure function of the
interfaces and similarities (:attr:`RegistryStore.entries` derives them).
The loader verifies each record's CRC and replays the records through the
same consistency checks before trusting anything:

- a torn/unparseable record, a CRC mismatch, a duplicate interface or
  attribute, a malformed similarity cache, or a delta that does not start
  where the records before it end is :class:`RegistryCorruptionError`
  naming the damaged file and entry;
- a record written by a newer schema is :class:`RegistryFormatError`;
- a missing store, or one whose domain/configuration does not match the
  requested operation, is :class:`RegistryMismatchError`.

Format history: format **2** added the blocking ledger (``stats``);
format **3** dropped the derived ``entries`` section; format **4** added
deltas, with an unchanged snapshot body, so that a format-3 reader refuses
a directory it would otherwise read without its deltas. The loader reads
all three: a format-2 file's ``entries`` are ignored, since they were
always derived from the same interfaces and similarities, and a format-2
or format-3 snapshot has no deltas (the next save after an add rewrites it
as format 4). A format-1 store (no ``stats``) is refused as a malformed
body; earlier revisions wrote the same envelope with ``indent=2``
whitespace, which still verifies.

Atomic replace protects readers from a crashed writer, but not writers
from each other: two concurrent assimilators would each load, merge and
save, silently dropping one writer's additions. :class:`RegistryLock`
closes that hole with a sentinel file (``registry.lock``) acquired with
``O_CREAT | O_EXCL`` — the second writer gets a typed
:class:`~repro.util.errors.RegistryLockedError` naming the holder instead
of a lost update. An unreadable/garbage lock file still counts as held:
the safe reading of damage is "someone is mid-write".
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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

#: Schema version of the registry envelope (snapshot and delta records).
REGISTRY_FORMAT = 4
REGISTRY_FILENAME = "registry.json"
#: Delta record file names: ``delta-000001.json``, ``delta-000002.json``, ...
_DELTA_NAME = re.compile(r"delta-(\d{6,})\.json")
#: The end of a sealed record: its CRC, read without parsing the body.
_SEALED_TAIL = re.compile(rb'"crc":(\d+),"format":\d+\}$')
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


class _Mark(NamedTuple):
    """The save watermark: what a store last wrote or read in one directory.

    The directory's records, up to the newest (CRC ``newest_crc``), hold
    exactly the store's first ``interfaces`` interfaces, ``sims``
    similarities and ``adds`` ledger lines, under ``header``.
    """

    directory: str
    header: Dict[str, Any]
    snapshot_format: int
    snapshot_crc: int
    snapshot_interfaces: int
    deltas: int
    newest_crc: int
    interfaces: int
    sims: int
    adds: int


def _record_path(directory: str, deltas: int) -> str:
    """The newest record of a directory holding ``deltas`` deltas."""
    name = f"delta-{deltas:06d}.json" if deltas else REGISTRY_FILENAME
    return os.path.join(directory, name)


def _delta_names(directory: str) -> List[str]:
    """The directory's delta record names, oldest first."""
    numbered = []
    for name in os.listdir(directory):
        match = _DELTA_NAME.fullmatch(name)
        if match:
            numbered.append((int(match.group(1)), name))
    return [name for _, name in sorted(numbered)]


def _sealed_crc(path: str) -> Optional[int]:
    """The CRC a sealed record carries, read from its last bytes; None
    when the file is missing or does not end like a sealed record."""
    try:
        with open(path, "rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            handle.seek(max(0, size - 64))
            match = _SEALED_TAIL.search(handle.read())
    except OSError:
        return None
    return int(match.group(1)) if match else None


def _read_record(path: str) -> Dict[str, Any]:
    return read_sealed(
        path, "registry", REGISTRY_FORMAT,
        RegistryCorruptionError, RegistryFormatError,
    )


@contextmanager
def _malformed(source: str) -> Iterator[None]:
    """Report a record body missing a key or holding a wrong type as
    corruption of ``source``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise RegistryCorruptionError(
            f"{source}: malformed registry body ({exc})"
        ) from exc


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

    The store is append-only: assimilation appends interfaces, inserts
    only similarity pairs that involve a new view, and appends ledger
    lines. :meth:`save` relies on that to write only what lies past its
    watermark.
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
    #: what this store last wrote or read on disk (see :meth:`save`)
    _mark: Optional[_Mark] = field(
        default=None, init=False, repr=False, compare=False)

    # -- views ---------------------------------------------------------

    def interface_ids(self) -> List[str]:
        return [interface_id for interface_id, _ in self.interfaces]

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

    def copy(self) -> "RegistryStore":
        """A copy that can be assimilated into without touching this store.

        The frozen views are shared; the interface list, the similarity
        cache and the ledger are copied. The save watermark is kept, so a
        copy saved where this store was saved or loaded appends one delta.
        """
        twin = RegistryStore(
            domain=self.domain,
            threshold=self.threshold,
            linkage=self.linkage,
            similarity=self.similarity,
            interfaces=[(iid, list(views)) for iid, views in self.interfaces],
            sims=dict(self.sims),
            stats=BlockingStats(adds=list(self.stats.adds)),
        )
        twin._mark = self._mark
        return twin

    def layout(self) -> Optional[Tuple[int, int]]:
        """``(snapshot format, delta records)`` of the directory this store
        last saved to or loaded from; None before the first save or load."""
        mark = self._mark
        return None if mark is None else (mark.snapshot_format, mark.deltas)

    # -- serialisation -------------------------------------------------

    def _header(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "threshold": self.threshold,
            "linkage": self.linkage,
            "similarity": {
                "alpha": self.similarity.alpha,
                "beta": self.similarity.beta,
                "numeric_family_factor": self.similarity.numeric_family_factor,
            },
        }

    def _records_since(self, mark: Optional[_Mark]) -> Dict[str, Any]:
        """The interfaces, nonzero similarities and ledger lines past
        ``mark`` (all of them when ``mark`` is None). New similarities are
        the cache entries past the watermark: assimilation only inserts
        pairs that involve a new view. The whole cache is listed sorted,
        so that :meth:`to_body` does not depend on the order the pairs
        arrived in; a delta lists its pairs in arrival order, which
        replay keeps, and skips that sort."""
        n_interfaces, n_sims, n_adds = (
            (0, 0, 0) if mark is None
            else (mark.interfaces, mark.sims, mark.adds))
        sims = islice(self.sims.items(), n_sims, None)
        return {
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
                for interface_id, views in self.interfaces[n_interfaces:]
            ],
            "sims": [
                [list(a), list(b), value]
                for (a, b), value in (sorted(sims) if mark is None else sims)
            ],
            "stats": BlockingStats(self.stats.adds[n_adds:]).to_dict(),
        }

    def to_body(self) -> Dict[str, Any]:
        """The snapshot body: the configuration and every record."""
        return {**self._header(), **self._records_since(None)}

    @classmethod
    def _from_header(cls, body: Dict[str, Any], source: str) -> "RegistryStore":
        with _malformed(source):
            return cls(
                domain=body["domain"],
                threshold=body["threshold"],
                linkage=body["linkage"],
                similarity=SimilarityConfig(**body["similarity"]),
            )

    def _extend(self, body: Dict[str, Any], source: str, ids: Set[str],
                owners: Dict[AttrKey, str]) -> None:
        """Append one record's interfaces, similarities and ledger lines,
        checking each against the records before it. ``ids`` and
        ``owners`` (attribute key -> interface id) carry what those
        records hold from one call to the next."""
        with _malformed(source):
            for item in body["interfaces"]:
                interface_id = item["interface_id"]
                if interface_id in ids:
                    raise RegistryCorruptionError(
                        f"{source}: duplicate interface {interface_id!r}"
                    )
                ids.add(interface_id)
                views = []
                for attribute in item["attributes"]:
                    view = AttributeView(
                        interface_id=interface_id,
                        name=attribute["name"],
                        label=attribute["label"],
                        instances=tuple(attribute["instances"]),
                    )
                    if view.key in owners:
                        raise RegistryCorruptionError(
                            f"{source}: duplicate attribute {view.key!r}"
                        )
                    owners[view.key] = interface_id
                    views.append(view)
                self.interfaces.append((interface_id, views))
            for a_raw, b_raw, value in body["sims"]:
                a: AttrKey = (a_raw[0], a_raw[1])
                b: AttrKey = (b_raw[0], b_raw[1])
                if a not in owners or b not in owners:
                    raise RegistryCorruptionError(
                        f"{source}: similarity cache references unknown "
                        f"attribute pair {a!r} / {b!r}"
                    )
                if not a < b:
                    raise RegistryCorruptionError(
                        f"{source}: similarity cache pair {a!r} / {b!r} "
                        "is not in canonical order"
                    )
                if (a, b) in self.sims:
                    raise RegistryCorruptionError(
                        f"{source}: duplicate similarity cache pair "
                        f"{a!r} / {b!r}"
                    )
                self.sims[(a, b)] = value
            self.stats.adds.extend(BlockingStats.from_dict(body["stats"]).adds)

    @classmethod
    def from_body(cls, body: Dict[str, Any], *, source: str = "registry") -> "RegistryStore":
        store = cls._from_header(body, source)
        store._extend(body, source, set(), {})
        return store

    # -- persistence ---------------------------------------------------

    def save(self, directory: str) -> str:
        """Durably persist the store; returns the path of the directory's
        newest record.

        Appends one delta holding what was added since this store last
        saved or loaded here, when the directory is as it left it; writes
        a snapshot otherwise, or once the deltas would outnumber the
        snapshot's interfaces. Writes nothing when nothing was added.
        """
        os.makedirs(directory, exist_ok=True)
        header = self._header()
        mark = self._mark
        size = (len(self.interfaces), len(self.sims), len(self.stats.adds))
        ours = (
            mark is not None
            and mark.directory == os.path.abspath(directory)
            and mark.header == header
            and all(now >= then for now, then in zip(
                size, (mark.interfaces, mark.sims, mark.adds)))
        )
        if ours and size == (mark.interfaces, mark.sims, mark.adds):
            return _record_path(directory, mark.deltas)
        deltas = _delta_names(directory)
        if (
            ours
            and mark.snapshot_format == REGISTRY_FORMAT
            and len(deltas) == mark.deltas < mark.snapshot_interfaces
            and _sealed_crc(_record_path(directory, mark.deltas))
            == mark.newest_crc
        ):
            return self._append_delta(directory, mark)
        return self._write_snapshot(directory, header, deltas)

    def _append_delta(self, directory: str, mark: _Mark) -> str:
        body = self._records_since(mark)
        body["base"] = {"crc": mark.snapshot_crc, "interfaces": mark.interfaces}
        sealed = seal(body, REGISTRY_FORMAT)
        path = _record_path(directory, mark.deltas + 1)
        atomic_write_json(path, sealed)
        self._mark = mark._replace(
            deltas=mark.deltas + 1, newest_crc=sealed.crc,
            interfaces=len(self.interfaces), sims=len(self.sims),
            adds=len(self.stats.adds))
        return path

    def _write_snapshot(self, directory: str, header: Dict[str, Any],
                        stale: List[str]) -> str:
        # Forget the old watermark first: if this save fails part way, the
        # next one must write a snapshot rather than extend a stale one.
        self._mark = None
        sealed = seal(self.to_body(), REGISTRY_FORMAT)
        path = os.path.join(directory, REGISTRY_FILENAME)
        atomic_write_json(path, sealed)
        # The snapshot is durable, and the deltas name the CRC of the one
        # it replaced. Newest first, so any that remain form a prefix.
        for name in reversed(stale):
            try:
                os.remove(os.path.join(directory, name))
            except FileNotFoundError:
                pass
        self._mark = _Mark(
            directory=os.path.abspath(directory), header=header,
            snapshot_format=REGISTRY_FORMAT, snapshot_crc=sealed.crc,
            snapshot_interfaces=len(self.interfaces), deltas=0,
            newest_crc=sealed.crc, interfaces=len(self.interfaces),
            sims=len(self.sims), adds=len(self.stats.adds))
        return path

    @classmethod
    def load(cls, directory: str) -> "RegistryStore":
        """Read the snapshot and replay its deltas, verifying each record."""
        path = os.path.join(directory, REGISTRY_FILENAME)
        if not os.path.exists(path):
            raise RegistryMismatchError(f"no registry store at {path}")
        snapshot = _read_record(path)
        body = snapshot["body"]
        store = cls._from_header(body, path)
        ids: Set[str] = set()
        owners: Dict[AttrKey, str] = {}
        store._extend(body, path, ids, owners)
        crc = newest = snapshot["crc"]
        snapshot_interfaces = len(store.interfaces)
        deltas = 0
        # Only a format-4 snapshot has deltas: an older one stands alone.
        if snapshot["format"] == REGISTRY_FORMAT:
            for name in _delta_names(directory):
                delta_path = os.path.join(directory, name)
                record = _read_record(delta_path)
                delta = record["body"]
                with _malformed(delta_path):
                    base = delta["base"]
                    if base["crc"] != crc:
                        continue  # superseded by the current snapshot
                    if base["interfaces"] != len(store.interfaces):
                        raise RegistryCorruptionError(
                            f"{delta_path}: extends a registry of "
                            f"{base['interfaces']} interfaces, but the "
                            f"records before it hold {len(store.interfaces)}"
                        )
                store._extend(delta, delta_path, ids, owners)
                newest = record["crc"]
                deltas += 1
        store._mark = _Mark(
            directory=os.path.abspath(directory), header=store._header(),
            snapshot_format=snapshot["format"], snapshot_crc=crc,
            snapshot_interfaces=snapshot_interfaces, deltas=deltas,
            newest_crc=newest, interfaces=len(store.interfaces),
            sims=len(store.sims), adds=len(store.stats.adds))
        return store
