"""Warm shared state behind copy-on-write epochs.

The service's whole correctness story reduces to one discipline: the
state a request *reads* is an immutable :class:`Epoch`, and the state a
request *produces* becomes a new epoch that either publishes atomically
or is dropped whole. Concretely an epoch bundles

- the warm memo content (a :class:`~repro.perf.CachePreload` — the
  Surface searches and hit counts captured from the publishing run), and
- the registry store, when the service assimilates
  (:class:`~repro.registry.store.RegistryStore`, copied via
  :meth:`~repro.registry.store.RegistryStore.copy` before any mutation).

A request never mutates its parent epoch: the pipeline *applies* the
parent's preload into its own fresh ``ValidationCache`` and captures a
new preload at the end (sharing the parent's when it added nothing); assimilation runs against a copy of the
parent's store that shares only its frozen attribute views. So a crash
(or deadline expiry, or shed) anywhere mid-request leaves nothing to
undo — recovery is literally "do not call :meth:`WarmState.publish`",
and no other tenant can ever observe the half-built epoch because it was
never reachable from ``current``.

Publication is serial (the service executes requests one at a time in
admission order), so a publish whose parent is no longer ``current`` can
only mean a bug — two executors over one :class:`WarmState` — and raises
:class:`~repro.util.errors.StaleEpochError` instead of silently dropping
the other writer's epoch. The epoch-publication invariant law
(:func:`repro.service.laws.check_service`) audits the whole history:
published ids are consecutive, every epoch's parent is its predecessor,
and ``begun == published + abandoned``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.perf.cache import CachePreload
from repro.registry.store import RegistryStore
from repro.util.errors import StaleEpochError

__all__ = ["Epoch", "WarmState"]


@dataclass(frozen=True)
class Epoch:
    """One immutable generation of the service's warm state."""

    #: consecutive id; 0 is the boot epoch
    epoch_id: int
    #: the epoch this one was derived from (``None`` for the boot epoch)
    parent_id: Optional[int]
    #: warm memo content readers apply into their own memos
    warm: CachePreload
    #: registry snapshot (``None`` until an assimilating request publishes)
    registry: Optional[RegistryStore]
    #: request id that published this epoch (``None`` for the boot epoch)
    published_by: Optional[str]


class WarmState:
    """The epoch manager: one ``current`` pointer, swapped atomically.

    ``begin``/``publish``/``abandon`` bracket a request's use of warm
    state. ``begin`` hands back the current epoch (the request's
    *parent*); the request derives everything from that immutable
    snapshot; ``publish`` swings ``current`` to the request's new epoch
    in one assignment under the lock, and ``abandon`` simply drops the
    derivation. Counters and the published chain feed the
    epoch-publication law.
    """

    def __init__(self, *, registry: Optional[RegistryStore] = None) -> None:
        boot = Epoch(epoch_id=0, parent_id=None, warm=CachePreload(),
                     registry=registry, published_by=None)
        self._lock = threading.Lock()
        self.current: Epoch = boot
        #: every epoch ever current, by id (the audit trail)
        self.epochs: Dict[int, Epoch] = {0: boot}
        #: published epoch ids in publication order (excludes the boot epoch)
        self.chain: List[int] = []
        #: requests that called :meth:`begin`
        self.begun = 0
        #: requests whose epoch published
        self.published = 0
        #: requests whose derivation was dropped (crash/deadline/failure)
        self.abandoned = 0
        #: request ids that abandoned, in order (diagnostics + laws)
        self.abandoned_by: List[str] = []

    def begin(self, request_id: str) -> Epoch:
        """Snapshot the current epoch as a request's parent."""
        with self._lock:
            self.begun += 1
            return self.current

    def publish(
        self,
        parent: Epoch,
        *,
        warm: CachePreload,
        registry: Optional[RegistryStore] = None,
        published_by: str,
    ) -> Epoch:
        """Atomically derive and install the next epoch.

        ``registry=None`` means "unchanged" — the parent's store carries
        forward, so a plain match request never loses the registry an
        earlier assimilation published.
        """
        with self._lock:
            if parent.epoch_id != self.current.epoch_id:
                raise StaleEpochError(
                    f"request {published_by} tried to publish against "
                    f"epoch {parent.epoch_id} but epoch "
                    f"{self.current.epoch_id} is current — serial commit "
                    "discipline violated"
                )
            epoch = Epoch(
                epoch_id=parent.epoch_id + 1,
                parent_id=parent.epoch_id,
                warm=warm,
                registry=registry if registry is not None else parent.registry,
                published_by=published_by,
            )
            self.current = epoch
            self.epochs[epoch.epoch_id] = epoch
            self.chain.append(epoch.epoch_id)
            self.published += 1
            return epoch

    def abandon(self, parent: Epoch, request_id: str) -> None:
        """Drop a request's derivation — recovery *is* this no-op."""
        with self._lock:
            self.abandoned += 1
            self.abandoned_by.append(request_id)
