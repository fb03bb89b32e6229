"""The canonical attribute registry (ROADMAP item 3).

A long-lived store of one domain's matched attributes that new interfaces
join *one at a time*: each entry is a cluster (canonical label, label
variants, unified value domain, provenance links to every contributing
interface), and assimilating a new interface evaluates only the candidate
pairs a blocking stage proposes — yet the induced matching is **identical**
to batch IceQ over the same interfaces, for every arrival order. The
equivalence argument lives in DESIGN.md §15; the metamorphic suite
``tests/test_registry_equivalence.py`` enforces it byte for byte.
"""

from repro.registry.blocking import AddRecord, BlockingStats
from repro.registry.store import (
    LOCK_FILENAME,
    REGISTRY_FILENAME,
    REGISTRY_FORMAT,
    RegistryEntry,
    RegistryLock,
    RegistryStore,
)
from repro.registry.assimilate import (
    RegistryAssimilator,
    RegistryReport,
    batch_induced_clusters,
    build_registry,
)

__all__ = [
    "AddRecord",
    "BlockingStats",
    "LOCK_FILENAME",
    "REGISTRY_FILENAME",
    "REGISTRY_FORMAT",
    "RegistryEntry",
    "RegistryLock",
    "RegistryStore",
    "RegistryAssimilator",
    "RegistryReport",
    "batch_induced_clusters",
    "build_registry",
]
