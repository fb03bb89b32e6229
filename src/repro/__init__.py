"""WebIQ reproduction: learning from the Web to match Deep-Web interfaces.

A full offline reproduction of *WebIQ: Learning from the Web to Match
Deep-Web Query Interfaces* (Wu, Doan, Yu — ICDE 2006), including every
substrate the paper depends on: a simulated Surface Web with a search
engine, probe-able Deep-Web sources, a Brill-style POS tagger, the IceQ
interface matcher, and ICQ-style evaluation datasets for five domains.

Quickstart::

    from repro import build_domain_dataset, WebIQConfig, WebIQMatcher

    dataset = build_domain_dataset("airfare", seed=1)
    result = WebIQMatcher(WebIQConfig(threshold=0.1)).run(dataset)
    print(result.metrics.f1)
"""

from repro.core.pipeline import WebIQConfig, WebIQMatcher, WebIQRunResult
from repro.core.acquisition import AcquisitionConfig, InstanceAcquirer
from repro.core.surface import SurfaceConfig, SurfaceDiscoverer
from repro.datasets import (
    DOMAINS,
    DomainDataset,
    build_domain_dataset,
    dataset_statistics,
)
from repro.matching import IceQMatcher, evaluate_matches
from repro.obs import (
    InvariantChecker,
    InvariantReport,
    Observability,
    ObsConfig,
    check_run,
)
from repro.perf import CacheStats
from repro.resilience import (
    DegradationReport,
    FaultProfile,
    ResilienceConfig,
)
from repro.supervisor import (
    QuarantinedUnit,
    RestartPolicy,
    RunSupervisor,
    SupervisorConfig,
    SupervisorReport,
    UnitFaultInjector,
)

__version__ = "1.0.0"

__all__ = [
    "WebIQConfig",
    "WebIQMatcher",
    "WebIQRunResult",
    "AcquisitionConfig",
    "InstanceAcquirer",
    "SurfaceConfig",
    "SurfaceDiscoverer",
    "DOMAINS",
    "DomainDataset",
    "build_domain_dataset",
    "dataset_statistics",
    "IceQMatcher",
    "evaluate_matches",
    "FaultProfile",
    "ResilienceConfig",
    "DegradationReport",
    "CacheStats",
    "ObsConfig",
    "Observability",
    "InvariantChecker",
    "InvariantReport",
    "check_run",
    "QuarantinedUnit",
    "RestartPolicy",
    "RunSupervisor",
    "SupervisorConfig",
    "SupervisorReport",
    "UnitFaultInjector",
    "__version__",
]
