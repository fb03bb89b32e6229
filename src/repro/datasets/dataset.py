"""The dataset facade: one call builds a domain's whole experimental world.

``build_domain_dataset("airfare")`` yields the 20 query interfaces with
ground truth, the synthetic Surface Web behind a search engine, and the
probe-able Deep-Web sources — everything the WebIQ pipeline and the
benchmarks consume.

The Surface Web depends only on ``(domain, seed, corpus_config)``, not on
the interfaces, and is only read once built. :func:`build_web` builds it
alone, so a caller serving many runs of one domain (the matching service)
builds it once and passes it to every :func:`build_domain_dataset` call as
``web=``; each dataset still gets its own engine and query counter.

Every dataset keeps one :class:`~repro.core.surface.SurfaceMemo` for its
Web (``DomainDataset.memo``): snippet extractions are pure functions of the
Web's snippets, so every run over the same Web shares them. A caller that
shares a Web passes that Web's memo as ``memo=``; otherwise the first
pipeline run attaches one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.datasets.concepts import DomainSpec, domain_spec
from repro.datasets.corpus import CorpusConfig, build_corpus
from repro.datasets.interfaces import (
    GeneratedInterface,
    GroundTruth,
    generate_interfaces,
)
from repro.datasets.sources import SourceConfig, build_sources
from repro.deepweb.models import QueryInterface
from repro.deepweb.source import DeepWebSource
from repro.surfaceweb.engine import SearchEngine
from repro.surfaceweb.index import InvertedIndex

if TYPE_CHECKING:  # the pipeline imports this module, not the reverse
    from repro.core.surface import SurfaceMemo

__all__ = ["DomainDataset", "build_domain_dataset", "build_web"]


@dataclass
class DomainDataset:
    """A domain's complete evaluation environment."""

    domain: str
    spec: DomainSpec
    generated: List[GeneratedInterface]
    ground_truth: GroundTruth
    engine: SearchEngine
    sources: Dict[str, DeepWebSource]
    seed: int
    #: the Surface memo shared by every run over this dataset's Web;
    #: ``WebIQMatcher.run`` attaches one while it is ``None``
    memo: Optional["SurfaceMemo"] = field(
        default=None, repr=False, compare=False)

    @property
    def interfaces(self) -> List[QueryInterface]:
        return [g.interface for g in self.generated]

    def concept_of(self, interface_id: str, attribute_name: str) -> str:
        for gen in self.generated:
            if gen.interface.interface_id == interface_id:
                return gen.concept_of[attribute_name]
        raise KeyError(interface_id)

    def clear_acquired(self) -> None:
        """Remove all WebIQ-acquired instances (restore the pristine dataset)."""
        for interface in self.interfaces:
            interface.clear_acquired()

    def reset_counters(self) -> None:
        """Zero the engine's query counter and every source's probe counter."""
        self.engine.reset_query_count()
        for source in self.sources.values():
            source.probe_count = 0


def build_web(
    domain: str,
    seed: int = 0,
    corpus_config: CorpusConfig = CorpusConfig(),
) -> InvertedIndex:
    """The indexed Surface Web of ``domain``; deterministic in all
    arguments and, once returned, only ever read."""
    index = InvertedIndex()
    index.add_all(build_corpus(domain, seed, corpus_config))
    return index


def build_domain_dataset(
    domain: str,
    n_interfaces: int = 20,
    seed: int = 0,
    corpus_config: CorpusConfig = CorpusConfig(),
    source_config: SourceConfig = SourceConfig(),
    web: Optional[InvertedIndex] = None,
    memo: Optional["SurfaceMemo"] = None,
) -> DomainDataset:
    """Build the full evaluation environment for ``domain``.

    Deterministic in all arguments; two calls with equal arguments yield
    interchangeable datasets (same interfaces, corpus and sources).
    ``web``, when given, must be ``build_web(domain, seed, corpus_config)``
    (built earlier and shared): the dataset searches it through a fresh
    engine instead of building its own. ``memo``, when given, must hold
    extractions of that Web's snippets only (one memo per shared Web);
    without it the dataset's first run attaches a memo of its own.
    """
    spec = domain_spec(domain)
    generated, truth = generate_interfaces(domain, n_interfaces, seed)
    if web is None:
        web = build_web(domain, seed, corpus_config)
    engine = SearchEngine(index=web)
    sources = build_sources(generated, domain, seed, source_config)
    return DomainDataset(
        domain=domain,
        spec=spec,
        generated=generated,
        ground_truth=truth,
        engine=engine,
        sources=sources,
        seed=seed,
        memo=memo,
    )
