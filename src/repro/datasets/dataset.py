"""The dataset facade: one call builds a domain's whole experimental world.

``build_domain_dataset("airfare")`` yields the 20 query interfaces with
ground truth, the synthetic Surface Web behind a search engine, and the
probe-able Deep-Web sources — everything the WebIQ pipeline and the
benchmarks consume.

The Surface Web depends only on ``(domain, seed, corpus_config)``, not on
the interfaces, and is only read once built. A :class:`DomainWorld` holds
that Web together with its :class:`~repro.core.surface.SurfaceMemo`:
snippet extractions are pure functions of the Web's snippets, so every run
over the same Web shares them. :func:`build_world` is the one builder of a
world. A caller serving many runs of one domain (the matching service)
builds it once and passes it to every :func:`build_domain_dataset` call as
``world=``; each dataset still gets its own engine and query counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.surface import SurfaceMemo
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

__all__ = ["DomainDataset", "DomainWorld", "build_domain_dataset",
           "build_world"]


@dataclass(frozen=True)
class DomainWorld:
    """One domain's Surface Web for one seed, and that Web's Surface memo.

    The index is only read once built; the memo is read and filled by
    every run over the Web and holds extractions of its snippets only.
    """

    domain: str
    seed: int
    corpus_config: CorpusConfig
    index: InvertedIndex
    memo: SurfaceMemo


def build_world(
    domain: str,
    seed: int = 0,
    corpus_config: CorpusConfig = CorpusConfig(),
) -> DomainWorld:
    """The indexed Surface Web of ``domain`` with an empty memo;
    deterministic in all arguments."""
    index = InvertedIndex()
    index.add_all(build_corpus(domain, seed, corpus_config))
    return DomainWorld(domain, seed, corpus_config, index, SurfaceMemo())


@dataclass
class DomainDataset:
    """A domain's complete evaluation environment."""

    spec: DomainSpec
    generated: List[GeneratedInterface]
    ground_truth: GroundTruth
    #: a fresh engine over ``world.index``, with its own query counter
    engine: SearchEngine
    sources: Dict[str, DeepWebSource]
    world: DomainWorld

    @property
    def domain(self) -> str:
        return self.world.domain

    @property
    def seed(self) -> int:
        return self.world.seed

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


def build_domain_dataset(
    domain: str,
    n_interfaces: int = 20,
    seed: int = 0,
    corpus_config: CorpusConfig = CorpusConfig(),
    source_config: SourceConfig = SourceConfig(),
    world: Optional[DomainWorld] = None,
) -> DomainDataset:
    """Build the full evaluation environment for ``domain``.

    Deterministic in all arguments; two calls with equal arguments yield
    interchangeable datasets (same interfaces, corpus and sources).
    ``world``, when given, is a :func:`build_world` result built earlier
    and shared: the dataset searches its Web through a fresh engine and
    shares its memo. A world of another domain, seed or corpus config
    raises :class:`ValueError`.
    """
    wanted = (domain, seed, corpus_config)
    if world is not None:
        held = (world.domain, world.seed, world.corpus_config)
        if held != wanted:
            raise ValueError(
                f"a world of {held!r} cannot serve a dataset of {wanted!r}")
    spec = domain_spec(domain)
    generated, truth = generate_interfaces(domain, n_interfaces, seed)
    if world is None:
        world = build_world(domain, seed, corpus_config)
    return DomainDataset(
        spec=spec,
        generated=generated,
        ground_truth=truth,
        engine=SearchEngine(index=world.index),
        sources=build_sources(generated, domain, seed, source_config),
        world=world,
    )
