"""Deep-Web source construction for generated interfaces.

Each generated interface gets a :class:`~repro.deepweb.source.DeepWebSource`
whose value recognizers come from the concept definitions (a source in the
airfare domain recognises any known city as a departure city, any known date
as a travel date) and whose hidden records are sampled from the interface's
value pools (a source whose airline SELECT lists North-American carriers
also *stores* mostly North-American carriers).

Two realism knobs shape Attr-Deep's behaviour:

- ``required_source_rate`` — fraction of sources that demand one of their
  free-text attributes be filled; probing any *other* attribute of such a
  source fails, which is one of the paper's reasons Deep-Web validation is
  not universally successful;
- failure style alternates between "no results" pages and explicit
  validation-error pages, exercising both branches of the response
  heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.datasets.concepts import Concept, DomainSpec, domain_spec
from repro.datasets.interfaces import GeneratedInterface
from repro.deepweb.models import AttributeKind
from repro.deepweb.source import DeepWebSource, ValueRecognizer
from repro.util.rng import derive_rng

__all__ = ["SourceConfig", "build_source", "build_sources"]


@dataclass(frozen=True)
class SourceConfig:
    """Knobs of source construction."""

    n_records: Tuple[int, int] = (40, 80)
    #: probability a record has a value for a given attribute
    record_fill_rate: float = 0.9
    #: fraction of sources requiring their first free-text attribute
    required_source_rate: float = 0.1


def _membership_recognizer(values: Tuple[str, ...]) -> ValueRecognizer:
    lowered = {v.lower() for v in values}

    def recognize(value: str) -> bool:
        return value.lower() in lowered

    return recognize


def _accept_all(_value: str) -> bool:
    return True


def _recognizer(concept: Concept,
                shared: Dict[str, ValueRecognizer]) -> ValueRecognizer:
    """The recognizer of ``concept``'s value domain, made once per
    ``shared`` table (one table serves the sources of one domain)."""
    recognizer = shared.get(concept.name)
    if recognizer is None:
        if not concept.findable and concept.select_prob == 0.0:
            # Generic free-text fields (keywords, description) accept
            # anything.
            recognizer = _accept_all
        else:
            recognizer = _membership_recognizer(concept.values)
        shared[concept.name] = recognizer
    return recognizer


def build_source(
    gen: GeneratedInterface,
    spec: DomainSpec,
    seed: int = 0,
    config: SourceConfig = SourceConfig(),
) -> DeepWebSource:
    """Build the Deep-Web source behind one generated interface."""
    return _build_source(gen, spec, seed, config, {})


def _build_source(
    gen: GeneratedInterface,
    spec: DomainSpec,
    seed: int,
    config: SourceConfig,
    shared: Dict[str, ValueRecognizer],
) -> DeepWebSource:
    interface = gen.interface
    rng = derive_rng(seed, "source", interface.interface_id)

    # Each attribute's concept and value pool, looked up once: the
    # records below draw from the same pools in the same order.
    recognizers: Dict[str, ValueRecognizer] = {}
    columns: List[Tuple[str, Tuple[str, ...]]] = []
    for attribute in interface.attributes:
        concept = spec.concept(gen.concept_of[attribute.name])
        recognizers[attribute.name] = _recognizer(concept, shared)
        columns.append((attribute.name,
                        concept.pool_values(gen.pool_of[attribute.name])))

    lo, hi = config.n_records
    fill_rate = config.record_fill_rate
    draw, choice = rng.random, rng.choice
    records: List[Dict[str, str]] = [
        {name: choice(pool) for name, pool in columns if draw() < fill_rate}
        for _ in range(rng.randint(lo, hi))
    ]

    required: Set[str] = set()
    if rng.random() < config.required_source_rate:
        text_attrs = [
            a.name for a in interface.attributes
            if a.kind is AttributeKind.TEXT
        ]
        if text_attrs:
            required.add(text_attrs[0])

    failure_style = "validation_error" if rng.random() < 0.4 else "no_results"
    return DeepWebSource(
        interface=interface,
        recognizers=recognizers,
        records=records,
        required_attributes=required,
        failure_style=failure_style,
    )


def build_sources(
    generated: List[GeneratedInterface],
    domain: str,
    seed: int = 0,
    config: SourceConfig = SourceConfig(),
) -> Dict[str, DeepWebSource]:
    """Sources for all generated interfaces, keyed by interface id."""
    spec = domain_spec(domain)
    shared: Dict[str, ValueRecognizer] = {}
    return {
        gen.interface.interface_id: _build_source(gen, spec, seed, config,
                                                  shared)
        for gen in generated
    }
