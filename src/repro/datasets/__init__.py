"""The ICQ-style evaluation datasets and the synthetic Surface Web.

The paper evaluates on the ICQ data set: five real-world domains — airfare,
automobile, book, job, and real estate — with 20 query interfaces each,
expert-provided ground-truth matches, plus Google and the live sources as
instance oracles. None of that is available offline, so this package
regenerates the whole experimental environment:

- :mod:`repro.datasets.vocab` — value vocabularies (cities, airlines, car
  makes, authors, ...);
- :mod:`repro.datasets.concepts` — per-domain *concepts*: the semantic
  attribute classes interfaces draw from, each with label variants, value
  domains, widget statistics and Surface-Web richness parameters;
- :mod:`repro.datasets.interfaces` — generates 20 interfaces per domain with
  ground-truth clusters (attributes match iff they share a concept);
- :mod:`repro.datasets.corpus` — generates the synthetic Surface-Web pages
  (Hearst-pattern sentences, "Label: value" listing pages, noise);
- :mod:`repro.datasets.sources` — builds probe-able Deep-Web sources;
- :mod:`repro.datasets.dataset` — the facade: ``build_domain_dataset``, and
  ``build_world`` for a Surface Web shared by many datasets;
- :mod:`repro.datasets.statistics` — Table 1 columns 2-5.
"""

from repro.datasets.concepts import Concept, LabelVariant, domain_concepts, DOMAINS
from repro.datasets.dataset import (
    DomainDataset,
    DomainWorld,
    build_domain_dataset,
    build_world,
)
from repro.datasets.interfaces import GroundTruth, generate_interfaces
from repro.datasets.statistics import DatasetStatistics, dataset_statistics

__all__ = [
    "Concept",
    "LabelVariant",
    "domain_concepts",
    "DOMAINS",
    "DomainDataset",
    "DomainWorld",
    "build_domain_dataset",
    "build_world",
    "GroundTruth",
    "generate_interfaces",
    "DatasetStatistics",
    "dataset_statistics",
]
