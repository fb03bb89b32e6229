"""Sealed Figure-6 exports: the paper's 5 domains × 20 interfaces.

Every run is deterministic, so each domain's canonical run export has one
SHA-256 digest. The observed configuration also carries the provenance
lineage, which names the donor of every borrowed instance, so donor
selection cannot change order or identity without moving a digest here.
A change that moves a digest on purpose must say so and re-seal it.
"""

import hashlib
import json

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import DOMAINS, build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import ObsConfig

N_INTERFACES = 20
DATASET_SEED = 1

CONFIGS = {
    "default": WebIQConfig,
    "observed": lambda: WebIQConfig(obs=ObsConfig()),
}

GOLDEN = {
    ("default", "airfare"):
        "b57ac79a6ce4131a6f880dae371d238c13b5fa519a0099c60fefc76d3be7846f",
    ("default", "auto"):
        "c38a4623b8d80fdc718d247a9a66d3aab7449c9be3454475fcfdebc30d15c831",
    ("default", "book"):
        "8a656b34b24947636bd8f62d39df7d405e1b03284c349600a70cc52e74f3c5c6",
    ("default", "job"):
        "d80b29db662958b39edd2994093465ddf40c32808163445c3adb7d9e8b22a15c",
    ("default", "realestate"):
        "f44647239aa1f64c460a858de2d24c38920de5181d52f5675a9d66a4cd623737",
    ("observed", "airfare"):
        "34446d8452c26ec6980a704b15ced952e7615ff48539aa75a4fffdb5c6659b54",
    ("observed", "auto"):
        "e72aaa7541a58d7efe2c912dc14bf38f5b3f38bea6e5e7c124341d5774533bb5",
    ("observed", "book"):
        "8074522b68494ea5e1787ff7f9c057a425d7f3f6394ad92f83616e249efd5162",
    ("observed", "job"):
        "4ffcb30bc29dec847b730861349cbd741e0f4b750167baf55f0bc432d79bc91a",
    ("observed", "realestate"):
        "9b0898c3728f70b837198e9f6bc88ccc6bc8e24242381e1c252945b6a8196515",
}


def export_digest(config: WebIQConfig, domain: str) -> str:
    run = WebIQMatcher(config).run(
        build_domain_dataset(domain, N_INTERFACES, DATASET_SEED))
    blob = json.dumps(run_result_to_dict(run), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_every_domain_is_sealed():
    assert set(GOLDEN) == {(name, domain) for name in CONFIGS
                           for domain in DOMAINS}


@pytest.mark.parametrize("name, domain", sorted(GOLDEN))
def test_export_matches_sealed_digest(name, domain):
    assert export_digest(CONFIGS[name](), domain) == GOLDEN[name, domain]
