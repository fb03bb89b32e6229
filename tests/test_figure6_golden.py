"""Sealed Figure-6 exports: the paper's 5 domains × 20 interfaces.

Every run is deterministic, so each domain's canonical run export has one
SHA-256 digest. The observed configuration also carries the provenance
lineage, which names the donor of every borrowed instance, so donor
selection cannot change order or identity without moving a digest here.
The ``baseline``, ``surface`` and ``surface+deep`` configurations are the
Figure 7 ladder (the baseline is also Figure 6's IceQ column), and
``webiq+threshold`` is Figure 6 at the paper's second threshold τ = 0.1;
all four come from :data:`repro.experiments._CONFIGS`, so the sealed runs
are the ones the experiment tables print.
Table 1's columns 2–5 are no part of any export; their rows are pinned
exactly in :data:`TABLE1_CHARACTERISTICS`, next to the digests.
A change that moves a digest or a row on purpose must say so and re-seal
it.
"""

import hashlib
import json

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import DOMAINS, build_domain_dataset
from repro.experiments import _CONFIGS, ExperimentSuite
from repro.io import run_result_to_dict
from repro.obs import ObsConfig

N_INTERFACES = 20
DATASET_SEED = 1

CONFIGS = {
    "default": WebIQConfig,
    "observed": lambda: WebIQConfig(obs=ObsConfig()),
    "baseline": lambda: _CONFIGS["baseline"],
    "surface": lambda: _CONFIGS["surface"],
    "surface+deep": lambda: _CONFIGS["surface+deep"],
    "webiq+threshold": lambda: _CONFIGS["webiq+threshold"],
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
    ("baseline", "airfare"):
        "ee88dfa8539e17003e19b1831089c4e56e2b61bbe580470921ea29e7ac4eb115",
    ("baseline", "auto"):
        "713d13a715dd06c6d9a8c3afc1a871c6ce315fef036daa05525c506a57f2aeea",
    ("baseline", "book"):
        "6bb8a9112c205f41e845dab1d80943b25b1b3f2be49e44969d4a3b483f23a9c0",
    ("baseline", "job"):
        "1d37ecf06eb5ac25bb4738f6b77ac11ee144fdfad14206601bd8fc0bd32958a1",
    ("baseline", "realestate"):
        "ca7232d9545a5621a3d5f0683e67b8931dbe01db0b33b51f6dfe56a13656a8a3",
    ("surface", "airfare"):
        "13d4cadc216f9877d8da9bb750e23f03fa159d27080d269244a411eff216f7d3",
    ("surface", "auto"):
        "2d63f6124f74f019b2160eaeec219eb7073c1ce2313a9a5798bd7cbef61e5d2c",
    ("surface", "book"):
        "22577824d4b30e94ed016fec059ca827a93b3b8943674b32162a8189308464da",
    ("surface", "job"):
        "a7454983fd03d39d4b033d5c82460e9cc7273c46088b67300cda3da6d5d71a2a",
    ("surface", "realestate"):
        "3ac0d97e339b79945ed91c466c8166ce7b6c5b2594bec6405c22bda4ee433bb7",
    ("surface+deep", "airfare"):
        "28b8d6379b235316ce46ba627f3ce442bcc0f9aa0a736d566848d2c9792de013",
    ("surface+deep", "auto"):
        "f4d16f1b86f20bd9d34331ecaa988ff164d749cc97c5897e2ac042b3d0e3aadf",
    ("surface+deep", "book"):
        "1621653fea55c1b8011a02128c4c405323ceabc5a675a014254cdd49aa09aa12",
    ("surface+deep", "job"):
        "b66481aa75ee9098ca30939729ee3bcecbb38144b60873d8b90039d8a65fe08b",
    ("surface+deep", "realestate"):
        "eb9b1fbe99fa7ba638511e5039c678147b9dea077b81e1c8065a6fd4a7173c36",
    ("webiq+threshold", "airfare"):
        "955516f385877669a9315c9660d6d39db1a80ba341bebe60b25b68b0a19a4b02",
    ("webiq+threshold", "auto"):
        "256ef811583254a487a9f5124e17648f2cc2575a2899f2957cbf2dae2f0a91fb",
    ("webiq+threshold", "book"):
        "4f8ed206dba831bddace0bec1bd24a8733d0cac6c23383e547f33abe9233ac2c",
    ("webiq+threshold", "job"):
        "cb0f80c3b13f624eff1c90520e68aa96121b1613c67ef359f8da392a6329bc61",
    ("webiq+threshold", "realestate"):
        "0152690d85b7228cd66a9410d4b5daa67deb2a20260c1486147c6d728eabf6a2",
}

#: Table 1 columns 2-5 as ``ExperimentSuite.table1_characteristics``
#: prints them: (domain, #attr, int_no_inst%, attr_no_inst%, findable%)
TABLE1_CHARACTERISTICS = [
    ("airfare", 10.9, 100.0, 30.7, 100.0),
    ("auto", 6.0, 90.0, 43.2, 100.0),
    ("book", 5.2, 100.0, 48.6, 92.2),
    ("job", 5.3, 100.0, 79.2, 83.3),
    ("realestate", 6.8, 95.0, 40.0, 80.8),
]


def export_digest(config: WebIQConfig, domain: str) -> str:
    run = WebIQMatcher(config).run(
        build_domain_dataset(domain, N_INTERFACES, DATASET_SEED))
    blob = json.dumps(run_result_to_dict(run), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_every_domain_is_sealed():
    assert set(GOLDEN) == {(name, domain) for name in CONFIGS
                           for domain in DOMAINS}
    # every configuration the experiment tables run is sealed; their
    # "webiq" is WebIQConfig(), sealed above as "default"
    assert _CONFIGS["webiq"] == WebIQConfig()
    assert set(_CONFIGS) - {"webiq"} <= set(CONFIGS)


@pytest.mark.parametrize("name, domain", sorted(GOLDEN))
def test_export_matches_sealed_digest(name, domain):
    assert export_digest(CONFIGS[name](), domain) == GOLDEN[name, domain]


def test_table1_characteristics_are_sealed():
    suite = ExperimentSuite(seed=DATASET_SEED, n_interfaces=N_INTERFACES)
    assert suite.table1_characteristics() == TABLE1_CHARACTERISTICS
