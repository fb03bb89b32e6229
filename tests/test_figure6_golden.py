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
        "5468b95580c859c101b216bb1f14cb4880933ce8d15a6e7f37f0503e14553218",
    ("default", "auto"):
        "800d9003ca5b2dbf3ee1150d27d18978b900b2dc50daeb37624d91a30db76992",
    ("default", "book"):
        "b16be3caf2b64b5cc3c90dd415711dd3e7a4c17a8a10a54b060713b3819b0f98",
    ("default", "job"):
        "265eb73a22887786a8808858b76e0c77732d90e81a41b5fc2540cae0f98dd871",
    ("default", "realestate"):
        "0f03b8f9eafa6c16adc6648b48ee481c013c47f00c3295dbddfcabcc68f7a259",
    ("observed", "airfare"):
        "12e2b758b8a23293d6fad0eb0cee684bfdb88eff9dfdd46924ba1aef085e67d1",
    ("observed", "auto"):
        "dd7b0f1fb4f8823b413f82880b49a955b751f09ee2b2cc32763ce23aac9e1ae6",
    ("observed", "book"):
        "5f5d2d157f75507951b4cc83a603ff53029ce4d69a34006b31869e20badff6f0",
    ("observed", "job"):
        "16130f44b704f6244524819aa499cb68b38b19aec505c476058b9a5c4aea9e24",
    ("observed", "realestate"):
        "c1484b3beef000c9bcd722ee30d77f69366aa4b6949dbef333acc8789924d6f5",
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
        "cd760a1206ed5552e178622c68b6471e71d8676a0370de8c0e8bfe3ba29f877b",
    ("webiq+threshold", "auto"):
        "b49ef6dcf9fb3728ff8fae891e58406f5f8454801ea5a314885d3b2a75ce40d3",
    ("webiq+threshold", "book"):
        "af16aface3d025d80e2b21164cb64ee303d68f0c05fd05244e0a4f576d3f7e7a",
    ("webiq+threshold", "job"):
        "f68dc3bd4476388180398de38ae2bdca0b5a90654efb9bc52d8e60bffbab82d8",
    ("webiq+threshold", "realestate"):
        "c424700582a1693581ab21e44bb52a4767eee43cb99e7247225a689282961ae9",
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
