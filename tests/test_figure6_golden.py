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
The ``faults`` configurations run the default WebIQ against a Web whose
calls fail at rate 0.1: ``faults`` seals every fault fate, retry and
backoff second of the degradation report; ``faults+observed`` adds the
trace, so the order of each ``fault`` and ``retry`` event against its
``web_call`` is sealed too; ``faults+budget`` caps the Surface phase's
round trips low enough that every domain exhausts the budget, so the
calls refused after it degrade to neutral answers in the sealed export.
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
from repro.resilience import FaultProfile, ResilienceConfig

N_INTERFACES = 20
DATASET_SEED = 1

FAULTS = ResilienceConfig(profile=FaultProfile(fault_rate=0.1, seed=1))
#: below every domain's Surface spend under FAULTS (669 to 1,195 round trips)
SURFACE_BUDGET = 400

CONFIGS = {
    "default": WebIQConfig,
    "observed": lambda: WebIQConfig(obs=ObsConfig()),
    "baseline": lambda: _CONFIGS["baseline"],
    "surface": lambda: _CONFIGS["surface"],
    "surface+deep": lambda: _CONFIGS["surface+deep"],
    "webiq+threshold": lambda: _CONFIGS["webiq+threshold"],
    "faults": lambda: WebIQConfig(resilience=FAULTS),
    "faults+observed": lambda: WebIQConfig(resilience=FAULTS,
                                           obs=ObsConfig()),
    "faults+budget": lambda: WebIQConfig(resilience=ResilienceConfig(
        profile=FAULTS.profile, surface_query_budget=SURFACE_BUDGET)),
}

GOLDEN = {
    ("default", "airfare"):
        "2d84aee3308e2cf2deb1c525fa0451298f3acb51e4a1ab855cc534ee34675ff4",
    ("default", "auto"):
        "57beb47bc26f3dde1d62645e1c49146dcadadaf68bbe474e60f2528e89b8df20",
    ("default", "book"):
        "6cb2017512176536f7e56c31309e8d73f4060584763e7be16b299f0667a553c8",
    ("default", "job"):
        "6bdfbf37b5e2679a9e50dde5de95a602abfa25baba6ce50b4e19aad0c2a5298e",
    ("default", "realestate"):
        "ead4de7f91e712450d5c2309426a7e9d2aed77893773c6c1f136bab160f18924",
    ("observed", "airfare"):
        "455a56c78db88b7351d69df7ce4c7b852f9165c6e86ea008b1f11a58aa397194",
    ("observed", "auto"):
        "a11d39d6f91ad9982518406ef143c3dad26a68c3f67c9d6f64f1b98eec3068b7",
    ("observed", "book"):
        "664f440248f9b44d53a97e15a241e7749b0a44ed01faaf0856d63f2cbbe2cb99",
    ("observed", "job"):
        "f7f86e2644e91aa2892a9b0b75f780c0c4c3c89900dc57bb5f85f39f00443dcb",
    ("observed", "realestate"):
        "b72ece9924abe2da894c7ed4f2cefb597aea8982cb76d52e20aa32a18901ab4e",
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
        "46cc203e6122bd84b496e3bce9bfc06b926732dcb9246fe77a0827b0d8b44ebd",
    ("surface", "auto"):
        "9d3e02e8a5ffe70003de5407358efd2502658ce04acedc7c487b36c1baf4bdee",
    ("surface", "book"):
        "7ede2ff3b91697a1af1df72ad1bc9a81179803b7e2cdb5fc029406ebff665db2",
    ("surface", "job"):
        "8c34c8a2c7ff1dedc612b54499f940c886a6a08272827227229c2e2199e98f45",
    ("surface", "realestate"):
        "bd67b3232c3690ff7f92087533824763d613a87216489de0a5b9060e77c390eb",
    ("surface+deep", "airfare"):
        "e6f74d09796a39e06f9ce18b897ace64dd88c5dc9ddf14ed6f0922505b198237",
    ("surface+deep", "auto"):
        "36fc24a7e930b077d87490b7f3d0deca06cb61b10b4760fdb81251a3d18ecb87",
    ("surface+deep", "book"):
        "2cfef74b2f59d170640dcdb9c401f367d191099460301708dfd2c2d8d04cf59b",
    ("surface+deep", "job"):
        "5c2de6d92469e236e072e22c1bd94c0a118980e8f81d9076c09f7978e692319a",
    ("surface+deep", "realestate"):
        "fa1dd177d10803fee77eef85e2cb274d8583d0129eecbad3959a7eaa240a7387",
    ("webiq+threshold", "airfare"):
        "98b1dfc13255aaee8f54b1539852b443f5196cf04b5a7fb5e1e3e9a8ea86a2f8",
    ("webiq+threshold", "auto"):
        "1b4c465f7b7679f34d64660cb34979cc2280a153a9e30666e042be3169ffdbaf",
    ("webiq+threshold", "book"):
        "f9d392e13e05f7d1fd5e9e59e4aca5f5738f479d1ae2d66ec8ef165a5aebed58",
    ("webiq+threshold", "job"):
        "c280e6ddf8133a6ae13875288d0225b3ffeb106991e3be1976c18b721e8dbc03",
    ("webiq+threshold", "realestate"):
        "24b4262f86061d5d37cc8c1cefc67dd487a7e2197415f89e55a154ac589bef4e",
    ("faults", "airfare"):
        "80d03335a1486f4a520d607433bbba290bcb354cafaa3b2c337fd634b564092d",
    ("faults", "auto"):
        "bb540c43eb04e9967fceb5f2ae3af21f80513f7e55f1e5a09d4839a7e19a76e2",
    ("faults", "book"):
        "53bb5d0e287b764adc7b3c134edc1a5ef79b790072c479d5a3fce3ea3b3df3d0",
    ("faults", "job"):
        "77064d2fd53d0e9294227384652925ca383e9036aeb5a605b74fbdccc4117221",
    ("faults", "realestate"):
        "b5c0b905095ac8678aa8975eb5ec6ad5aafb02b517bb2db0cf15bc753c657800",
    ("faults+observed", "airfare"):
        "30e79e0cf34343376ed0682e82f522e9b2d2f5932f937f2bc4b598f98dc5764c",
    ("faults+observed", "auto"):
        "4b317f7d2df09ac213c47d7dcb210fdbc407883f18a26f1bf82fa85a12ef8f01",
    ("faults+observed", "book"):
        "790172c159516b567325188c01a09e33470d55eca30883a2f2171695a4f6a2ef",
    ("faults+observed", "job"):
        "a5f6af80ce1b5100f75f9ba1c3a1bfa43f312a3a8771ead43edc9667e38acf37",
    ("faults+observed", "realestate"):
        "dad797993ecbd5bd241d1231d6d6ad40544e2673eac8ccc84435edcb6672d5b2",
    ("faults+budget", "airfare"):
        "bb33ab90fb3177e7fd4d14dc14f923e11357d33f4bc91475635efe069f35f21f",
    ("faults+budget", "auto"):
        "31183bdc0e2a87b2d73154a543fb5b29bafd57e4cb80a9014ebf632f2e4dd42c",
    ("faults+budget", "book"):
        "f84063c8f3a25c75a5eb0b7ea0d212aa12bd0422c17b793e0dcc536bf4893461",
    ("faults+budget", "job"):
        "167af1d2df9a39e5bf641d8b10ec8bec3d73af2bf9eaf37bd6a0ac2c35532b86",
    ("faults+budget", "realestate"):
        "b1cbaa350af6d681d8a3995d2406a0ecc278cd39c9b149503330f7a4d7c1c00d",
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


def export(config: WebIQConfig, domain: str) -> dict:
    return run_result_to_dict(WebIQMatcher(config).run(
        build_domain_dataset(domain, N_INTERFACES, DATASET_SEED)))


def export_digest(config: WebIQConfig, domain: str) -> str:
    blob = json.dumps(export(config, domain), sort_keys=True,
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


@pytest.mark.parametrize("domain", DOMAINS)
def test_budget_config_exhausts_in_every_domain(domain):
    degradation = export(CONFIGS["faults+budget"](), domain)["degradation"]
    assert degradation["budgets_exhausted"] == ["surface"]
    assert degradation["budget_spent_by_component"]["surface"] \
        == SURFACE_BUDGET


def test_table1_characteristics_are_sealed():
    suite = ExperimentSuite(seed=DATASET_SEED, n_interfaces=N_INTERFACES)
    assert suite.table1_characteristics() == TABLE1_CHARACTERISTICS
