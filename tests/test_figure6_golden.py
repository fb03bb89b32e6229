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
        "735a7028f5cdc37120c649528eb5b294e7e8c6162832cef2ad9719761344ceaa",
    ("default", "auto"):
        "b2b04e6e78dc32729484e2139c30c4aa91b73a6e0da2d64b7ce69bde05152f0c",
    ("default", "book"):
        "243a9ed2058057a3a8e9990d885d86bb5e564f077b17d185d42e429b4c4a89c1",
    ("default", "job"):
        "2d297b18db394785f680a3d25fe389b999a31ab02a51597a9b21d318820f6b1e",
    ("default", "realestate"):
        "31a4c1ab8693e16487779060baadd61ac9e592a249a64e5e9cd022e46f53f64b",
    ("observed", "airfare"):
        "99de292d0de7566596c344b6f2106c3ebae10ab9e908590dd263c7ab671be7c0",
    ("observed", "auto"):
        "b2ae06236f55968fcb08dd624004bcb2d20bcd0ec5b30f46a405be0dc51c2c55",
    ("observed", "book"):
        "d6ba600823ccf43bf31a0b5a9cc6a96fcf4f49972695fabceade9f0cc15feb59",
    ("observed", "job"):
        "23fa8b92756a3e17d087a96c4fc13107bba2c991f9a83a94af243b7e0de3c901",
    ("observed", "realestate"):
        "a7994bb1cca15c61ebcae19ed749fda554619e317c1621162ba0459453fda9cf",
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
        "266c730495ec9bc83f928135e1b978c17fe3d5b985cdefed373bbd33eeb95280",
    ("surface", "auto"):
        "951d9ad1f37ebb995809c89014ba16f3e96d265bee58fcb6553171658264b4c5",
    ("surface", "book"):
        "ef4a950956b357ad0b45213deda54308d6e23ac63f91d768be466883051afb0e",
    ("surface", "job"):
        "8763ac37052e76ad346243c1eb678869925403f44040c133d4da8b89293c3ad8",
    ("surface", "realestate"):
        "e371ef3a5448172569e04963906d7fb9f598984cee01c30b0455563a276ae833",
    ("surface+deep", "airfare"):
        "e62bb6d5492d9f6d99d3e71bf07f332625db09f5924f3a38d2059e875968eba1",
    ("surface+deep", "auto"):
        "8fdbcb3022df4293ffebd4095773415b4d1265598d84ac89776aebbf0f17f5bf",
    ("surface+deep", "book"):
        "f50c8c647d1f07d96b2cc0f4fe2c9c43fe3b5f376895161a045122361ecfb8a5",
    ("surface+deep", "job"):
        "3b8420697589c70c517b9dcf0a34e27d530ae157fa8f787f6de49e35f67d2fd0",
    ("surface+deep", "realestate"):
        "ca53917662684c8d32846859f2658b7316546717c51596d367b884280d6ce3f6",
    ("webiq+threshold", "airfare"):
        "5288b66c9465a98482a49ca9106463614e3cc201712732947e510ca8207af613",
    ("webiq+threshold", "auto"):
        "3fe21785f9298e4f8dc67db109e9e4abf1a9991854cd6cec0aa601a4218d164a",
    ("webiq+threshold", "book"):
        "3e44ebb0638c0b7e97078ea1fe84a1d9298b7136bdb0b7f8e178136defc28b02",
    ("webiq+threshold", "job"):
        "d2b18c7dfe234670c07234518d15c41000151a72fab344e4d16dc3c24478e91f",
    ("webiq+threshold", "realestate"):
        "fb1b4b8ba5ff3020e3feb230175943070a5e984f2eefeaf87409e73366b0907f",
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
