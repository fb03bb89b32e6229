"""Sealed Deep-Web source construction: 5 domains × 20 interfaces.

``build_sources`` draws every record from one seeded stream per
interface, so its output is one canonical JSON document per seed. The
digest covers each source's records in order, its sorted required
attributes, its failure style, and what each recognizer answers for its
concept's values (as given and upper-cased) and for a few foreign
values. A change to how sources are built that keeps this digest keeps
every probe answer Attr-Deep can see. Seed 1 is the benchmark's world
and seed 7 the default of a service request.
"""

import hashlib
import json

import pytest

from repro.datasets import DOMAINS
from repro.datasets.concepts import domain_spec
from repro.datasets.interfaces import generate_interfaces
from repro.datasets.sources import build_sources

N_INTERFACES = 20
#: values no concept of any domain holds, plus the empty string
FOREIGN = ("", "Atlantis", "zz-not-a-value", "-1")

GOLDEN = {
    1: "60e5ad60683f32bebd0e043cd6f451cac1150ada4655a46b56895d18d4304758",
    7: "48fcc715b8b26ac5f4e02e58d2babf2f3976093aa738d17553ac785f663013e1",
}


def canonical_sources(seed: int) -> str:
    """Every domain's sources at ``seed`` as one canonical JSON text."""
    body = []
    for domain in DOMAINS:
        spec = domain_spec(domain)
        generated, _ = generate_interfaces(domain, N_INTERFACES, seed)
        sources = build_sources(generated, domain, seed)
        for gen in generated:
            source = sources[gen.interface.interface_id]
            answers = {}
            for name in sorted(source.recognizers):
                values = spec.concept(gen.concept_of[name]).values
                probes = values + tuple(v.upper() for v in values) + FOREIGN
                recognize = source.recognizers[name]
                answers[name] = [recognize(v) for v in probes]
            body.append({
                "domain": domain,
                "interface": gen.interface.interface_id,
                "records": [list(record.items())
                            for record in source.records],
                "required": sorted(source.required_attributes),
                "failure_style": source.failure_style,
                "recognizers": answers,
            })
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_sources_match_sealed_digest(seed):
    digest = hashlib.sha256(
        canonical_sources(seed).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[seed]
