"""The registry's similarity cache keeps arrival order, byte for byte.

An assimilation inserts its nonzero pairs into ``store.sims`` in the
order it scores them: the new interface's views in attribute order, each
against its candidates in ascending registered-view order. A delta record
lists those pairs in that order and replay keeps it, but the snapshot's
``to_body`` sorts the pairs, so the order within one add is invisible to
every other test. This one pins a digest of ``list(store.sims.items())``
after every add, float reprs included, over the registry-stream workload's
inputs: the five domains, 24 generated interfaces each, dataset seed 1.
"""

import hashlib

from repro.datasets import DOMAINS
from repro.datasets.interfaces import generate_interfaces
from repro.registry import RegistryAssimilator, RegistryStore

#: sealed before the blocking index learned to score its candidates
ARRIVAL_ORDER_DIGEST = (
    "825b25a4b392687e5d45c49c391f87ece78c40c4e0a7785bd64bff3c98a9030c"
)


def arrival_order_digest(n_interfaces=24, seed=1):
    digest = hashlib.sha256()
    for domain in DOMAINS:
        generated, _ = generate_interfaces(domain, n_interfaces, seed)
        store = RegistryStore(domain=domain)
        assimilator = RegistryAssimilator(store)
        for item in generated:
            assimilator.assimilate(item.interface)
            digest.update(repr(list(store.sims.items())).encode())
    return digest.hexdigest()


def test_sims_arrival_order_is_pinned():
    assert arrival_order_digest() == ARRIVAL_ORDER_DIGEST
