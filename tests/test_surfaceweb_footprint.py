"""Footprint of one domain's Surface Web: the corpus plus its index.

The matching service keeps one built Web per domain for its whole life
(DESIGN.md §23), so a Web's resident size is a standing cost, and five
of them must fit the benchmark's memory bound. This test measures, with
``tracemalloc``, the net bytes the index of one ``build_world(domain, 1)``
leaves allocated, after a warm-up build so that module-level caches are
not charged to it.

Measured on CPython 3.11, x86-64 (MB = 10**6 bytes):

============  =============  ===========
domain        pages + index  before
============  =============  ===========
airfare       0.74           4.62
auto          0.58           3.58
book          0.58           3.57
job           0.65           3.99
realestate    0.56           3.56
============  =============  ===========

"before" is the representation that stored each page's raw text,
uninterned tokens and a position list per (word, page) pair; it fails
the 1.0 MB bound by a factor of four.
"""

import gc
import tracemalloc

import pytest

from repro.datasets.concepts import DOMAINS
from repro.datasets.dataset import build_world

#: upper bound on one domain's Web, corpus plus index
MAX_BYTES = 1_000_000


def web_bytes(domain: str, seed: int) -> int:
    build_world(domain, seed)  # warm-up: lazily built module state
    gc.collect()
    tracemalloc.start()
    try:
        web = build_world(domain, seed).index
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert web.n_documents > 0
    return size


@pytest.mark.parametrize("domain", DOMAINS)
def test_web_fits_the_budget(domain):
    assert web_bytes(domain, 1) <= MAX_BYTES
