"""The service's Surface-Web table: one built Web per domain.

A domain's indexed corpus depends only on ``(domain, seed)``, so the
service builds it on a domain's first request and hands every later
request for that domain a fresh engine over it. The table holds the last
seed asked per domain, a failed build never enters it, and sharing the
Web leaves every export byte-identical to a standalone run.
"""

import json

import pytest

import repro.datasets.dataset as dataset_module
from repro.core.pipeline import WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.datasets.corpus import build_corpus
from repro.datasets.dataset import build_web
from repro.io import run_result_to_dict, strip_service_section
from repro.service import MatchRequest, MatchingService
from repro.surfaceweb.engine import SearchEngine

N_INTERFACES = 2


@pytest.fixture()
def corpus_builds(monkeypatch):
    """Count the corpora the dataset facade generates."""
    calls = []
    real = dataset_module.build_corpus

    def spy(domain, seed, *args, **kwargs):
        calls.append((domain, seed))
        return real(domain, seed, *args, **kwargs)

    monkeypatch.setattr(dataset_module, "build_corpus", spy)
    return calls


def request(domain, seed=1, tenant="acme"):
    return MatchRequest(tenant=tenant, domain=domain,
                        n_interfaces=N_INTERFACES, seed=seed)


def standalone_export(service, response, req):
    """The same run outside the service, building its own Web."""
    parent = service.warm.epochs[response.epoch_parent]
    dataset = build_domain_dataset(req.domain, n_interfaces=req.n_interfaces,
                                   seed=req.seed)
    preload = None if parent.warm.is_empty else parent.warm
    result = WebIQMatcher(response.effective_config).run(dataset,
                                                         warm=preload)
    return json.dumps(run_result_to_dict(result), sort_keys=True)


class TestWebTable:
    def test_one_build_per_domain(self, corpus_builds):
        service = MatchingService()
        domains = ["book", "auto", "job"]
        responses = service.drive([request(d) for d in domains * 2])
        assert [r.outcome for r in responses] == ["completed"] * 6
        assert sorted(corpus_builds) == sorted((d, 1) for d in domains)
        assert sorted(service.webs) == sorted(domains)

    def test_requests_share_the_domain_web(self):
        service = MatchingService()
        service.drive([request("book")])
        web = service.webs["book"][1]
        service.drive([request("book", tenant="globex")])
        assert service.webs["book"] == (1, web)

    def test_another_seed_replaces_the_domain_web(self, corpus_builds):
        service = MatchingService()
        service.drive([request("book"), request("auto")])
        old = service.webs["book"][1]
        responses = service.drive([request("book", seed=2)])
        assert responses[0].outcome == "completed"
        assert corpus_builds == [("book", 1), ("auto", 1), ("book", 2)]
        seed, web = service.webs["book"]
        assert seed == 2 and web is not old
        assert sorted(service.webs) == ["auto", "book"]

    def test_unknown_domain_crashes_alone(self, corpus_builds):
        service = MatchingService()
        service.drive([request("book")])
        before = dict(service.webs)
        (crashed,) = service.drive([request("atlantis")])
        assert crashed.outcome == "crashed"
        assert "UnknownDomainError" in crashed.error
        assert service.webs == before
        req = request("book", tenant="globex")
        (served,) = service.drive([req])
        assert served.outcome == "completed"
        # the failed build was attempted; book's Web was not rebuilt
        assert corpus_builds == [("book", 1), ("atlantis", 1)]
        assert json.dumps(strip_service_section(served.export),
                          sort_keys=True) \
            == standalone_export(service, served, req)


class TestSharedIndex:
    def test_engines_over_one_index_count_apart(self):
        web = build_web("book", 1)
        first = SearchEngine(index=web)
        second = SearchEngine(index=web)
        first.num_hits("book")
        first.search('"such as"')
        second.num_hits_proximity("title", "book")
        assert (first.query_count, second.query_count) == (2, 1)
        assert first.index is second.index is web

    def test_engine_over_index_answers_like_one_over_documents(self):
        own = SearchEngine(build_corpus("auto", 1))
        shared = SearchEngine(index=build_web("auto", 1))
        for query in ('"makes such as"', "+honda", '"make honda"'):
            assert shared.num_hits(query) == own.num_hits(query)
            assert shared.search(query) == own.search(query)

    def test_documents_and_index_are_exclusive(self):
        with pytest.raises(ValueError):
            SearchEngine([], index=build_web("book", 1))
