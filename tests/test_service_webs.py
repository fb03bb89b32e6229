"""The service's domain-world table: one built world per domain.

A domain's indexed corpus depends only on ``(domain, seed)``, so the
service builds its :class:`~repro.datasets.dataset.DomainWorld` (the Web
and that Web's Surface memo) on a domain's first request and hands it to
every later request for that domain, each through a fresh engine. The
table holds the last seed asked per domain, a failed build never enters
it, and sharing the world leaves every export byte-identical to a
standalone run.
"""

import json

import pytest

import repro.datasets.dataset as dataset_module
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.datasets.corpus import build_corpus
from repro.datasets.dataset import build_world
from repro.io import run_result_to_dict, strip_service_section
from repro.matching.clustering import IceQMatcher
from repro.resilience import FaultProfile, ResilienceConfig
from repro.service import MatchRequest, MatchingService
from repro.surfaceweb.engine import SearchEngine
from repro.util.errors import InjectedCrashError

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


def request(domain, seed=1, tenant="acme", config=None):
    return MatchRequest(tenant=tenant, domain=domain,
                        n_interfaces=N_INTERFACES, seed=seed,
                        config=config or WebIQConfig())


def served_export(response):
    return json.dumps(strip_service_section(response.export),
                      sort_keys=True)


def memo_entries(memo):
    """Extractions plus label analyses a memo holds."""
    return len(memo._extractions) + len(memo._labels)


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
        assert sorted(service.worlds) == sorted(domains)

    def test_requests_share_the_domain_web(self):
        service = MatchingService()
        service.drive([request("book")])
        world = service.worlds["book"]
        service.drive([request("book", tenant="globex")])
        assert service.worlds["book"] is world
        assert (world.domain, world.seed) == ("book", 1)

    def test_another_seed_replaces_the_domain_web(self, corpus_builds):
        service = MatchingService()
        service.drive([request("book"), request("auto")])
        old = service.worlds["book"]
        auto = service.worlds["auto"]
        responses = service.drive([request("book", seed=2)])
        assert responses[0].outcome == "completed"
        assert corpus_builds == [("book", 1), ("auto", 1), ("book", 2)]
        world = service.worlds["book"]
        assert world.seed == 2 and world.index is not old.index \
            and world.memo is not old.memo
        assert memo_entries(world.memo) > 0
        assert sorted(service.worlds) == ["auto", "book"]
        assert service.worlds["auto"] is auto

    def test_unknown_domain_crashes_alone(self, corpus_builds):
        service = MatchingService()
        service.drive([request("book")])
        before = dict(service.worlds)
        entries = memo_entries(before["book"].memo)
        (crashed,) = service.drive([request("atlantis")])
        assert crashed.outcome == "crashed"
        assert "UnknownDomainError" in crashed.error
        assert service.worlds == before
        assert all(service.worlds[d] is before[d] for d in before)
        assert memo_entries(service.worlds["book"].memo) == entries
        req = request("book", tenant="globex")
        (served,) = service.drive([req])
        assert served.outcome == "completed"
        # the failed build was attempted; book's Web was not rebuilt
        assert corpus_builds == [("book", 1), ("atlantis", 1)]
        assert served_export(served) \
            == standalone_export(service, served, req)


class TestSharedMemo:
    def test_one_memo_per_domain(self):
        service = MatchingService()
        service.drive([request(d) for d in ["book", "auto"] * 2])
        book, auto = service.worlds["book"].memo, service.worlds["auto"].memo
        assert book is not auto
        assert memo_entries(book) > 0 and memo_entries(auto) > 0

    @pytest.mark.parametrize("faults", [False, True],
                             ids=["clean", "faulted"])
    def test_later_requests_equal_standalone(self, faults):
        # faults garble some snippets, so the memo also holds truncated
        # variants that a later request may or may not see again
        config = WebIQConfig(resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.25, seed=11))) \
            if faults else WebIQConfig()
        service = MatchingService()
        reqs = [request("book", config=config),
                request("job", config=config),
                request("book", tenant="globex", config=config),
                request("book", tenant="initech", config=config)]
        # one at a time: drive() answers in dispatch order, not in order
        responses = [service.drive([req])[0] for req in reqs]
        assert [r.outcome for r in responses] == ["completed"] * 4
        for req, response in zip(reqs[2:], responses[2:]):
            assert served_export(response) \
                == standalone_export(service, response, req)

    def test_second_identical_round_adds_no_entries(self):
        service = MatchingService()
        round_ = [request(d) for d in ("book", "auto", "job")]
        service.drive(round_)
        before = {d: memo_entries(service.worlds[d].memo)
                  for d in ("book", "auto", "job")}
        responses = service.drive(
            [request(d, tenant="globex") for d in ("book", "auto", "job")])
        assert [r.outcome for r in responses] == ["completed"] * 3
        assert {d: memo_entries(service.worlds[d].memo)
                for d in ("book", "auto", "job")} == before

    def test_crashed_request_entries_leave_later_exports_unchanged(
            self, monkeypatch):
        service = MatchingService()
        service.drive([request("book")])
        memo = service.worlds["book"].memo
        entries = memo_entries(memo)

        def crash(*args, **kwargs):
            raise InjectedCrashError("injected")

        # The crashing request acquires instances for more interfaces than
        # the first one, filling the memo with new extractions, and then
        # crashes in matching.
        with monkeypatch.context() as patched:
            patched.setattr(IceQMatcher, "match", crash)
            (crashed,) = service.drive([MatchRequest(
                tenant="globex", domain="book", n_interfaces=4, seed=1)])
        assert crashed.outcome == "crashed"
        assert memo_entries(memo) > entries
        assert service.worlds["book"].memo is memo
        req = MatchRequest(tenant="initech", domain="book",
                           n_interfaces=4, seed=1)
        (served,) = service.drive([req])
        assert served.outcome == "completed"
        assert served_export(served) \
            == standalone_export(service, served, req)


class TestSharedIndex:
    def test_engines_over_one_index_count_apart(self):
        web = build_world("book", 1).index
        first = SearchEngine(index=web)
        second = SearchEngine(index=web)
        first.num_hits("book")
        first.search('"such as"')
        second.num_hits_proximity("title", "book")
        assert (first.query_count, second.query_count) == (2, 1)
        assert first.index is second.index is web

    def test_engine_over_index_answers_like_one_over_documents(self):
        own = SearchEngine(build_corpus("auto", 1))
        shared = SearchEngine(index=build_world("auto", 1).index)
        for query in ('"makes such as"', "+honda", '"make honda"'):
            assert shared.num_hits(query) == own.num_hits(query)
            assert shared.search(query) == own.search(query)

    def test_documents_and_index_are_exclusive(self):
        with pytest.raises(ValueError):
            SearchEngine([], index=build_world("book", 1).index)
