"""Focused tests for the §5 donor-selection rules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acquisition import (
    AcquisitionConfig,
    InstanceAcquirer,
    _DonorIndex,
    _form_counts,
)
from repro.checkpoint import CheckpointConfig, RunJournal
from repro.core import pipeline
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.deepweb.models import Attribute, AttributeKind, QueryInterface
from repro.matching.similarity import (
    label_similarity,
    label_vector,
    value_similarity,
    values_similar,
)
from repro.surfaceweb.engine import SearchEngine
from repro.util import counters as work
from repro.util.errors import PreemptionError


def select(name, label, values):
    return Attribute(name=name, label=label, kind=AttributeKind.SELECT,
                     instances=tuple(values))


def text(name, label, acquired=()):
    attr = Attribute(name=name, label=label)
    attr.acquired.extend(acquired)
    return attr


def acquirer_with(interfaces, config=None):
    acq = InstanceAcquirer(SearchEngine([]), {},
                           config or AcquisitionConfig())
    acq._interfaces = interfaces
    return acq


def brute_force_count(values_a, values_b):
    """The §5 rule as written: every value of A against every value of B."""
    return sum(any(values_similar(a, b) for b in values_b) for a in values_a)


def indexed_count(values_a, values_b):
    """The donor index's overlap of recipient ``values_a`` with a lone
    donor whose pre-defined values are ``values_b``."""
    donor_if = QueryInterface("d", "airfare", "flight",
                              [select("b", "B", values_b)])
    index = _DonorIndex([donor_if], AcquisitionConfig(), label_vector)
    _, overlap = index.tally(_form_counts(values_a))
    return overlap.get(0, 0)


#: words whose case, padding and combinations collide in every way the
#: index must handle: equal forms, shared words, Jaccard just above and
#: below 0.5, empty and whitespace-only values
_WORDS = st.sampled_from(["air", "Air", "AIR", "canada", "lines", "united",
                          "delta", "x"])
_VALUES = st.one_of(
    st.lists(_WORDS, min_size=1, max_size=4).map(" ".join),
    st.tuples(st.sampled_from(["", " ", "  ", "\t"]),
              st.lists(_WORDS, max_size=3).map(" ".join),
              st.sampled_from(["", " ", "\n"])).map("".join),
)


class TestCountSimilarValues:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VALUES, max_size=8), st.lists(_VALUES, max_size=8))
    def test_indexed_count_equals_brute_force(self, values_a, values_b):
        assert (indexed_count(values_a, values_b)
                == brute_force_count(values_a, values_b))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=6), max_size=6),
           st.lists(st.text(max_size=6), max_size=6))
    def test_indexed_count_equals_brute_force_on_any_text(self, values_a,
                                                          values_b):
        assert (indexed_count(values_a, values_b)
                == brute_force_count(values_a, values_b))

    def test_duplicates_count_once_per_occurrence(self):
        assert indexed_count(["Air", " air", "AIR ", "x"],
                             ["air lines"]) == 3

    def test_empty_values_match_only_empty_values(self):
        assert indexed_count(["", "  "], ["\t"]) == 2
        assert indexed_count(["", "  "], ["air"]) == 0

    def test_comparisons_counted(self):
        counters = work.WorkCounters()
        with work.collecting(counters):
            assert indexed_count(
                ["united airlines", "delta", "klm"],
                ["United", "Aer Lingus", "KLM"]) == 2
        # only the recipient forms sharing a word are ever compared
        assert counters.get("donor.value_comparisons") == 2

    def test_exact_matches(self):
        assert indexed_count(["a", "b"], ["A", "c"]) == 1

    def test_word_overlap_matches(self):
        assert indexed_count(
            ["United Airlines"], ["United", "Delta"]) == 1

    def test_empty(self):
        assert indexed_count([], ["a"]) == 0


class TestCase1Donors:
    def make_world(self):
        target_if = QueryInterface("t", "airfare", "flight", [
            text("from", "From"),
            select("class", "Class", ["Economy", "Business"]),
        ])
        donor_if = QueryInterface("d", "airfare", "flight", [
            text("fromcity", "From city",
                 acquired=[f"City{i}" for i in range(10)]),
            select("class", "Class", ["Economy", "First Class"]),
        ])
        return target_if, donor_if

    def test_label_similar_donor_found(self):
        target_if, donor_if = self.make_world()
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert [(i, d.label) for i, d in donors] == [("d", "From city")]

    def test_label_threshold_gates(self):
        target_if, donor_if = self.make_world()
        config = AcquisitionConfig(label_sim_threshold=0.9)
        acq = acquirer_with([target_if, donor_if], config)
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert donors == []

    def test_donor_similar_to_sibling_predefined_rejected(self):
        # donor's domain overlaps the target interface's Class values ->
        # "very unlikely that Y has pre-defined values while X1 does not"
        target_if, donor_if = self.make_world()
        clash = text("fromclash", "From options",
                     acquired=["Economy", "Business"] +
                              [f"v{i}" for i in range(8)])
        donor_if.attributes.append(clash)
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert "From options" not in [d.label for _, d in donors]

    def test_failed_acquisitions_not_donors(self):
        target_if, donor_if = self.make_world()
        junky = text("fromjunk", "From place", acquired=["junk1", "junk2"])
        donor_if.attributes.append(junky)
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert "From place" not in [d.label for _, d in donors]

    def test_same_interface_never_donates(self):
        target_if, _ = self.make_world()
        lonely = acquirer_with([target_if])
        donors = lonely._case1_donors(target_if, target_if.attribute("from"))
        assert donors == []

    def test_donors_sorted_by_label_similarity(self):
        target_if, donor_if = self.make_world()
        exact = text("from2", "From", acquired=[f"X{i}" for i in range(10)])
        donor_if.attributes.append(exact)
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case1_donors(target_if, target_if.attribute("from"))
        assert donors[0][1].label == "From"


class TestConfig:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_min_similar_values_below_one_rejected(self, bad):
        # §5 asks for similar values shared; the case-2 scan reads only
        # donors sharing one, which is every candidate only from 1 up
        with pytest.raises(ValueError, match="min_similar_values"):
            AcquisitionConfig(min_similar_values=bad)


class TestCase2Donors:
    def make_world(self, donor_values):
        # enough own values that a 2-value overlap stays well under the
        # case2_skip_overlap containment threshold
        target_if = QueryInterface("t", "airfare", "flight", [
            select("airline", "Airline",
                   ["Air Canada", "United Airlines", "Delta Air Lines",
                    "Southwest Airlines", "Alaska Airlines",
                    "JetBlue Airways"]),
        ])
        donor_if = QueryInterface("d", "airfare", "flight", [
            select("airline", "Carrier", donor_values),
        ])
        return target_if, donor_if

    def test_two_shared_values_qualify(self):
        target_if, donor_if = self.make_world(
            ["Air Canada", "United Airlines", "Aer Lingus", "KLM",
             "Alitalia", "Iberia", "Finnair"])
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case2_donors(target_if, target_if.attribute("airline"))
        assert [(i, d.label) for i, d in donors] == [("d", "Carrier")]

    def test_one_shared_value_insufficient(self):
        target_if, donor_if = self.make_world(
            ["Air Canada", "Aer Lingus", "KLM", "Alitalia"])
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case2_donors(target_if, target_if.attribute("airline"))
        assert donors == []

    def test_near_identical_domain_skipped(self):
        # nothing to gain from a donor whose values X1 already has
        target_if, donor_if = self.make_world(
            ["Air Canada", "United Airlines", "Delta Air Lines",
             "Southwest Airlines", "Alaska Airlines"])
        acq = acquirer_with([target_if, donor_if])
        donors = acq._case2_donors(target_if, target_if.attribute("airline"))
        assert donors == []


def reference_donors(acq, interface):
    """Every eligible donor on an interface other than ``interface``, in
    interface order, then attribute order, from the current values."""
    return [(other, donor) for other in acq._interfaces
            if other.interface_id != interface.interface_id
            for donor in other.attributes
            if donor.has_instances or len(donor.acquired) >= acq.config.k]


def reference_case1(acq, interface, attribute):
    """``_case1_donors`` as first written, from the reference functions."""
    others = [y for y in interface.attributes
              if y.name != attribute.name and y.instances]
    scored = []
    for other_interface, donor in reference_donors(acq, interface):
        sim = label_similarity(attribute.label, donor.label)
        if sim < acq.config.label_sim_threshold:
            continue
        donor_values = donor.all_instances()
        if any(value_similarity(donor_values, list(y.instances))
               > acq.config.domain_dissimilar_max for y in others):
            continue
        scored.append((sim, other_interface.interface_id, donor))
    scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
    return [(interface_id, donor) for _, interface_id, donor in scored]


def reference_case2(acq, interface, attribute):
    """``_case2_donors`` as first written, with the brute-force count."""
    own = attribute.all_instances()
    scored = []
    for other_interface, donor in reference_donors(acq, interface):
        donor_values = donor.all_instances()
        if not donor_values:
            continue
        if value_similarity(own, donor_values) >= acq.config.case2_skip_overlap:
            continue
        overlap = brute_force_count(own, donor_values)
        if overlap >= acq.config.min_similar_values:
            scored.append((overlap, other_interface.interface_id, donor))
    scored.sort(key=lambda item: (-item[0], item[2].label.lower()))
    return [(interface_id, donor) for _, interface_id, donor in scored]


class TestDonorSelectionMatchesReference:
    """On a post-acquisition Figure-6 world, where donors carry acquired
    values, both donor rules pick exactly the reference donors in the
    reference order."""

    @pytest.fixture(scope="class")
    def world(self):
        dataset = build_domain_dataset("airfare", n_interfaces=8, seed=1)
        WebIQMatcher(WebIQConfig()).run(dataset)
        return acquirer_with(dataset.interfaces)

    def test_case1(self, world):
        checked = 0
        for interface in world._interfaces:
            for attribute in interface.attributes:
                assert (world._case1_donors(interface, attribute)
                        == reference_case1(world, interface, attribute))
                checked += 1
        assert checked

    def test_case2(self, world):
        selected = 0
        for interface in world._interfaces:
            for attribute in interface.attributes:
                if not attribute.has_instances:
                    continue
                donors = world._case2_donors(interface, attribute)
                assert donors == reference_case2(world, interface, attribute)
                selected += len(donors)
        assert selected


#: one attribute of a generated world: SELECT with pre-defined values, or
#: TEXT with acquired ones; labels collide so the label tie-break matters,
#: share a word at cosines of 0.5 and 0.71 so every threshold gates some
#: pair, and are stopword-only (an empty label vector) in two spellings
_ATTRIBUTE = st.tuples(st.booleans(),
                       st.sampled_from(["Airline", "airline", "Carrier",
                                        "Airline name", "Carrier name",
                                        "Airline carrier", "the",
                                        "Select a"]),
                       st.lists(_VALUES, max_size=5))
_WORLD = st.lists(st.lists(_ATTRIBUTE, min_size=1, max_size=3),
                  min_size=2, max_size=4)
#: appends between donor queries: (attribute pick, values to append)
_APPENDS = st.lists(st.tuples(st.integers(min_value=0, max_value=99),
                              st.lists(_VALUES, min_size=1, max_size=3)),
                    min_size=1, max_size=6)


class TestIncrementalDonorIndex:
    """The index is built once per run and kept current by the acquirer's
    notice after each unit, which re-indexes the notified donor if its
    acquired list grew; after every append and its notice both donor
    rules must still equal the reference scan over the current values."""

    @settings(max_examples=150, deadline=None)
    @given(_WORLD, _APPENDS, st.integers(min_value=1, max_value=3),
           st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 0.3, 0.5]))
    def test_appends_keep_donors_equal_to_reference(
            self, world, appends, k, min_similar_values, label_sim_threshold):
        interfaces = []
        for i, attributes in enumerate(world):
            built = []
            for j, (is_select, label, values) in enumerate(attributes):
                if is_select and values:
                    built.append(select(f"a{j}", label, values))
                else:
                    built.append(text(f"a{j}", label, acquired=values))
            interfaces.append(QueryInterface(f"i{i}", "airfare", "flight",
                                             built))
        acq = acquirer_with(interfaces, AcquisitionConfig(
            k=k, min_similar_values=min_similar_values,
            label_sim_threshold=label_sim_threshold))
        slots = [(interface, attribute) for interface in interfaces
                 for attribute in interface.attributes]

        def check():
            for interface, attribute in slots:
                assert (acq._case2_donors(interface, attribute)
                        == reference_case2(acq, interface, attribute))
                assert (acq._case1_donors(interface, attribute)
                        == reference_case1(acq, interface, attribute))
                # the kept eligible count equals a scan's
                assert acq._donor_index().count(interface) \
                    == len(reference_donors(acq, interface))

        check()
        for pick, values in appends:
            interface, attribute = slots[pick % len(slots)]
            attribute.acquired.extend(values)
            acq._notify_donor_index(interface, attribute)
            check()


#: the index state a notified index and a fresh build must agree on
_INDEX_STATE = ("_versions", "_forms", "_holders", "_postings", "_eligible",
                "_label_postings")


class TestDonorIndexAfterResume:
    """A resumed run replays its journaled units, then runs the rest
    fresh; the index it keeps current by notices must end equal to one
    built fresh over the same interfaces."""

    @pytest.mark.parametrize("phase", ["attr_deep", "attr_surface"])
    def test_resumed_index_equals_a_fresh_build(self, tmp_path, monkeypatch,
                                                phase):
        def run(checkpoint):
            return WebIQMatcher(WebIQConfig(checkpoint=checkpoint)).run(
                build_domain_dataset("book", 3, 1))

        run(CheckpointConfig(directory=str(tmp_path / "probe")))
        records = RunJournal.open(str(tmp_path / "probe")).records
        boundaries = [index for index, body in enumerate(records)
                      if body["unit"][0] == phase]
        kill_at = boundaries[len(boundaries) // 2]
        directory = str(tmp_path / "journal")
        with pytest.raises(PreemptionError):
            run(CheckpointConfig(directory=directory, kill_at=kill_at))

        compared = []

        class Compared(InstanceAcquirer):
            def _acquire(self, *args):
                report = super()._acquire(*args)
                kept = self._donor_forms
                fresh = _DonorIndex(self._interfaces, self.config,
                                    self._label_vector)
                compared.append({
                    name: (getattr(kept, name, None), getattr(fresh, name))
                    for name in _INDEX_STATE})
                return report

        monkeypatch.setattr(pipeline, "InstanceAcquirer", Compared)
        result = run(CheckpointConfig(directory=directory, resume=True))
        assert result.checkpoint.replayed_records == kill_at + 1
        (state,) = compared
        for name, (kept, fresh) in state.items():
            assert kept == fresh, name
