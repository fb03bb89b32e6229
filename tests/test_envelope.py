"""The sealed-envelope codec shared by journal, registry and bench files.

One codec seals and verifies every ``{"format", "crc", "body"}`` file, so
its cases are checked here once for all three kinds: round trips, the
CRC pinned against files written before the codec existed, single-byte
damage, and the format gate (an ``int`` from 1 to the kind's maximum,
raised as the kind's own typed error). Each store's own suite keeps the
cases that name its files and records.
"""

import glob
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import (
    BENCH_FORMAT,
    BenchArtifactError,
    load_bench,
    make_envelope,
    write_bench,
)
from repro.checkpoint import JOURNAL_FORMAT, RunJournal
from repro.registry import REGISTRY_FILENAME, REGISTRY_FORMAT, RegistryStore
from repro.util.atomicio import atomic_write_json
from repro.util.envelope import (
    canonical,
    envelope,
    read_sealed,
    record_crc,
    seal,
)
from repro.util.errors import JournalCorruptionError, RegistryCorruptionError

BASELINES = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "baselines")

#: A body and the CRC the pre-codec ``record_crc`` gave it (non-ASCII
#: text, unsorted keys, a float exponent, null and bool). If the canonical
#: encoding ever drifts, this stops matching.
PINNED_BODY = {"label": "Title", "n": {"z": 1, "a": 2},
               "values": ["Moby Dick", "\u00c9mile", None, True, -1.5e-07]}
PINNED_CRC = 3652186159

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
bodies = st.dictionaries(st.text(), json_values, max_size=6)


class Damaged(Exception):
    pass


class Newer(Exception):
    pass


def read(path, max_format=3):
    return read_sealed(path, "test", max_format, Damaged, Newer)


# ------------------------------------------------------------- the codec
class TestSealRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(body=bodies, fmt=st.integers(min_value=1, max_value=3))
    def test_seal_then_read_returns_the_envelope(self, body, fmt):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "sealed.json")
            atomic_write_json(path, seal(body, fmt))
            assert read(path) == envelope(body, fmt)

    @settings(max_examples=150, deadline=None)
    @given(body=bodies, fmt=st.integers(min_value=1, max_value=3))
    def test_file_text_is_the_canonical_envelope(self, body, fmt):
        assert seal(body, fmt) == canonical(envelope(body, fmt))

    @settings(max_examples=150, deadline=None)
    @given(body=bodies, fmt=st.integers(min_value=1, max_value=3))
    @example(body={"a\nb": ["c\r\nd", "\u2028\u00e9\U0001f600"]}, fmt=2)
    def test_sealed_text_is_one_ascii_line(self, body, fmt):
        # The run journal frames one envelope per line of its log.
        text = seal(body, fmt)
        assert text.isascii()
        assert "\n" not in text and "\r" not in text

    def test_crc_matches_files_sealed_before_the_codec(self):
        assert record_crc(PINNED_BODY) == PINNED_CRC
        assert json.loads(seal(PINNED_BODY, 1))["crc"] == PINNED_CRC

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(BASELINES, "BENCH_*.json"))),
        ids=os.path.basename)
    def test_indented_files_written_before_the_codec_load(self, path):
        # The committed bench baselines were sealed with indent=2.
        with open(path, encoding="utf-8") as handle:
            assert handle.read().startswith('{\n  "body": {')
        assert load_bench(path)["format"] == BENCH_FORMAT

    def test_every_flipped_body_byte_is_corruption(self, tmp_path):
        text = seal({"label": "Title", "n": 12345, "ok": True}, 1)
        start = len('{"body":')
        end = text.index(',"crc":')
        path = tmp_path / "sealed.json"
        for position in range(start, end):
            damaged = bytearray(text.encode("utf-8"))
            damaged[position] ^= 0x01
            path.write_bytes(bytes(damaged))
            with pytest.raises(Damaged):
                read(str(path))


# ------------------------------------------------- the three kinds of file
def journal_file(tmp_path):
    # The journal's one sealed file is its meta; its records are lines
    # of journal.log, covered by tests/test_checkpoint_journal.py.
    directory = str(tmp_path / "journal")
    journal = RunJournal.create(directory, {"domain": "book"})
    journal.append({"unit": ["surface", "book-00", "title"]})
    return os.path.join(directory, "meta.json"), \
        lambda: RunJournal.open(directory)


def registry_file(tmp_path):
    directory = str(tmp_path / "registry")
    RegistryStore(domain="book").save(directory)
    return os.path.join(directory, REGISTRY_FILENAME), \
        lambda: RegistryStore.load(directory)


def bench_file(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    write_bench(path, make_envelope("x", {"seed": 1}, {"a": 1}, {}))
    return path, lambda: load_bench(path)


#: kind -> (file factory, newest format, corruption error)
KINDS = {
    "journal": (journal_file, JOURNAL_FORMAT, JournalCorruptionError),
    "registry": (registry_file, REGISTRY_FORMAT, RegistryCorruptionError),
    "bench": (bench_file, BENCH_FORMAT, BenchArtifactError),
}


def rewrite_format(path, value):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["format"] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestEveryKind:
    def test_written_bytes_are_canonical(self, kind, tmp_path):
        make, newest, _ = KINDS[kind]
        path, load = make(tmp_path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
        assert payload["format"] == newest
        assert text == seal(payload["body"], newest)
        load()

    @pytest.mark.parametrize(
        "bad", [0, -1, True, "1", 1.0], ids=repr)
    def test_non_integer_or_low_format_is_corruption(
            self, kind, bad, tmp_path):
        make, _, corrupt = KINDS[kind]
        path, load = make(tmp_path)
        rewrite_format(path, bad)
        with pytest.raises(corrupt, match="unusable"):
            load()

    def test_non_utf8_file_is_corruption(self, kind, tmp_path):
        make, _, corrupt = KINDS[kind]
        path, load = make(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff")
        with pytest.raises(corrupt, match="torn or unparseable"):
            load()
