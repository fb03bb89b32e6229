"""Inverted index over :class:`~repro.surfaceweb.document.Document`.

The index maps each word to the pages that contain it, twice over: a
bitmap (a Python ``int`` with bit ``doc_id`` set) that phrase queries
intersect in C, and an ``array`` of doc-ids in the order the pages were
added (in the narrowest typecode that holds them), from which term
queries copy their result sets in C. It stores no word positions: a
page's word list is already interned
(:class:`~repro.surfaceweb.document.Document`), so the positions of a
word on one page come from scanning that short list with C-level
``list.index``. Most (word, page) pairs occur once, so a per-page
position list would cost far more memory than it saves time; a third
bitmap per word marks the pages that hold it more than once, and only
there does a scan look past the first hit.

Positions allow exact phrase matching (consecutive positions) and proximity
co-occurrence tests, both of which the search engine needs: phrase matching
for extraction/validation queries and proximity for the paper's
"L x" proximity validation pattern.

An index is built once (:meth:`InvertedIndex.add` / :meth:`add_all`) and
then only read: one built index is shared by every
:class:`~repro.surfaceweb.engine.SearchEngine` over the same Surface Web,
so no read mutates it and no caller adds pages to an index it shares.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence, Set

from repro.surfaceweb.document import Document, compact_typecode
from repro.util import counters as work

__all__ = ["InvertedIndex"]


def _bin_popcount(bits: int) -> int:
    """Set bits of a non-negative ``bits``, where ``int.bit_count``
    (Python 3.10+) is missing."""
    return bin(bits).count("1")


#: number of set bits of a non-negative int (a page bitmap's page count)
_popcount = getattr(int, "bit_count", _bin_popcount)


class InvertedIndex:
    """In-memory inverted index at page level.

    An index is built once, by :meth:`add`/:meth:`add_all`, and then
    only read: engines and requests share it, so nothing may add pages
    to an index that is in use.
    """

    def __init__(self) -> None:
        #: word -> bitmap of the doc-ids containing it
        self._bits: Dict[str, int] = {}
        #: word -> bitmap of the doc-ids containing it twice or more; a
        #: word absent here occurs at most once on every page
        self._repeats: Dict[str, int] = {}
        #: word -> the doc-ids containing it, in the order they were added
        self._pages: Dict[str, array] = {}
        self._documents: Dict[int, Document] = {}

    # ------------------------------------------------------------------ build
    def add(self, document: Document) -> None:
        """Index one document; re-adding a doc_id raises ``ValueError``,
        and so does a negative one (it has no bit in a bitmap)."""
        doc_id = document.doc_id
        if doc_id in self._documents:
            raise ValueError(f"duplicate doc_id {doc_id}")
        if doc_id < 0:
            raise ValueError(f"negative doc_id {doc_id}")
        self._documents[doc_id] = document
        bit = 1 << doc_id
        bits, repeats, pages = self._bits, self._repeats, self._pages
        repeated: Dict[str, bool] = {}
        for word in document.words:
            repeated[word] = word in repeated
        for word, again in repeated.items():
            if word in bits:
                bits[word] |= bit
                try:
                    pages[word].append(doc_id)
                except OverflowError:  # wider than the list's typecode
                    pages[word] = array(compact_typecode(doc_id), pages[word])
                    pages[word].append(doc_id)
            else:
                bits[word] = bit
                pages[word] = array(compact_typecode(doc_id), (doc_id,))
            if again:
                repeats[word] = repeats.get(word, 0) | bit

    def add_all(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add(document)

    # ------------------------------------------------------------------ reads
    @property
    def n_documents(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._bits)

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def documents_with_term(self, term: str) -> Set[int]:
        """Doc-ids containing ``term`` (lower-cased exact match)."""
        return set(self._pages.get(term.lower(), ()))

    def term_in_document(self, term: str, doc_id: int) -> bool:
        """Does ``term`` occur in ``doc_id``? One bit test — unlike
        :meth:`documents_with_term`, no postings set is materialised,
        so membership tests on the search hot path stay cheap."""
        return doc_id in self._documents and bool(
            self._bits.get(term.lower(), 0) >> doc_id & 1)

    def term_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across the corpus."""
        word = term.lower()
        return sum(self._documents[d].words.count(word)
                   for d in self._pages.get(word, ()))

    def phrase_positions(self, phrase: Sequence[str], doc_id: int) -> List[int]:
        """Start word-positions of exact occurrences of ``phrase`` in a doc.

        Each occurrence of the first word on the page is a candidate start;
        it is kept when the page's word list, sliced there, equals the
        phrase.
        """
        phrase = [w.lower() for w in phrase]
        document = self._documents.get(doc_id)
        if (not phrase or document is None
                or not self._bits.get(phrase[0], 0) >> doc_id & 1):
            return []
        return _starts(document.words, phrase,
                       self._repeats.get(phrase[0], 0) >> doc_id & 1)

    def documents_with_phrase(self, phrase: Sequence[str]) -> Set[int]:
        """Doc-ids containing ``phrase`` as consecutive words."""
        phrase = [w.lower() for w in phrase]
        if len(phrase) < 2:
            return self.documents_with_term(phrase[0]) if phrase else set()
        return set(self._phrase_pages(phrase))

    def phrase_count(self, phrase: Sequence[str]) -> int:
        """``len(documents_with_phrase(phrase))``, counted without
        building the set: a one-word phrase is the popcount of its
        word's bitmap, a longer one the length of the same walk's page
        list."""
        phrase = [w.lower() for w in phrase]
        if len(phrase) < 2:
            return _popcount(self._bits.get(phrase[0], 0)) if phrase else 0
        return len(self._phrase_pages(phrase))

    def _phrase_pages(self, phrase: List[str]) -> List[int]:
        """The pages holding the lower-cased ``phrase`` of two or more
        words, in the order its rarest word's pages were added."""
        found = self._phrase_bits(phrase)
        if not found:
            return []
        # Every phrase word is present, so each has a page list; the
        # rarest one enumerates the surviving bits. About half the
        # survivors lack the phrase, and most of those hold its first
        # word once: only a repeated first word needs a second scan.
        rarest = min(map(self._pages.__getitem__, phrase), key=len)
        first, n = phrase[0], len(phrase)
        repeats = self._repeats.get(first, 0)
        documents = self._documents
        pages: List[int] = []
        for d in rarest:
            if found >> d & 1:
                words = documents[d].words
                p = words.index(first)
                if words[p:p + n] == phrase or (
                        repeats >> d & 1 and _starts(words, phrase, True)):
                    pages.append(d)
        return pages

    def cooccurrence_count(
        self,
        phrase_a: Sequence[str],
        phrase_b: Sequence[str],
        window: int,
    ) -> int:
        """Number of pages where both phrases occur within ``window`` words.

        The distance is measured between the end of one phrase and the start
        of the other (order-insensitive); ``window=0`` means adjacency. The
        two occurrences must not overlap: a phrase nested inside the other
        (e.g. "city" within "new york city") is one mention, not two
        co-occurring ones.

        Only pages holding every word of both phrases are read, and each
        is phrase-checked once; the work counters read as if each
        phrase's documents were found first and then intersected.
        """
        phrase_a = [w.lower() for w in phrase_a]
        phrase_b = [w.lower() for w in phrase_b]
        found = self._phrase_bits(phrase_a)
        found &= self._phrase_bits(phrase_b)
        if work.ACTIVE is not None:
            work.ACTIVE.bump("index.intersections")
        if not found:
            return 0
        len_a, len_b = len(phrase_a), len(phrase_b)
        rarest = min(map(self._pages.__getitem__, phrase_a + phrase_b),
                     key=len)
        repeats_a = self._repeats.get(phrase_a[0], 0)
        repeats_b = self._repeats.get(phrase_b[0], 0)
        documents = self._documents
        count = 0
        for d in rarest:
            if not found >> d & 1:
                continue
            words = documents[d].words
            pos_a = _starts(words, phrase_a, repeats_a >> d & 1)
            pos_b = pos_a and _starts(words, phrase_b, repeats_b >> d & 1)
            if not pos_b:
                continue
            if work.ACTIVE is not None:
                work.ACTIVE.bump("index.window_checks")
            if _within_window(pos_a, len_a, pos_b, len_b, window):
                count += 1
        return count

    def _phrase_bits(self, phrase: List[str]) -> int:
        """Bitmap of the pages holding every word of the lower-cased
        ``phrase`` (0 when it is empty). The words' bitmaps intersect in
        C, one ``index.intersections`` bump per word after the first; an
        empty running intersection stops the walk, as a posting-set walk
        would."""
        if not phrase:
            return 0
        bits = self._bits
        found = bits.get(phrase[0], 0)
        for word in phrase[1:]:
            if not found:
                return 0
            if work.ACTIVE is not None:
                work.ACTIVE.bump("index.intersections")
            found &= bits.get(word, 0)
        return found


def _starts(words: List[str], phrase: List[str], repeated: int) -> List[int]:
    """Every start where ``words`` holds the lower-cased ``phrase``, whose
    first word it contains: once, or more often when ``repeated``. The
    occurrences are found by C-level scans of the page's word list."""
    first, n = phrase[0], len(phrase)
    starts: List[int] = []
    p = -1
    for _ in range(words.count(first) if repeated else 1):
        p = words.index(first, p + 1)
        if n == 1 or words[p:p + n] == phrase:
            starts.append(p)
    return starts


def _within_window(
    pos_a: List[int], len_a: int, pos_b: List[int], len_b: int, window: int
) -> bool:
    """True if some *non-overlapping* occurrence pair is within ``window``.

    The gap is the number of words strictly between the two spans; a
    negative gap means the spans overlap and the pair is not a
    co-occurrence at all (counting it would let a label match inside the
    candidate itself and inflate PMI proximity counts).
    """
    for a in pos_a:
        end_a = a + len_a - 1
        for b in pos_b:
            end_b = b + len_b - 1
            gap = max(a - end_b, b - end_a) - 1
            if 0 <= gap <= window:
                return True
    return False
