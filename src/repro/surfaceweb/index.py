"""Positional inverted index over :class:`~repro.surfaceweb.document.Document`.

The index maps each term to postings ``{doc_id: [word positions]}``.
Positions allow exact phrase matching (consecutive positions) and proximity
co-occurrence tests, both of which the search engine needs: phrase matching
for extraction/validation queries and proximity for the paper's
"L x" proximity validation pattern.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set

from repro.surfaceweb.document import Document
from repro.util import counters as work

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """In-memory positional inverted index."""

    def __init__(self) -> None:
        self._postings: Dict[str, Dict[int, List[int]]] = {}
        self._documents: Dict[int, Document] = {}

    # ------------------------------------------------------------------ build
    def add(self, document: Document) -> None:
        """Index one document; re-adding a doc_id raises ``ValueError``."""
        if document.doc_id in self._documents:
            raise ValueError(f"duplicate doc_id {document.doc_id}")
        self._documents[document.doc_id] = document
        for pos, word in enumerate(document.words):
            self._postings.setdefault(word, {}).setdefault(
                document.doc_id, []
            ).append(pos)

    def add_all(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add(document)

    # ------------------------------------------------------------------ reads
    @property
    def n_documents(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def documents_with_term(self, term: str) -> Set[int]:
        """Doc-ids containing ``term`` (lower-cased exact match)."""
        return set(self._postings.get(term.lower(), ()))

    def term_in_document(self, term: str, doc_id: int) -> bool:
        """Does ``term`` occur in ``doc_id``? Direct postings lookup —
        unlike :meth:`documents_with_term`, no postings set is materialised,
        so membership tests on the search hot path stay O(1)."""
        return doc_id in self._postings.get(term.lower(), ())

    def term_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across the corpus."""
        return sum(len(v) for v in self._postings.get(term.lower(), {}).values())

    def phrase_positions(self, phrase: Sequence[str], doc_id: int) -> List[int]:
        """Start word-positions of exact occurrences of ``phrase`` in a doc.

        The first word's postings give the candidate starts; each is kept
        when the page's word list, sliced there, equals the phrase. Postings
        are built from :attr:`Document.words`, so the slice test is exactly
        "every later word sits at its offset".
        """
        phrase = [w.lower() for w in phrase]
        if not phrase:
            return []
        first = self._postings.get(phrase[0], {}).get(doc_id)
        if first is None:
            return []
        if len(phrase) == 1:
            return list(first)
        words = self._documents[doc_id].words
        n = len(phrase)
        return [p for p in first if words[p:p + n] == phrase]

    def documents_with_phrase(self, phrase: Sequence[str]) -> Set[int]:
        """Doc-ids containing ``phrase`` as consecutive words."""
        phrase = [w.lower() for w in phrase]
        if not phrase:
            return set()
        if len(phrase) == 1:
            return self.documents_with_term(phrase[0])
        # postings key views intersect in C, iterating the smaller side
        candidates: Optional[AbstractSet[int]] = None
        for word in phrase:
            docs = self._postings.get(word, {}).keys()
            if candidates is None:
                candidates = docs
            else:
                if work.ACTIVE is not None:
                    work.ACTIVE.bump("index.intersections")
                candidates = candidates & docs
            if not candidates:
                return set()
        assert candidates is not None
        return {d for d in candidates if self._has_phrase(phrase, d)}

    def _has_phrase(self, phrase: List[str], doc_id: int) -> bool:
        """Does lower-cased ``phrase`` (two or more words, the first one
        present in ``doc_id``) occur there? Stops at the first occurrence."""
        words = self._documents[doc_id].words
        n = len(phrase)
        for p in self._postings[phrase[0]][doc_id]:
            if words[p:p + n] == phrase:
                return True
        return False

    def cooccurrence_docs(
        self,
        phrase_a: Sequence[str],
        phrase_b: Sequence[str],
        window: int,
    ) -> Set[int]:
        """Doc-ids where both phrases occur within ``window`` words.

        The distance is measured between the end of one phrase and the start
        of the other (order-insensitive); ``window=0`` means adjacency. The
        two occurrences must not overlap: a phrase nested inside the other
        (e.g. "city" within "new york city") is one mention, not two
        co-occurring ones.
        """
        docs_a = self.documents_with_phrase(phrase_a)
        docs_b = self.documents_with_phrase(phrase_b)
        result: Set[int] = set()
        len_a, len_b = len(list(phrase_a)), len(list(phrase_b))
        if work.ACTIVE is not None:
            work.ACTIVE.bump("index.intersections")
        for doc_id in docs_a & docs_b:
            pos_a = self.phrase_positions(phrase_a, doc_id)
            pos_b = self.phrase_positions(phrase_b, doc_id)
            if work.ACTIVE is not None:
                work.ACTIVE.bump("index.window_checks")
            if _within_window(pos_a, len_a, pos_b, len_b, window):
                result.add(doc_id)
        return result


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
