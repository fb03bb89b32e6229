"""The simulated search engine (the reproduction's "Google").

Provides the three observables WebIQ needs:

- :meth:`SearchEngine.search` — top-k results with snippets for a
  Google-dialect query (quoted phrases, ``+required`` keywords);
- :meth:`SearchEngine.num_hits` — hit counts for validation queries, feeding
  the PMI computation;
- :meth:`SearchEngine.num_hits_proximity` — hit counts for the paper's
  proximity validation pattern "L x", where the label and the candidate
  must co-occur within a small window rather than as one exact phrase.

Every call increments :attr:`SearchEngine.query_count`; the WebIQ pipeline
reads that counter to charge simulated latency for Figure 8. The counter
lives on the engine, not the index, so engines sharing one built
:class:`~repro.surfaceweb.index.InvertedIndex` count their queries apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.surfaceweb.document import Document
from repro.surfaceweb.index import InvertedIndex
from repro.surfaceweb.query import ParsedQuery, QueryParser
from repro.text.tokenizer import words as word_tokens
from repro.util import counters as work

__all__ = ["SearchEngine", "SearchResult"]

#: Word-distance used by proximity hit counting; small, as the paper's
#: proximity pattern "simply considers the proximity of L and x".
DEFAULT_PROXIMITY_WINDOW = 4


@dataclass(frozen=True)
class SearchResult:
    """One search hit: the page's identity plus a text snippet."""

    doc_id: int
    url: str
    title: str
    snippet: str


class SearchEngine:
    """Conjunctive phrase/term search with snippets and hit counts."""

    def __init__(
        self,
        documents: Optional[Iterable[Document]] = None,
        *,
        index: Optional[InvertedIndex] = None,
    ) -> None:
        """Index ``documents``, or search the already built ``index``.

        A built index is only read, so any number of engines can share
        one Surface Web; each keeps its own :attr:`query_count`.
        """
        if index is None:
            index = InvertedIndex()
            if documents is not None:
                index.add_all(documents)
        elif documents is not None:
            raise ValueError("pass documents or a built index, not both")
        self.index = index
        self._parser = QueryParser()
        self.query_count = 0

    @property
    def n_documents(self) -> int:
        return self.index.n_documents

    def reset_query_count(self) -> None:
        self.query_count = 0

    # ------------------------------------------------------------------ API
    def search(self, query: str, max_results: int = 10) -> List[SearchResult]:
        """Top-``max_results`` hits for a Google-dialect query string.

        Results are relevance-ranked: documents with more occurrences of
        the query's phrases and terms come first (our corpus has no link
        graph, so term evidence is the whole signal); ties break on doc_id
        for determinism. The snippet is centred just past the first
        occurrence of the query's first phrase so that cue-phrase
        completions are visible to the extractor.
        """
        self.query_count += 1
        if work.ACTIVE is not None:
            work.ACTIVE.bump("engine.round_trips")
        parsed = self._parser.parse(query)
        ranked = sorted(
            self._matching_docs(parsed),
            key=lambda doc_id: (-self._relevance(doc_id, parsed), doc_id),
        )[:max_results]
        results = []
        for doc_id in ranked:
            doc = self.index.document(doc_id)
            results.append(
                SearchResult(doc_id, doc.url, doc.title, self._snippet(doc, parsed))
            )
        return results

    def _relevance(self, doc_id: int, parsed: ParsedQuery) -> int:
        """Occurrence-count relevance of one matching document."""
        score = 0
        for phrase in parsed.phrases:
            score += 3 * len(self.index.phrase_positions(list(phrase), doc_id))
        words = self.index.document(doc_id).words
        for term in parsed.required_terms + parsed.plain_terms:
            score += words.count(term.lower())
        return score

    def num_hits(self, query: str) -> int:
        """Number of documents matching ``query`` (the "NumHits" oracle).

        A query that is exactly one quoted phrase of at least one word
        (every validation query) is read with the one ``word_tokens``
        call the parser would make and counted by the index without
        building a page set; any other query is parsed, so a malformed
        one raises :class:`~repro.util.errors.QuerySyntaxError` as ever.
        """
        self.query_count += 1
        if work.ACTIVE is not None:
            work.ACTIVE.bump("engine.round_trips")
        if (len(query) > 2 and query[0] == '"' and query[-1] == '"'
                and query.count('"') == 2):
            phrase = word_tokens(query[1:-1])
            if phrase:  # the index lower-cases it, as the parser would
                return self.index.phrase_count(phrase)
        return len(self._matching_docs(self._parser.parse(query)))

    def num_hits_proximity(
        self,
        phrase_a: str,
        phrase_b: str,
        window: int = DEFAULT_PROXIMITY_WINDOW,
    ) -> int:
        """Documents where two phrases co-occur within ``window`` words.

        Implements the proximity validation pattern "L x": the label and the
        candidate need not be adjacent, only near each other.
        """
        self.query_count += 1
        if work.ACTIVE is not None:
            work.ACTIVE.bump("engine.round_trips")
        a = word_tokens(phrase_a.lower())
        b = word_tokens(phrase_b.lower())
        if not a or not b:
            return 0
        return self.index.cooccurrence_count(a, b, window)

    # ------------------------------------------------------------- internals
    def _matching_docs(self, parsed: ParsedQuery) -> Set[int]:
        candidates: Optional[Set[int]] = None

        def narrow(docs: Set[int]) -> Set[int]:
            nonlocal candidates
            if candidates is None:
                candidates = docs
            else:
                if work.ACTIVE is not None:
                    work.ACTIVE.bump("index.intersections")
                candidates = candidates & docs
            return candidates

        for phrase in parsed.phrases:
            if not narrow(self.index.documents_with_phrase(phrase)):
                return set()
        for term in parsed.required_terms + parsed.plain_terms:
            if not narrow(self.index.documents_with_term(term)):
                return set()
        return candidates or set()

    def _snippet(self, doc: Document, parsed: ParsedQuery) -> str:
        if parsed.phrases:
            positions = self.index.phrase_positions(parsed.phrases[0], doc.doc_id)
            if positions:
                # Centre the snippet window just past the cue phrase so the
                # completion list that follows it is fully visible.
                anchor = min(
                    positions[0] + len(parsed.phrases[0]), len(doc.words) - 1
                )
                return doc.snippet_around(anchor, width=14)
        for term in parsed.required_terms + parsed.plain_terms:
            if self.index.term_in_document(term, doc.doc_id):
                pos = self.index.phrase_positions([term], doc.doc_id)
                if pos:
                    return doc.snippet_around(pos[0], width=14)
        return doc.snippet_around(0, width=14) if doc.words else ""
