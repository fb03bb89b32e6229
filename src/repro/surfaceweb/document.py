"""Surface-Web page model.

A :class:`Document` keeps two token views of its text, used by the index
and the snippet generator: the full token sequence (words and
punctuation, as produced by :func:`repro.text.tokenizer.tokenize`) and the
word-only sequence that phrase matching runs over. Keeping both lets phrase
queries ignore punctuation ("Make: Honda" matches the proximity query
``make honda``) while snippets still render the original punctuation that
the extraction rules rely on (comma-separated instance lists).

A page is built once per Surface Web and then only read, so it is stored
compactly: the raw text is tokenised on construction and not kept, every
token and lower-cased word is interned (a corpus repeats a few hundred
distinct words tens of thousands of times, and equal strings now share one
object), so is the title, and the word-to-token map is an
:class:`array.array`.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import InitVar, dataclass, field
from typing import List

from repro.text.tokenizer import tokenize

__all__ = ["Document"]

_intern = sys.intern


@dataclass
class Document:
    """One page of the simulated Surface Web."""

    doc_id: int
    url: str
    title: str
    #: the page's raw text: tokenised on construction, not stored
    text: InitVar[str]
    #: full token list (words + punctuation), computed on construction
    tokens: List[str] = field(init=False, repr=False)
    #: lower-cased word tokens, the sequence phrase matching runs over
    words: List[str] = field(init=False, repr=False)
    #: for each word position, its index in :attr:`tokens`
    word_token_index: array = field(init=False, repr=False)

    def __post_init__(self, text: str) -> None:
        tokens = [_intern(tok) for tok in tokenize(text)]
        words: List[str] = []
        word_token_index: List[int] = []
        for i, tok in enumerate(tokens):
            if tok[0].isalnum() or tok.startswith("$"):
                words.append(_intern(tok.lower()))
                word_token_index.append(i)
        self.title = _intern(self.title)  # a domain reuses a few titles
        # slicing copies into exactly-sized lists (an appended list keeps
        # its growth slack for as long as it lives)
        self.tokens = tokens[:]
        self.words = words[:]
        self.word_token_index = array(
            compact_typecode(len(tokens)), word_token_index)

    def snippet_around(self, word_pos: int, width: int = 12) -> str:
        """Render a snippet of the original tokens around ``word_pos``.

        ``word_pos`` indexes :attr:`words`; the snippet spans ``width`` full
        tokens on each side so that trailing instance lists (commas included)
        survive into the snippet, as they do in real search results.
        """
        if not 0 <= word_pos < len(self.words):
            raise IndexError(f"word position {word_pos} out of range")
        center = self.word_token_index[word_pos]
        lo = max(0, center - width)
        hi = min(len(self.tokens), center + width + 1)
        return _join_tokens(self.tokens[lo:hi])


def compact_typecode(largest: int) -> str:
    """The narrowest unsigned :mod:`array` typecode that holds every
    integer in ``[0, largest]``."""
    if largest <= 0xFF:
        return "B"
    return "H" if largest <= 0xFFFF else "L"


def _join_tokens(tokens: List[str]) -> str:
    """Join tokens with spaces, attaching punctuation to the previous token."""
    parts: List[str] = []
    for tok in tokens:
        if parts and not (tok[0].isalnum() or tok.startswith("$")):
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)
