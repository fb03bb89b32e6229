"""Tokenisation for labels, snippets and synthetic Surface-Web pages.

The tokeniser is deliberately simple and transparent: WebIQ only ever deals
with short attribute labels ("Departure city") and search-result snippets, so
a regular-expression word tokeniser with an explicit sentence splitter covers
the whole input distribution while staying easy to reason about in tests.
"""

from __future__ import annotations

import re
from typing import List

from repro.util import counters as work

__all__ = ["tokenize", "words", "sentences", "normalize"]

# A token is a run of word characters (letters/digits, allowing internal
# apostrophes, hyphens, periods in abbreviations like "U.S."), a currency
# amount, or a single punctuation character. The rules are grouped by the
# first character they accept, behind a lookahead that rejects every other
# start at once: a letter, a digit or "$", anything else. No two groups
# accept the same first character, so the first rule to match at each
# position is the one a flat alternation of the same rules, in the same
# order within each group, would pick.
_TOKEN_RE = re.compile(
    r"""
    (?=[A-Za-z])(?:
        (?:[A-Za-z]\.){2,}                  # dotted abbreviations: J.K.
      | [A-Za-z]{2,3}\.(?=\s+[A-Z0-9])      # "St." before a capital
      | [A-Za-z](?:[A-Za-z'\-]*[A-Za-z])?   # words, one-way, O'Reilly
    )
  | (?=[\d$])(?:
        \$?\d{1,3}(?:,\d{3})+(?:\.\d+)?     # grouped: $15,200, 1,200.50
      | \$\d+(?:\.\d+)?                    # plain money: $9.99
      | \d+(?:st|nd|rd|th)\b               # ordinals: 1st, 2nd, 15th
      | \d+(?:\.\d+)?                      # plain numbers: 1994, 3.5
    )
  | [^\sA-Za-z0-9]                         # any single punctuation mark
    """,
    re.VERBOSE,
)

_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z\"$\d])")


def tokenize(text: str) -> List[str]:
    """Split ``text`` into word and punctuation tokens.

    >>> tokenize("Makes such as Honda, Toyota.")
    ['Makes', 'such', 'as', 'Honda', ',', 'Toyota', '.']
    >>> tokenize("price is $15,200")
    ['price', 'is', '$15,200']
    """
    if work.ACTIVE is not None:
        work.ACTIVE.bump("tokenizer.calls")
    return _TOKEN_RE.findall(text)


def words(text: str) -> List[str]:
    """Like :func:`tokenize` but keeping only word/number tokens.

    >>> words("From: city, please!")
    ['From', 'city', 'please']
    """
    return [t for t in tokenize(text) if t[0].isalnum() or t.startswith("$")]


def sentences(text: str) -> List[str]:
    """Split ``text`` into sentences on terminal punctuation.

    Splitting only before a capital letter, digit, quote or currency sign
    avoids breaking abbreviations mid-sentence in most snippet text.

    >>> sentences("Fly cheap. Airlines such as Delta serve Boston.")
    ['Fly cheap.', 'Airlines such as Delta serve Boston.']
    """
    parts = _SENTENCE_END_RE.split(text.strip())
    return [p for p in (part.strip() for part in parts) if p]


def normalize(text: str) -> str:
    """Lower-case and collapse whitespace — the index's term normal form."""
    return " ".join(text.lower().split())
