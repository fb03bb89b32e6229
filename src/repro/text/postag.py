"""A Brill-style rule-based part-of-speech tagger.

The paper tags attribute labels with Brill's tagger [5] before pattern
matching. Brill's tagger works in two stages: an initial-state annotator
assigns each word its most likely tag (from a lexicon, falling back to
suffix/shape heuristics for unknown words), then an ordered list of
*contextual transformation rules* rewrites tags based on neighbouring tags
and words. We implement the same architecture with a hand-built lexicon and
rule list sized for the tagger's actual job here: 1-6 word interface labels
and short snippet sentences.

Tags are a Penn-Treebank subset::

    DT determiner        NN/NNS common noun sg/pl   NNP/NNPS proper noun
    JJ adjective         IN preposition             CC coordinating conj.
    TO "to"              VB/VBZ/VBP/VBD/VBG/VBN verb forms
    MD modal             CD number                  RB adverb
    PRP/PRP$ pronoun     WDT/WP wh-word             PUNCT punctuation
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.text.tokenizer import tokenize

__all__ = ["TaggedToken", "BrillTagger", "default_tagger"]


@dataclass(frozen=True)
class TaggedToken:
    """A token paired with its part-of-speech tag."""

    word: str
    tag: str

    def __iter__(self):
        # Allow ``for word, tag in tagged`` unpacking.
        return iter((self.word, self.tag))


# ---------------------------------------------------------------------------
# Lexicon: most-likely tag per word (lower-cased), Brill's initial state.
# ---------------------------------------------------------------------------

_LEXICON: Dict[str, str] = {
    # determiners
    "the": "DT", "a": "DT", "an": "DT", "this": "DT", "that": "DT",
    "these": "DT", "those": "DT", "any": "DT", "all": "DT", "each": "DT",
    "no": "DT", "some": "DT", "every": "DT", "other": "JJ",
    # prepositions
    "of": "IN", "in": "IN", "on": "IN", "at": "IN", "by": "IN", "for": "IN",
    "from": "IN", "with": "IN", "within": "IN", "without": "IN", "about": "IN",
    "under": "IN", "over": "IN", "between": "IN", "near": "IN", "per": "IN",
    "after": "IN", "before": "IN", "during": "IN", "into": "IN", "through": "IN",
    "as": "IN", "than": "IN", "via": "IN", "until": "IN", "since": "IN",
    "up": "IN", "down": "IN", "off": "IN", "above": "IN", "below": "IN",
    # conjunctions
    "and": "CC", "or": "CC", "but": "CC", "nor": "CC", "plus": "CC",
    # to
    "to": "TO",
    # modals / auxiliaries
    "can": "MD", "could": "MD", "will": "MD", "would": "MD", "may": "MD",
    "must": "MD", "should": "MD", "shall": "MD", "might": "MD",
    "is": "VBZ", "are": "VBP", "was": "VBD", "were": "VBD", "be": "VB",
    "been": "VBN", "being": "VBG", "am": "VBP",
    "has": "VBZ", "have": "VBP", "had": "VBD", "having": "VBG",
    "do": "VBP", "does": "VBZ", "did": "VBD",
    # pronouns
    "i": "PRP", "you": "PRP", "he": "PRP", "she": "PRP", "it": "PRP",
    "we": "PRP", "they": "PRP", "them": "PRP", "him": "PRP", "her": "PRP$",
    "my": "PRP$", "your": "PRP$", "his": "PRP$", "its": "PRP$",
    "our": "PRP$", "their": "PRP$",
    # wh words
    "which": "WDT", "what": "WP", "who": "WP", "where": "WRB", "when": "WRB",
    "how": "WRB", "why": "WRB",
    # adverbs
    "not": "RB", "also": "RB", "only": "RB", "very": "RB", "too": "RB",
    "now": "RB", "here": "RB", "there": "EX", "most": "RBS", "more": "RBR",
    "right": "RB", "today": "RB", "online": "RB", "away": "RB",
    "such": "JJ", "including": "IN",
    # common verbs in interface labels and snippet text
    "search": "VB", "find": "VB", "select": "VB", "choose": "VB",
    "enter": "VB", "depart": "VB", "departing": "VBG", "departs": "VBZ",
    "arrive": "VB", "arriving": "VBG", "arrives": "VBZ",
    "return": "VB", "returning": "VBG", "leave": "VB", "leaving": "VBG",
    "travel": "VB", "fly": "VB", "flying": "VBG", "flies": "VBZ",
    "go": "VB", "going": "VBG", "pick": "VB", "drop": "VB",
    "buy": "VB", "sell": "VB", "rent": "VB", "browse": "VB", "show": "VB",
    "list": "VB", "sort": "VB", "contains": "VBZ", "contain": "VB",
    "located": "VBN", "offered": "VBN", "published": "VBN", "written": "VBN",
    "posted": "VBN", "include": "VB", "serve": "VB", "serves": "VBZ",
    "offers": "VBZ", "offer": "VB", "want": "VB", "looking": "VBG",
    "appear": "VB", "appears": "VBZ", "happen": "VB", "begin": "VB",
    "wrote": "VBD", "found": "VBD", "sold": "VBD", "bought": "VBD",
    "made": "VBD", "said": "VBD", "got": "VBD", "took": "VBD",
    "gave": "VBD", "went": "VBD", "came": "VBD", "knew": "VBD",
    "saw": "VBD", "paid": "VBD", "sent": "VBD", "held": "VBD",
    "kept": "VBD", "met": "VBD", "ran": "VBD", "grew": "VBD",
    "book": "NN",  # noun sense dominates in our domains (book title, bookstore)
    # adjectives common in labels
    "new": "JJ", "used": "JJ", "first": "JJ", "last": "JJ", "full": "JJ",
    "min": "JJ", "max": "JJ", "minimum": "JJ", "maximum": "JJ",
    "low": "JJ", "high": "JJ", "lowest": "JJS", "highest": "JJS",
    "round": "JJ", "one-way": "JJ", "nonstop": "JJ", "cheap": "JJ",
    "available": "JJ", "preferred": "JJ", "exact": "JJ", "many": "JJ",
    "several": "JJ", "popular": "JJ", "major": "JJ", "great": "JJ",
    "good": "JJ", "best": "JJS", "local": "JJ", "annual": "JJ",
    # common nouns seen in interface labels (a representative sample; unknown
    # words default to NN anyway, so this list mainly fixes ambiguous words)
    "city": "NN", "cities": "NNS", "state": "NN", "date": "NN",
    "time": "NN", "type": "NN", "name": "NN", "price": "NN", "year": "NN",
    "make": "NN",  # automobile make — the noun sense is what labels use
    "model": "NN", "color": "NN", "zip": "NN", "code": "NN", "number": "NN",
    "class": "NN", "service": "NN", "airline": "NN", "carrier": "NN",
    "airport": "NN", "passenger": "NN", "passengers": "NNS", "adult": "NN",
    "adults": "NNS", "child": "NN", "children": "NNS", "trip": "NN",
    "title": "NN", "author": "NN", "publisher": "NN", "keyword": "NN",
    "keywords": "NNS", "subject": "NN", "category": "NN", "format": "NN",
    "isbn": "NN", "edition": "NN", "company": "NN", "job": "NN",
    "binding": "NN", "genre": "NN", "style": "NN", "town": "NN",
    "salary": "NN", "industry": "NN", "location": "NN", "position": "NN",
    "experience": "NN", "degree": "NN", "skill": "NN", "skills": "NNS",
    "bedroom": "NN", "bedrooms": "NNS", "bathroom": "NN", "bathrooms": "NNS",
    "property": "NN", "home": "NN", "house": "NN", "mileage": "NN",
    "engine": "NN", "transmission": "NN", "doors": "NNS", "door": "NN",
    "seller": "NN", "dealer": "NN", "condition": "NN", "body": "NN",
    "style": "NN", "area": "NN", "county": "NN", "country": "NN",
    "region": "NN", "address": "NN", "email": "NN", "phone": "NN",
    "departure": "NN", "arrival": "NN", "destination": "NN", "origin": "NN",
    "stop": "NN", "stops": "NNS", "cabin": "NN", "fare": "NN",
    "flight": "NN", "seat": "NN", "seats": "NNS",
    "feet": "NNS", "foot": "NN", "square": "JJ", "acreage": "NN",
    "acre": "NN", "acres": "NNS", "lot": "NN", "size": "NN",
    "age": "NN", "range": "NN", "level": "NN", "field": "NN",
    "description": "NN", "summary": "NN", "status": "NN", "term": "NN",
    "rate": "NN", "amount": "NN", "value": "NN", "unit": "NN",
}

# ---------------------------------------------------------------------------
# Unknown-word guessing (Brill's lexical rules, condensed to suffix/shape).
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^\$?\d[\d,]*(?:\.\d+)?$")
_ORDINAL_RE = re.compile(r"^\d+(st|nd|rd|th)$", re.IGNORECASE)

_SUFFIX_TAGS: Sequence[Tuple[str, str]] = (
    ("ies", "NNS"), ("sses", "NNS"), ("xes", "NNS"), ("ches", "NNS"),
    ("shes", "NNS"),
    ("ing", "VBG"), ("ed", "VBN"),
    ("tion", "NN"), ("sion", "NN"), ("ment", "NN"), ("ness", "NN"),
    ("ity", "NN"), ("ship", "NN"), ("ance", "NN"), ("ence", "NN"),
    ("er", "NN"), ("or", "NN"), ("ist", "NN"), ("ism", "NN"),
    ("ly", "RB"),
    ("ous", "JJ"), ("ful", "JJ"), ("able", "JJ"), ("ible", "JJ"),
    ("ive", "JJ"), ("al", "JJ"), ("ic", "JJ"), ("less", "JJ"),
)


def _guess_tag(word: str, sentence_initial: bool) -> str:
    """Initial-state tag for a word absent from the lexicon."""
    if _NUMBER_RE.match(word):
        return "CD"
    if _ORDINAL_RE.match(word):
        return "JJ"
    if not word[0].isalnum():
        return "PUNCT"
    low = word.lower()
    # Capitalised mid-sentence => proper noun (city names, airlines, makes).
    if word[0].isupper() and not sentence_initial:
        return "NNPS" if low.endswith("s") and not low.endswith("ss") else "NNP"
    for suffix, tag in _SUFFIX_TAGS:
        if low.endswith(suffix) and len(low) > len(suffix) + 1:
            return tag
    if low.endswith("s") and not low.endswith("ss"):
        return "NNS"
    return "NN"


# ---------------------------------------------------------------------------
# Contextual transformation rules (Brill's second stage).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContextRule:
    """Rewrite ``from_tag`` to ``to_tag`` when ``condition`` holds.

    ``condition(tags, words, i)`` inspects the current tag sequence around
    position ``i``; rules are applied in order, left to right, one pass each,
    exactly as in Brill's tagger.
    """

    from_tag: str
    to_tag: str
    condition: Callable[[List[str], List[str], int], bool]
    name: str


def _prev_tag(tags: List[str], i: int) -> Optional[str]:
    return tags[i - 1] if i > 0 else None


def _next_tag(tags: List[str], i: int) -> Optional[str]:
    return tags[i + 1] if i + 1 < len(tags) else None


_DEFAULT_RULES: Sequence[ContextRule] = (
    # "to book a flight" — base verb after TO, but only when a determiner
    # follows: interface labels like "To city" keep their noun reading.
    ContextRule("NN", "VB",
                lambda t, w, i: _prev_tag(t, i) == "TO"
                and _next_tag(t, i) == "DT",
                "NN->VB after TO before DT"),
    # "the search" — noun after a determiner even if lexicon says verb.
    ContextRule("VB", "NN", lambda t, w, i: _prev_tag(t, i) in ("DT", "PRP$", "JJ"),
                "VB->NN after DT/JJ"),
    ContextRule("VBP", "NN", lambda t, w, i: _prev_tag(t, i) in ("DT", "PRP$"),
                "VBP->NN after DT"),
    # "used car" — past participle directly before a noun acts adjectivally.
    ContextRule("VBN", "JJ", lambda t, w, i: _next_tag(t, i) in ("NN", "NNS"),
                "VBN->JJ before noun"),
    # "departing city" — gerund before a noun is a modifier.
    ContextRule("VBG", "JJ", lambda t, w, i: _next_tag(t, i) in ("NN", "NNS"),
                "VBG->JJ before noun"),
    # sentence-initial capitalised word followed by another proper noun is
    # itself proper ("Air Canada" at sentence start).
    ContextRule("NN", "NNP",
                lambda t, w, i: i == 0 and w[i][:1].isupper()
                and _next_tag(t, i) in ("NNP", "NNPS"),
                "NN->NNP initial before NNP"),
    # "is" + VBN stays VBN; but NN after VBZ that looks like a participle —
    # keep simple: no rule needed.
)


class BrillTagger:
    """Two-stage rule-based tagger: lexicon lookup + contextual rewrites."""

    def __init__(
        self,
        lexicon: Optional[Dict[str, str]] = None,
        rules: Optional[Sequence[ContextRule]] = None,
    ) -> None:
        self.lexicon = dict(_LEXICON if lexicon is None else lexicon)
        self.rules = tuple(_DEFAULT_RULES if rules is None else rules)

    def add_lexicon_entries(self, entries: Dict[str, str]) -> None:
        """Extend the lexicon (e.g. with domain-specific vocabulary)."""
        self.lexicon.update((k.lower(), v) for k, v in entries.items())

    def tag(self, text_or_tokens) -> List[TaggedToken]:
        """Tag raw text or a pre-tokenised word list.

        >>> [t.tag for t in default_tagger().tag("departure city")]
        ['NN', 'NN']
        >>> [t.tag for t in default_tagger().tag("from city")]
        ['IN', 'NN']
        """
        tokens = (
            tokenize(text_or_tokens)
            if isinstance(text_or_tokens, str)
            else list(text_or_tokens)
        )
        tags: List[str] = []
        for i, tok in enumerate(tokens):
            known = self.lexicon.get(tok.lower())
            if known is not None:
                # A capitalised mid-sentence word keeps proper-noun status even
                # if its lower-case form is a common noun ("Delta", "Virgin").
                if tok[:1].isupper() and i > 0 and known in ("NN", "NNS"):
                    tags.append("NNP" if known == "NN" else "NNPS")
                else:
                    tags.append(known)
            else:
                tags.append(_guess_tag(tok, sentence_initial=i == 0))
        for rule in self.rules:
            # a pass rewrites only positions holding ``from_tag``; checked
            # per rule, since earlier rules create tags later ones rewrite
            if rule.from_tag not in tags:
                continue
            for i, tag in enumerate(tags):
                if tag == rule.from_tag and rule.condition(tags, tokens, i):
                    tags[i] = rule.to_tag
        return [TaggedToken(w, t) for w, t in zip(tokens, tags)]


_DEFAULT_TAGGER: Optional[BrillTagger] = None


def default_tagger() -> BrillTagger:
    """Return the shared default tagger instance (lazily constructed)."""
    global _DEFAULT_TAGGER
    if _DEFAULT_TAGGER is None:
        _DEFAULT_TAGGER = BrillTagger()
    return _DEFAULT_TAGGER
