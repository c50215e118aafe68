"""Tokenization of natural-language questions.

Produces :class:`Token` objects carrying the surface form, a lower-cased
normal form, the character span in the original question, and slots that
downstream stages (POS tagger, lemmatizer) fill in.  Quoted spans ("new
york") are kept as single tokens because NLIDB value references are often
quoted; numbers (including decimals like ``3.5``) and ISO dates stay
intact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

_TOKEN_RE = re.compile(
    r"""
    "(?P<dquoted>[^"]*)"            # double-quoted phrase
  | '(?P<squoted>[^']*)'            # single-quoted phrase
  | (?P<date>\d{4}-\d{2}-\d{2})     # ISO date
  | (?P<number>\d+(?:\.\d+)?)      # integer or decimal
  | (?P<word>[^\W\d][\w'-]*)       # unicode word (keeps don't, Zürich)
  | (?P<punct>[^\s\w])             # single punctuation character
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    """One token of the question.

    Attributes:
        text: original surface form (without enclosing quotes).
        norm: lower-cased surface form.
        start: character offset in the question.
        end: character offset one past the token.
        kind: ``"word"``, ``"number"``, ``"date"``, ``"quoted"`` or
            ``"punct"``.
        pos: part-of-speech tag, filled by :mod:`repro.nlp.pos`.
        lemma: lemma, filled by :mod:`repro.nlp.lemmatizer`.
    """

    text: str
    norm: str
    start: int
    end: int
    kind: str
    pos: Optional[str] = None
    lemma: Optional[str] = None

    @property
    def is_number(self) -> bool:
        """Whether this token is a numeric literal."""
        return self.kind == "number"

    @property
    def numeric_value(self) -> Optional[float]:
        """The numeric value for number tokens, else ``None``."""
        if self.kind != "number":
            return None
        return float(self.text) if "." in self.text else float(int(self.text))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into :class:`Token` objects.

    Quoted phrases become single ``"quoted"`` tokens; everything else
    follows the word/number/date/punct classification.
    """
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup or "punct"
        if kind in ("dquoted", "squoted"):
            raw = match.group(kind)
            tokens.append(
                Token(raw, raw.lower(), match.start(), match.end(), "quoted")
            )
            continue
        raw = match.group(0)
        tokens.append(Token(raw, raw.lower(), match.start(), match.end(), kind))
    return tokens


def words(text: str) -> List[str]:
    """Lower-cased word/number/quoted tokens of ``text`` (no punctuation).

    This is the representation used by bag-of-words models and index
    lookups.
    """
    return [t.norm for t in tokenize(text) if t.kind != "punct"]


def detokenize(tokens: List[Token]) -> str:
    """Reassemble tokens into a readable string (spaces between tokens)."""
    return " ".join(t.text for t in tokens)
