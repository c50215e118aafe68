"""Inverted index over data values.

SODA-style keyword systems (§4.1 of the survey) interpret a query by
looking each keyword up in metadata (table and column names plus
declared synonyms) and in data (the values stored in text columns).
Here metadata lookups go through the ontology-level schema index
(:mod:`repro.core.schema_index`) or the annotator's brute-force scan;
this module holds the data half, :class:`ValueIndex`, which the shared
annotator and Précis-style keyword answering read.

Index entries are :class:`IndexEntry` records that say which value
matched, where (table/column), and how well (a score in ``(0, 1]``: a
full value scores highest, a single word of it lowest).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List

from .database import Database

#: the most distinct values of one text column the index holds
MAX_VALUES_PER_COLUMN = 100_000


def _strip_punct(text: str) -> str:
    return "".join(ch if (ch.isalnum() or ch.isspace()) else " " for ch in text)


def normalize_token(text: str) -> str:
    """Lower-case and strip a token for index lookup; splits on ``_``
    happen at tokenization time, not here."""
    return text.strip().lower()


def split_identifier(name: str) -> List[str]:
    """Split a schema identifier into word tokens.

    Handles snake_case, camelCase and spaces: ``customerName`` →
    ``["customer", "name"]``, ``order_date`` / ``order date`` →
    ``["order", "date"]``.
    """
    pieces: List[str] = []
    current = []
    for ch in name:
        if ch == "_" or ch == " ":
            if current:
                pieces.append("".join(current))
                current = []
            continue
        if ch.isupper() and current and not current[-1].isupper():
            pieces.append("".join(current))
            current = [ch]
        else:
            current.append(ch)
    if current:
        pieces.append("".join(current))
    return [normalize_token(p) for p in pieces if p]


@dataclass(frozen=True)
class IndexEntry:
    """One value-index hit: ``value`` found in ``table.column``."""

    table: str
    column: str
    value: Any
    score: float = 1.0

    def describe(self) -> str:
        """Human-readable form used in clarification dialogs."""
        return f"value {self.value!r} in {self.table}.{self.column}"


class ValueIndex:
    """Inverted index over text-column data values (token-granular).

    Numeric and date values are *not* indexed — keyword systems match them
    via type heuristics at query time — but full text values and their
    individual word tokens are.  The index rebuilds itself on the first
    lookup after ``database.data_version`` moves (a row insert or a new
    table).
    """

    def __init__(self, database: Database):
        self.database = database
        self._build()

    def _build(self) -> None:
        self._entries: Dict[str, List[IndexEntry]] = defaultdict(list)
        self._built_version = self.database.data_version
        for table in self.database.tables:
            for column in table.schema.text_columns():
                for value in table.distinct_values(column.name)[:MAX_VALUES_PER_COLUMN]:
                    entry = IndexEntry(table.name, column.name, value)
                    full = normalize_token(value)
                    self._entries[full].append(entry)
                    # Punctuation-stripped key so tokenized questions can
                    # re-assemble values like "Dr. Emil Ito".
                    stripped = " ".join(_strip_punct(full).split())
                    if stripped and stripped != full:
                        self._entries[stripped].append(
                            IndexEntry(table.name, column.name, value, score=0.95)
                        )
                    words = stripped.split()
                    if len(words) > 1:
                        for word in words:
                            # Token hits score lower than full-value hits.
                            self._entries[word].append(
                                IndexEntry(table.name, column.name, value, score=0.6)
                            )

    def lookup(self, term: str) -> List[IndexEntry]:
        """Entries whose value (or a word of it) equals ``term``."""
        if self.database.data_version != self._built_version:
            self._build()
        return list(self._entries.get(normalize_token(term), []))

    def lookup_phrase(self, words: List[str]) -> List[IndexEntry]:
        """Match a multi-word phrase against full values."""
        return self.lookup(" ".join(words))
