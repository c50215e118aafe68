"""Shared featurization for the neural text-to-SQL models.

Translates the neural architectures of §4.2 into a feature space small
enough for numpy training while keeping their distinguishing signals:

- *column attention* (SQLNet [59]): a column-conditioned attention over
  question tokens, summarized as the cosine between the attended question
  vector and the column embedding;
- *type features* (TypeSQL [62]): agreement between a candidate value's
  type and the column's declared type, membership of the value in the
  column's data, and how many columns share that value (entity
  ambiguity) — exposed separately so SQLNet can run with them zeroed;
- condition candidates: rather than decoding free text, models score an
  enumerated space of ``(column, op, value)`` candidates built from
  number tokens and data-value span matches — the pointer mechanism of
  Seq2SQL [69] in tabular form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.nlp.embeddings import HashedEmbeddings, cosine
from repro.nlp.lemmatizer import lemmatize
from repro.nlp.patterns import detect_patterns
from repro.nlp.tokenizer import Token, tokenize
from repro.sqldb.index import split_identifier
from repro.sqldb.schema import Column, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType

from .sketch import Condition

#: fixed sizes of the feature blocks
QUESTION_DIM_MULT = 2  # [mean; max] pooling
COLUMN_FEATURES = 14
CONDITION_BASE_FEATURES = 10
CONDITION_TYPE_FEATURES = 4


@dataclass
class ConditionCandidate:
    """One scored (column, op, value) proposal for the WHERE clause."""

    column: str
    op: str
    value: Any
    position: int
    base_features: np.ndarray
    type_features: np.ndarray

    def as_condition(self) -> Condition:
        """Convert to a sketch condition."""
        return Condition(self.column, self.op, self.value)

    def matches_gold(self, gold: Sequence[Condition]) -> bool:
        """Whether this candidate equals one of the gold conditions."""
        mine = Condition(self.column, self.op, self.value).normalized()
        return any(g.normalized() == mine for g in gold)


class Featurizer:
    """Embedding-backed feature extraction, shared across models."""

    def __init__(self, dim: int = 32):
        self.dim = dim
        self.embeddings = HashedEmbeddings(dim)
        # Unsmoothed vectors for question pooling: cue words must stay
        # separable from their synonym-ring neighbours ("number" vs
        # "amount") or the aggregate classifier cannot tell them apart.
        self.raw_embeddings = HashedEmbeddings(dim, smooth=False)
        self._value_maps: Dict[int, Tuple[Table, Dict[str, Set[str]]]] = {}

    # -- question ------------------------------------------------------------

    def question_tokens(self, question: str) -> List[Token]:
        """Tokenized question (no tagging needed here)."""
        return [t for t in tokenize(question) if t.kind != "punct"]

    def question_features(self, tokens: Sequence[Token]) -> np.ndarray:
        """[mean; max]-pooled token embeddings (2 * dim)."""
        if not tokens:
            return np.zeros(2 * self.dim)
        matrix = np.stack([self.raw_embeddings.vector(t.norm) for t in tokens])
        return np.concatenate([matrix.mean(axis=0), matrix.max(axis=0)])

    # -- columns ---------------------------------------------------------------

    def _column_embedding(self, column: Column) -> np.ndarray:
        words = split_identifier(column.name) or [column.name.lower()]
        return self.embeddings.sentence_vector(words)

    def column_features(
        self, tokens: Sequence[Token], column: Column, schema: TableSchema
    ) -> np.ndarray:
        """Fixed-size feature vector for (question, column)."""
        col_emb = self._column_embedding(column)
        tok_embs = [self.embeddings.vector(t.norm) for t in tokens] or [np.zeros(self.dim)]
        sims = [cosine(e, col_emb) for e in tok_embs]
        mean_q = np.mean(tok_embs, axis=0)
        col_words = set(split_identifier(column.name)) | {
            s.lower() for s in column.synonyms
        }
        q_lemmas = {lemmatize(t.norm) for t in tokens}
        overlap = (
            sum(1 for w in col_words if lemmatize(w) in q_lemmas) / max(len(col_words), 1)
        )
        attended = self._attended_vector(tok_embs, col_emb)
        dtype_onehot = [
            1.0 if column.dtype is dt else 0.0
            for dt in (DataType.INTEGER, DataType.FLOAT, DataType.TEXT, DataType.DATE, DataType.BOOLEAN)
        ]
        # where in the question the column is (lemma-)mentioned: the
        # selected column is usually the first one named
        mention_positions = [
            i
            for i, t in enumerate(tokens)
            if lemmatize(t.norm) in {lemmatize(w) for cw in col_words for w in cw.split()}
        ]
        n = max(len(tokens), 1)
        earliest = 1.0 - mention_positions[0] / n if mention_positions else 0.0
        mentioned = 1.0 if mention_positions else 0.0
        features = [
            float(max(sims)),
            float(np.mean(sims)),
            float(cosine(mean_q, col_emb)),
            float(cosine(attended, col_emb)),
            overlap,
            earliest,
            mentioned,
            1.0 if column.primary_key else 0.0,
            1.0 if column.dtype.is_numeric else 0.0,
            *dtype_onehot,
        ]
        assert len(features) == COLUMN_FEATURES
        return np.array(features)

    def _attended_vector(self, tok_embs: List[np.ndarray], col_emb: np.ndarray) -> np.ndarray:
        """SQLNet-style column attention over question tokens."""
        scores = np.array([float(np.dot(e, col_emb)) for e in tok_embs]) * 4.0
        shifted = scores - scores.max()
        weights = np.exp(shifted)
        weights = weights / weights.sum()
        return np.sum([w * e for w, e in zip(weights, tok_embs)], axis=0)

    # -- condition candidates ------------------------------------------------------

    def _value_map(self, table: Table) -> Dict[str, Set[str]]:
        """value (lower, punct-stripped) → set of text columns holding it."""
        cached = self._value_maps.get(id(table))
        # keep a reference to the table alongside the cache entry: id()
        # values can be recycled after garbage collection, which would
        # alias a new table onto a stale map
        if cached is not None and cached[0] is table:
            return cached[1]
        mapping: Dict[str, Set[str]] = {}
        for column in table.schema.text_columns():
            for value in table.distinct_values(column.name):
                key = _strip(str(value).lower())
                mapping.setdefault(key, set()).add(column.name)
        self._value_maps[id(table)] = (table, mapping)
        return mapping

    def condition_candidates(
        self, tokens: Sequence[Token], table: Table
    ) -> List[ConditionCandidate]:
        """Enumerate and featurize all (column, op, value) proposals."""
        out: List[ConditionCandidate] = []
        patterns = detect_patterns(list(tokens))
        comparisons = [p for p in patterns if p.kind == "comparison"]
        out.extend(self._numeric_candidates(tokens, table, comparisons))
        out.extend(self._text_candidates(tokens, table))
        return out

    def _numeric_candidates(self, tokens, table, comparisons) -> List[ConditionCandidate]:
        out = []
        numeric_columns = [c for c in table.schema if c.dtype.is_numeric]
        for i, token in enumerate(tokens):
            if not token.is_number:
                continue
            value = float(token.numeric_value)
            op, cue_flags = "=", [0.0, 0.0, 1.0]
            for comparison in comparisons:
                # pattern positions refer to the same filtered token list
                if comparison.value in (">", ">=") and 0 <= i - comparison.end <= 1:
                    op, cue_flags = ">", [1.0, 0.0, 0.0]
                elif comparison.value in ("<", "<=") and 0 <= i - comparison.end <= 1:
                    op, cue_flags = "<", [0.0, 1.0, 0.0]
            for column in numeric_columns:
                mention = self._mention_score(tokens, i, column)
                values = [
                    v for v in table.column_values(column.name) if v is not None
                ]
                lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
                in_range = 1.0 if values and lo <= value <= hi else 0.0
                rel = 0.0
                if values and hi > lo:
                    rel = float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))
                base = np.array(
                    [
                        mention,
                        in_range,
                        rel,
                        *cue_flags,
                        1.0,  # numeric candidate flag
                        0.0,  # text candidate flag
                        min(i / max(len(tokens), 1), 1.0),
                        1.0,
                    ]
                )
                exact_member = 1.0 if any(
                    abs(float(v) - value) < 1e-9 for v in values
                ) else 0.0
                type_feats = np.array(
                    [
                        1.0,  # value type (number) matches numeric column
                        exact_member,
                        1.0 if (value.is_integer() and column.dtype is DataType.INTEGER) else 0.0,
                        1.0,
                    ]
                )
                out.append(
                    ConditionCandidate(column.name, op, value, i, base, type_feats)
                )
        return out

    def _text_candidates(self, tokens, table) -> List[ConditionCandidate]:
        out = []
        value_map = self._value_map(table)
        n = len(tokens)
        claimed: Set[Tuple[int, int]] = set()
        for length in range(min(5, n), 0, -1):
            for start in range(0, n - length + 1):
                span = (start, start + length)
                if any(
                    s < span[1] and span[0] < e for (s, e) in claimed
                ) and length == 1:
                    continue
                window = tokens[start : start + length]
                phrase = _strip(" ".join(t.norm for t in window))
                columns = value_map.get(phrase)
                if not columns:
                    continue
                claimed.add(span)
                ambiguity = 1.0 / len(columns)
                for column_name in sorted(columns):
                    column = table.schema.column(column_name)
                    value = self._original_value(table, column_name, phrase)
                    mention = self._mention_score(tokens, start, column)
                    base = np.array(
                        [
                            mention,
                            1.0,
                            float(length) / 5.0,
                            0.0,
                            0.0,
                            1.0,  # equality cue
                            0.0,  # numeric flag
                            1.0,  # text flag
                            min(start / max(n, 1), 1.0),
                            1.0,
                        ]
                    )
                    type_feats = np.array([1.0, 1.0, 0.0, ambiguity])
                    out.append(
                        ConditionCandidate(column_name, "=", value, start, base, type_feats)
                    )
        return out

    def _original_value(self, table: Table, column: str, stripped: str) -> Any:
        for value in table.distinct_values(column):
            if _strip(str(value).lower()) == stripped:
                return value
        return stripped

    def _mention_score(self, tokens, position: int, column: Column) -> float:
        """How strongly the column's name is mentioned near ``position``."""
        words = set(split_identifier(column.name)) | {s.lower() for s in column.synonyms}
        lemmas = {lemmatize(w) for word in words for w in word.split()}
        best = 0.0
        for j in range(max(0, position - 4), min(len(tokens), position + 2)):
            if lemmatize(tokens[j].norm) in lemmas:
                distance = abs(j - position)
                best = max(best, 1.0 - 0.15 * distance)
        return best


def _strip(text: str) -> str:
    cleaned = "".join(ch if (ch.isalnum() or ch.isspace()) else " " for ch in text)
    return " ".join(cleaned.split())
