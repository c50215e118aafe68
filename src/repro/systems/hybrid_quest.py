"""QUEST-style hybrid system [12] (§4.3 of the survey).

QUEST "first chooses the entities that are relevant to the keywords in
the query based on Hidden Markov Models (HMM), trained on a data set of
previous searches ...  The relationships between the entities extracted
from the query are then computed based on heuristic rules that consider
the relationships of those entities in the database.  The candidate
interpretations are ranked based on the aggregate confidence scores
returned by the HMM."

Faithful ingredients:

- keyword → schema-element mapping decoded with a first-order HMM whose
  *transition* probabilities are estimated from previous searches (pairs
  of question + validated SQL) and whose *emission* probabilities come
  from the annotator's match scores,
- Viterbi decoding picks the globally coherent mapping (elements that
  historically co-occur win over locally-tied alternatives),
- relationships are then filled in by the rule-based interpreter
  (heuristics over the FK/ontology graph),
- interpretation confidence aggregates the HMM path score.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evidence import EvidenceAnnotation
from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import register
from repro.sqldb import parse_select
from repro.sqldb.ast import ColumnRef

from .base import AnnotatedQuestion, EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter

_SMOOTHING = 0.5


def _element_key(annotation: EvidenceAnnotation) -> Optional[str]:
    """Stable state identity of an annotation's schema element."""
    if annotation.kind == "concept":
        return f"concept:{annotation.payload}"
    if annotation.kind == "property":
        return f"property:{annotation.payload}"
    if annotation.kind == "value":
        return f"property:{annotation.payload[0]}"  # values live on their column
    return None


class ElementHMM:
    """First-order HMM over schema elements with add-k smoothing."""

    def __init__(self):
        self.transitions: Dict[str, Counter] = defaultdict(Counter)
        self.state_counts: Counter = Counter()
        self.trained_pairs = 0

    def observe_sequence(self, states: Sequence[str]) -> None:
        """Count one gold mapping sequence."""
        for state in states:
            self.state_counts[state] += 1
        for a, b in zip(states, states[1:]):
            self.transitions[a][b] += 1
            self.trained_pairs += 1

    def log_transition(self, prev: Optional[str], state: str) -> float:
        """Smoothed log P(state | prev); uniform prior when untrained."""
        if prev is None:
            total = sum(self.state_counts.values())
            count = self.state_counts.get(state, 0)
            vocab = max(len(self.state_counts), 1)
            return math.log((count + _SMOOTHING) / (total + _SMOOTHING * vocab))
        row = self.transitions.get(prev, Counter())
        total = sum(row.values())
        vocab = max(len(self.state_counts), 1)
        return math.log((row.get(state, 0) + _SMOOTHING) / (total + _SMOOTHING * vocab))


class QuestSystem(NLIDBSystem):
    """HMM keyword mapping + rule-based relationship inference."""

    name = "quest"
    family = "hybrid"

    def __init__(self):
        self.annotator = EntityAnnotator(
            fuzzy_values=True,
            similarity_threshold=0.7,
        )
        self.interpreter = SemanticInterpreter(InterpreterConfig.full(), self.name)
        self.hmm = ElementHMM()

    # -- training on previous searches ------------------------------------------------

    def fit(self, history: Sequence, context: NLIDBContext) -> int:
        """Learn transitions from (question, gold SQL) pairs.

        For each past search, the candidate annotations confirmed by the
        gold SQL (their column/table appears in it) form the observed
        state sequence — QUEST's "validated by the user" signal.
        """
        trained = 0
        for example in history:
            gold_elements = self._gold_elements(example.sql, context)
            if not gold_elements:
                continue
            annotated = self.annotator.annotate(example.question, context)
            sequence: List[str] = []
            for cand in sorted(annotated.candidates, key=lambda a: a.start):
                key = _element_key(cand)
                if key is not None and key in gold_elements:
                    if not sequence or sequence[-1] != key:
                        sequence.append(key)
            if len(sequence) >= 1:
                self.hmm.observe_sequence(sequence)
                trained += 1
        return trained

    def _gold_elements(self, sql: str, context: NLIDBContext) -> set:
        try:
            stmt = parse_select(sql)
        except Exception:
            return set()
        elements = set()
        statements = [stmt] + stmt.subqueries()
        for block in statements:
            for table in block.referenced_tables():
                for concept in context.mapping.concepts_on_table(table):
                    elements.add(f"concept:{concept}")
            for expr in block.all_expressions():
                if isinstance(expr, ColumnRef):
                    for table in block.referenced_tables():
                        pair = context.mapping.property_for_column(table, expr.column)
                        if pair:
                            elements.add(f"property:{pair[0]}.{pair[1]}")
        return elements

    # -- interpretation ---------------------------------------------------------------

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        decoded, path_score = self._viterbi(annotated)
        interpretations = self.interpreter.interpret(decoded, context)
        for interpretation in interpretations:
            # aggregate the HMM path confidence into the ranking score
            interpretation.confidence = 0.7 * interpretation.confidence + 0.3 * path_score
        return sorted(interpretations, key=lambda i: -i.confidence)

    def _viterbi(self, annotated: AnnotatedQuestion) -> Tuple[AnnotatedQuestion, float]:
        """Re-pick one candidate per span with Viterbi over the HMM."""
        spans: Dict[Tuple[int, int], List[EvidenceAnnotation]] = {}
        for kept in annotated.annotations:
            if kept.kind not in ("concept", "property", "value"):
                continue
            options = [kept] + annotated.alternatives_for(kept, margin=0.3)
            spans[kept.span] = options
        ordered_spans = sorted(spans)
        if not ordered_spans:
            return annotated, 0.5
        # Viterbi over span positions
        trellis: List[Dict[int, Tuple[float, Optional[int]]]] = []
        for t, span in enumerate(ordered_spans):
            options = spans[span]
            column: Dict[int, Tuple[float, Optional[int]]] = {}
            for j, option in enumerate(options):
                key = _element_key(option)
                emission = math.log(max(min(option.score, 1.0), 1e-6))
                if t == 0:
                    score = emission + self.hmm.log_transition(None, key or "?")
                    column[j] = (score, None)
                else:
                    best: Optional[Tuple[float, int]] = None
                    prev_options = spans[ordered_spans[t - 1]]
                    for i, prev in enumerate(prev_options):
                        prev_key = _element_key(prev)
                        candidate_score = (
                            trellis[t - 1][i][0]
                            + emission
                            + self.hmm.log_transition(prev_key or "?", key or "?")
                        )
                        if best is None or candidate_score > best[0]:
                            best = (candidate_score, i)
                    assert best is not None
                    column[j] = best
            trellis.append(column)
        # backtrack
        last = max(trellis[-1], key=lambda j: trellis[-1][j][0])
        choice = [last]
        for t in range(len(ordered_spans) - 1, 0, -1):
            choice.append(trellis[t][choice[-1]][1])
        choice.reverse()
        final_score = trellis[-1][last][0]
        result = annotated
        for t, span in enumerate(ordered_spans):
            chosen = spans[span][choice[t]]
            current = next(a for a in result.annotations if a.span == span)
            if chosen != current:
                result = result.replace(current, chosen)
        normalized = 1.0 / (1.0 + math.exp(-final_score / max(len(ordered_spans), 1) - 1.0))
        return result, normalized


register("quest", QuestSystem)
