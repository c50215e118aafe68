"""Shared evidence annotation for entity-based systems.

Every entity-based system the survey covers (§4.1) begins the same way:
match spans of the question against (a) metadata — here, ontology
concepts and properties with their synonyms — and (b) data values.  The
systems differ in which resources they may use (SODA: indexes only;
NaLIR: parse tree + similarity; ATHENA: full ontology) and in how the
matched evidence becomes a query; those differences live in each system
module, while the span-matching engine lives here.

:class:`EntityAnnotator` produces :class:`AnnotatedQuestion` objects
holding tagged tokens, detected NL patterns, resolved annotations, and —
crucially for NaLIR's clarification dialogs and TEMPLAR's log boosting —
the *alternative* candidates for each ambiguous span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.core.evidence import EvidenceAnnotation, resolve_overlaps
from repro.core.intermediate import PropertyRef
from repro.core.pipeline import NLIDBContext
from repro.core.schema_index import SchemaIndex, all_metadata_targets
from repro.nlp.matching import phrase_similarity, term_similarity
from repro.nlp.patterns import PatternMatch, detect_patterns
from repro.nlp.pos import tag_text
from repro.nlp.similarity import string_similarity
from repro.nlp.stopwords import is_stopword
from repro.nlp.tokenizer import Token
from repro.ontology.relaxation import QueryRelaxer
from repro.perf.profiler import profile_stage

#: the longest question span (in tokens) matched against metadata; value
#: spans may be two tokens longer
MAX_SPAN = 3


@dataclass
class AnnotatedQuestion:
    """The annotated form of one question."""

    question: str
    tokens: List[Token]
    patterns: List[PatternMatch]
    annotations: List[EvidenceAnnotation]
    candidates: List[EvidenceAnnotation] = field(default_factory=list)

    def alternatives_for(
        self, annotation: EvidenceAnnotation, margin: float = 0.15
    ) -> List[EvidenceAnnotation]:
        """Other candidates for the same span within ``margin`` score.

        These are what NaLIR shows the user to clarify, and what TEMPLAR
        re-ranks with query-log statistics.
        """
        out = []
        for cand in self.candidates:
            if cand.span != annotation.span or cand == annotation:
                continue
            if cand.kind == annotation.kind and cand.target == annotation.target:
                continue
            if annotation.score - cand.score <= margin:
                out.append(cand)
        out.sort(key=lambda a: -a.score)
        return out

    def annotations_of(self, kind: str) -> List[EvidenceAnnotation]:
        """Kept annotations of one kind, in question order."""
        return [a for a in self.annotations if a.kind == kind]

    def replace(
        self, old: EvidenceAnnotation, new: EvidenceAnnotation
    ) -> "AnnotatedQuestion":
        """A copy with one kept annotation swapped (for alternatives)."""
        swapped = [new if a == old else a for a in self.annotations]
        return AnnotatedQuestion(
            self.question, self.tokens, self.patterns, swapped, self.candidates
        )


class EntityAnnotator:
    """Matches question spans against ontology elements and data values."""

    def __init__(
        self,
        fuzzy_values: bool = True,
        similarity_threshold: float = 0.75,
        relaxer: Optional[QueryRelaxer] = None,
    ):
        self.fuzzy_values = fuzzy_values
        self.similarity_threshold = similarity_threshold
        self.relaxer = relaxer

    # -- public API -----------------------------------------------------------

    def annotate(self, question: str, context: NLIDBContext) -> AnnotatedQuestion:
        """Produce the full annotation of ``question`` over ``context``."""
        with profile_stage("tokenize"):
            tokens = tag_text(question)
        patterns = detect_patterns(tokens)
        candidates: List[EvidenceAnnotation] = []
        index = self._index_for(context)
        with profile_stage("match"):
            for start, end, words in self._spans(tokens):
                candidates.extend(
                    self._metadata_candidates(start, end, words, context, index)
                )
            for start, end, words in self._value_spans(tokens):
                candidates.extend(
                    self._value_candidates(start, end, words, tokens, context)
                )
            if self.fuzzy_values:
                matched = {i for c in candidates for i in range(c.start, c.end)}
                candidates.extend(
                    self._fuzzy_value_candidates(tokens, matched, context, index)
                )
            if self.relaxer is not None:
                matched = {i for c in candidates for i in range(c.start, c.end)}
                candidates.extend(self._relaxed_candidates(tokens, matched, context))
        candidates = self._contextual_boost(candidates)
        kept = resolve_overlaps(candidates)
        return AnnotatedQuestion(question, tokens, patterns, kept, candidates)

    def _index_for(self, context: NLIDBContext) -> Optional[SchemaIndex]:
        """The context's schema index, when both sides allow it.

        ``None`` (→ brute force) when the context was built with
        ``use_schema_index=False`` or the similarity threshold is below
        the index's soundness floor.
        """
        if not SchemaIndex.supports_threshold(self.similarity_threshold):
            return None
        return getattr(context, "schema_index", None)

    # -- contextual disambiguation ---------------------------------------------------

    @staticmethod
    def _contextual_boost(
        candidates: List[EvidenceAnnotation],
    ) -> List[EvidenceAnnotation]:
        """Boost property/value candidates whose concept is independently
        mentioned nearby.

        When "name" matches ``employee.name`` and ``department.name``
        equally, the mention of "employees" two tokens earlier should
        decide it — this positional evidence-aggregation is the ranking
        device all entity-based systems share (§4.1).
        """
        concept_spans = [
            (c.start, c.end, c.payload)
            for c in candidates
            if c.kind == "concept"
        ]
        if not concept_spans:
            return candidates
        boosted: List[EvidenceAnnotation] = []
        for cand in candidates:
            concept = None
            if cand.kind == "property":
                concept = cand.payload.concept
            elif cand.kind == "value":
                concept = cand.payload[0].concept
            if concept is None:
                boosted.append(cand)
                continue
            bonus = 0.0
            nearest = None
            for start, end, name in concept_spans:
                if name != concept:
                    continue
                if start == cand.start and end == cand.end:
                    continue  # the span itself, not context
                gap = max(0, cand.start - end, start - cand.end)
                nearest = gap if nearest is None else min(nearest, gap)
            if nearest is not None:
                bonus += 0.05
                if nearest <= 3:
                    bonus += 0.08 * (1.0 - nearest / 4.0)
            if bonus:
                boosted.append(
                    EvidenceAnnotation(
                        cand.start,
                        cand.end,
                        cand.kind,
                        cand.target,
                        cand.score + bonus,
                        cand.payload,
                    )
                )
            else:
                boosted.append(cand)
        return boosted

    # -- span enumeration ---------------------------------------------------------

    def _spans(self, tokens: List[Token]):
        n = len(tokens)
        for length in range(min(MAX_SPAN, n), 0, -1):
            for start in range(0, n - length + 1):
                window = tokens[start : start + length]
                if any(t.kind == "punct" for t in window):
                    continue
                words = [t.norm for t in window]
                if all(is_stopword(w) or not w for w in words):
                    continue
                # numbers participate in comparisons, not entity matching
                if length == 1 and window[0].kind in ("number", "date"):
                    continue
                yield start, start + length, words

    def _value_spans(self, tokens: List[Token]):
        """Span enumeration for value lookup: punctuation *inside* a span
        is tolerated (and skipped) so "Dr. Emil Ito" matches as one value."""
        n = len(tokens)
        for length in range(min(MAX_SPAN + 2, n), 0, -1):
            for start in range(0, n - length + 1):
                window = tokens[start : start + length]
                if window[0].kind == "punct" or window[-1].kind == "punct":
                    continue
                words = [t.norm for t in window if t.kind != "punct"]
                if not words or all(is_stopword(w) or not w for w in words):
                    continue
                if len(words) == 1 and window[0].kind in ("number", "date"):
                    continue
                yield start, start + length, words

    # -- metadata candidates ----------------------------------------------------------

    def _metadata_candidates(
        self,
        start: int,
        end: int,
        words: List[str],
        context: NLIDBContext,
        index: Optional[SchemaIndex] = None,
    ) -> List[EvidenceAnnotation]:
        out: List[EvidenceAnnotation] = []
        # Multi-token metadata spans must be stopword-free: otherwise
        # "list the accounts" degenerates to matching "accounts" alone
        # while claiming (and winning) the longer span.
        if len(words) > 1 and any(is_stopword(w) for w in words):
            return out
        content = words
        if index is None:
            targets = all_metadata_targets(context.ontology)
        else:
            targets = index.candidate_targets(words, self.similarity_threshold)
        for kind, element in targets:
            score = self._surface_score(content, element.surface_forms(), context)
            if score < self.similarity_threshold:
                continue
            if kind == "concept":
                out.append(
                    EvidenceAnnotation(
                        start, end, "concept", element.name, score, payload=element.name
                    )
                )
            else:
                ref = PropertyRef(element.concept, element.name)
                out.append(
                    EvidenceAnnotation(
                        start, end, "property", str(ref), score, payload=ref
                    )
                )
        return out

    def _surface_score(
        self, words: List[str], forms: FrozenSet[str], context: NLIDBContext
    ) -> float:
        best = 0.0
        for form in forms:
            if len(words) == 1:
                score = term_similarity(words[0], form, context.thesaurus)
            else:
                form_words = form.split()
                if len(form_words) < len(words):
                    continue  # a span must not exceed the form it names
                # every span word must find a counterpart in the form —
                # otherwise "minimum year" would ride on "year" alone and
                # swallow the aggregation cue next to it
                covered = all(
                    max(
                        term_similarity(qw, fw, context.thesaurus)
                        for fw in form_words
                    )
                    >= 0.5
                    for qw in words
                )
                if not covered:
                    continue
                score = phrase_similarity(words, form, context.thesaurus)
            best = max(best, score)
        return best

    # -- value candidates --------------------------------------------------------------

    def _value_candidates(
        self,
        start: int,
        end: int,
        words: List[str],
        tokens: List[Token],
        context: NLIDBContext,
    ) -> List[EvidenceAnnotation]:
        out: List[EvidenceAnnotation] = []
        hits = context.value_index.lookup_phrase(words)
        for entry in hits:
            ref = self._ref_for(entry.table, entry.column, context)
            if ref is None:
                continue
            out.append(
                EvidenceAnnotation(
                    start,
                    end,
                    "value",
                    f"value {entry.value!r} in {ref}",
                    entry.score,
                    payload=(ref, entry.value),
                )
            )
        return out

    def _fuzzy_value_candidates(
        self,
        tokens: List[Token],
        matched: Set[int],
        context: NLIDBContext,
        index: Optional[SchemaIndex] = None,
    ) -> List[EvidenceAnnotation]:
        out: List[EvidenceAnnotation] = []
        for i, token in enumerate(tokens):
            if i in matched or token.kind not in ("word", "quoted"):
                continue
            if len(token.norm) < 4 or is_stopword(token.norm):
                continue
            # (score, table, column, value) of the first best match
            best: Optional[Tuple[float, str, str, object]] = None
            if index is not None:
                # The bucketed pool replays the brute-force scan over a
                # pruned subsequence: same iteration order (global
                # ordinals), same pre-filters (first char, |Δlen| ≤ 3),
                # same mapped columns only, same strict-> tie-break, so
                # `best` comes out identical.
                for _, table_name, column_name, value, text in index.fuzzy_value_pool(
                    token.norm
                ):
                    score = string_similarity(token.norm, text)
                    if score >= 0.74 and (best is None or score > best[0]):
                        best = (score, table_name, column_name, value)
            else:
                for table in context.database.tables:
                    for column in table.schema.text_columns():
                        if self._ref_for(table.name, column.name, context) is None:
                            continue
                        for value in table.distinct_values(column.name):
                            text = str(value)
                            if abs(len(text) - len(token.norm)) > 3:
                                continue
                            if text[:1].lower() != token.norm[:1]:
                                continue
                            score = string_similarity(token.norm, text)
                            if score >= 0.74 and (best is None or score > best[0]):
                                best = (score, table.name, column.name, value)
            if best is not None:
                score, table_name, column_name, value = best
                ref = self._ref_for(table_name, column_name, context)
                out.append(
                    EvidenceAnnotation(
                        i,
                        i + 1,
                        "value",
                        f"value {value!r} in {ref} (fuzzy)",
                        score * 0.9,
                        payload=(ref, value),
                    )
                )
        return out

    def _relaxed_candidates(
        self, tokens: List[Token], matched: Set[int], context: NLIDBContext
    ) -> List[EvidenceAnnotation]:
        """Lei-et-al.-style relaxation: expand unmatched spans through the
        external KB and retry the value index."""
        out: List[EvidenceAnnotation] = []
        assert self.relaxer is not None
        n = len(tokens)
        for length in range(min(MAX_SPAN, n), 0, -1):
            for start in range(0, n - length + 1):
                end = start + length
                if any(i in matched for i in range(start, end)):
                    continue
                window = tokens[start:end]
                if any(t.kind == "punct" for t in window):
                    continue
                phrase = " ".join(t.norm for t in window)
                if is_stopword(phrase):
                    continue
                for proposal in self.relaxer.relax(phrase):
                    hits = context.value_index.lookup(proposal.term)
                    for entry in hits:
                        ref = self._ref_for(entry.table, entry.column, context)
                        if ref is None:
                            continue
                        out.append(
                            EvidenceAnnotation(
                                start,
                                end,
                                "value",
                                f"value {entry.value!r} in {ref} "
                                f"(relaxed via {proposal.source})",
                                proposal.confidence * entry.score,
                                payload=(ref, entry.value),
                            )
                        )
                    if any(h for h in hits):
                        break  # best-confidence proposal that hits wins
        return out

    @staticmethod
    def _ref_for(
        table: str, column: str, context: NLIDBContext
    ) -> Optional[PropertyRef]:
        pair = context.mapping.property_for_column(table, column)
        if pair is None:
            return None
        return PropertyRef(pair[0], pair[1])
