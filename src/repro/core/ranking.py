"""Interpretation ranking.

SODA [15] ranks candidate interpretations "based on an aggregation of the
scores associated with each lookup result"; NaLIR and ATHENA do the same
with parse/ontology evidence.  `score_interpretation` implements that
shared recipe — evidence quality × question coverage — and `rank` orders
a candidate list, optionally re-normalizing confidences.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from repro.nlp.stopwords import is_stopword
from repro.nlp.tokenizer import Token
from repro.perf.profiler import profile_stage
from repro.sqldb.analyzer import AnalysisResult

from .evidence import EvidenceAnnotation, coverage
from .interpretation import Interpretation


def evidence_score(annotations: Sequence[EvidenceAnnotation]) -> float:
    """Geometric mean of evidence scores (1.0 when there is none).

    The geometric mean punishes a single weak link harder than the
    arithmetic mean — one dubious mapping should sink the whole
    interpretation, which is what makes entity-based ranking precise.
    """
    if not annotations:
        return 1.0
    logs = sum(math.log(min(max(a.score, 1e-6), 1.0)) for a in annotations)
    return math.exp(logs / len(annotations))


def content_indices(tokens: Sequence[Token]) -> List[int]:
    """Indices of tokens that matter for coverage (non-stopword words,
    numbers, dates, quoted values)."""
    out = []
    for i, token in enumerate(tokens):
        if token.kind == "punct":
            continue
        if token.kind == "word" and is_stopword(token.norm):
            continue
        out.append(i)
    return out


def score_interpretation(
    interpretation: Interpretation, tokens: Sequence[Token]
) -> float:
    """Composite score: evidence quality × coverage of content tokens."""
    ev = evidence_score(interpretation.evidence)
    cov = coverage(interpretation.evidence, content_indices(tokens))
    return ev * (0.4 + 0.6 * cov)


def rank(
    interpretations: List[Interpretation],
    tokens: Sequence[Token],
    rescore: bool = True,
) -> List[Interpretation]:
    """Order interpretations best-first.

    With ``rescore`` (the default) each interpretation's confidence is
    replaced by the composite score; otherwise existing confidences are
    used only for ordering.
    """
    with profile_stage("rank"):
        if rescore:
            for interpretation in interpretations:
                interpretation.confidence = score_interpretation(
                    interpretation, tokens
                )
        return sorted(interpretations, key=lambda i: -i.confidence)


#: per-warning confidence multiplier used by :func:`apply_static_analysis`
WARNING_PENALTY = 0.9


def apply_static_analysis(
    interpretations: Sequence[Interpretation],
    analyze: Callable[[Interpretation], Optional[AnalysisResult]],
) -> List[Interpretation]:
    """Prune statically invalid candidates and penalize warned ones.

    ``analyze`` maps a candidate to the analyzer verdict on its compiled
    SQL (``None`` when the candidate cannot even be compiled — such
    candidates are kept; compilation failures are the executor's
    problem).  Candidates whose SQL carries *error* diagnostics are
    dropped outright: the executor pre-flight would reject them anyway,
    so spending rank on them only displaces viable readings.  Each
    *warning* (always-false comparison, ungrouped bare column, …)
    multiplies confidence by :data:`WARNING_PENALTY` — dubious readings
    sink below clean ones of comparable evidence but stay available.
    :meth:`repro.core.pipeline.NLIDBContext.run_best` is the one caller.
    """
    kept: List[Interpretation] = []
    for interpretation in interpretations:
        result = analyze(interpretation)
        if result is not None:
            if result.errors:
                continue
            if result.warnings:
                interpretation.confidence *= WARNING_PENALTY ** len(result.warnings)
        kept.append(interpretation)
    return sorted(kept, key=lambda i: -i.confidence)
