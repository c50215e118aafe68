"""Ablation A2 — interpretation ranking and contextual evidence boosting.

SODA ranks candidate interpretations "based on an aggregation of the
scores associated with each lookup result" [15], and every entity-based
system disambiguates mappings with surrounding evidence (§4.1).  Two
design choices are ablated on a mixed workload:

- **ranking**: take the top-ranked interpretation (default) vs the
  bottom-ranked one (what a system without candidate ranking risks
  returning when ambiguity produces several readings),
- **context boost**: the annotator's concept-proximity boost
  (``"name" near "employees"`` → ``employee.name``) on vs off.

Shape: default beats both ablations; turning off the context boost
breaks exactly the ambiguous-property questions.
"""

from __future__ import annotations

import pytest

from _common import emit_rows
from repro.bench import build_domain, evaluate_system
from repro.bench.metrics import summarize
from repro.bench.workloads import WorkloadGenerator
from repro.core import NLIDBContext
from repro.systems import AthenaSystem, EntityAnnotator

DOMAINS = ["hr", "retail", "finance"]
SEED = 31
PER_TIER = 6


class _BottomRanked(AthenaSystem):
    """Takes the worst-ranked interpretation (ranking ablation)."""

    name = "athena[bottom-ranked]"

    def interpret(self, question, context):
        interpretations = super().interpret(question, context)
        for interpretation in interpretations:
            interpretation.confidence = -interpretation.confidence
        return interpretations


class _NoBoostAnnotator(EntityAnnotator):
    """Annotator with the concept-proximity boost disabled."""

    @staticmethod
    def _contextual_boost(candidates):
        return candidates


class _NoBoost(AthenaSystem):
    name = "athena[no-context-boost]"

    def __init__(self):
        super().__init__()
        self.annotator = _NoBoostAnnotator(fuzzy_values=True, similarity_threshold=0.75)


@pytest.fixture(scope="module")
def experiment():
    results = {}
    for domain in DOMAINS:
        database = build_domain(domain)
        context = NLIDBContext(database)
        examples = WorkloadGenerator(database, seed=SEED).generate_mixed(PER_TIER)
        for system in (AthenaSystem(), _BottomRanked(), _NoBoost()):
            name = getattr(system, "name", "athena")
            summary = summarize(evaluate_system(system, context, examples))
            correct, total = results.get(name, (0, 0))
            results[name] = (correct + summary.correct, total + summary.total)
    return results


def test_a2_ranking_and_boost(experiment, benchmark):
    rows = [
        {
            "variant": name,
            "accuracy": f"{correct}/{total} ({correct / total:.3f})",
        }
        for name, (correct, total) in experiment.items()
    ]
    emit_rows(
        "a2_soda_ranking", rows, "A2: ranking & contextual-boost ablation (all tiers)"
    )

    def accuracy(name):
        correct, total = experiment[name]
        return correct / total

    assert accuracy("athena") > accuracy("athena[bottom-ranked]")
    assert accuracy("athena") > accuracy("athena[no-context-boost]")

    context = NLIDBContext(build_domain("hr"))
    system = AthenaSystem()
    benchmark(lambda: system.interpret("employees with title engineer", context))
