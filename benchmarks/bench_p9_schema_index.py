"""P9 — Compressed semantic schema index: sub-linear evidence matching.

Three sections, all against the same seeded databases with the schema
index toggled (``NLIDBContext(db, use_schema_index=...)``):

1. **Identity on the demo domains** — every registered annotator system
   annotates every generated workload question (plus handcrafted typo /
   synonym probes that exercise the fuzzy-value and thesaurus-expansion
   paths) on every bench domain, indexed and brute-force.  The two
   :class:`~repro.systems.base.AnnotatedQuestion` results must compare
   equal — same annotations, same candidates, same ordering.  Nothing
   is timed until this passes.
2. **Identity at catalog width** — the same byte-identity assertion over
   seeded wide catalogs (:func:`repro.bench.catalog_gen
   .build_wide_catalog`) at every measured width, interpretation
   included (the full interpret() output list must match, not just the
   annotations).
3. **Latency and candidate pruning** — interpretation latency
   (best-of-N over the question set) at catalog widths 10/50/100/250,
   indexed vs brute force, with the index's own
   :class:`~repro.core.schema_index.PruningCounters` recording how many
   of the brute-force candidate comparisons were skipped.

Emits ``benchmarks/results/p9_schema_index.txt`` and
``BENCH_schema_index.json`` at the repo root; ``--quick`` runs write
both under ``.bench_quick/``.

Acceptance floors: >=5x indexed interpretation speedup at the 250-table
catalog (full mode; ``--quick`` stops at width 100 where a >1x floor
applies) and a >=0.5 candidate pruning ratio at width >= 100 in both
modes.  Identity is asserted unconditionally in both modes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
import repro.systems  # noqa: F401  (imported to populate the registry)
from repro.bench.catalog_gen import build_wide_catalog
from repro.bench.domains import domain_names
from repro.bench.harness import format_table
from repro.bench.workloads import WorkloadGenerator
from repro.core.pipeline import NLIDBContext
from repro.core.registry import available, create


SEED = 0
#: the system timed in the latency section (widest matcher: ontology
#: evidence over every concept/property, fuzzy values, the works)
TIMED_SYSTEM = "athena"
FULL_WIDTHS = (10, 50, 100, 250)
QUICK_WIDTHS = (10, 100)
#: handcrafted probes forcing the paths a clean workload rarely takes:
#: typo'd values (fuzzy-value buckets), typo'd schema words (trigram
#: filter), synonym/taxonomy phrasings (thesaurus expansions)
PROBES = (
    "show customers in Berlni",
    "list the empolyees with highest pay",
    "total compensation by division",
    "average salery of staff",
    "workers per department",
    "films released after 2000",
)


def _annotator_systems() -> List[Tuple[str, object]]:
    out = []
    for name in available():
        annotator = getattr(create(name), "annotator", None)
        if annotator is not None:
            out.append((name, annotator))
    return out


def _questions_for(db, per_tier: int) -> List[str]:
    generated = WorkloadGenerator(db, seed=SEED).generate_mixed(per_tier)
    return [example.question for example in generated] + list(PROBES)


def _domain_identity_section(quick: bool) -> Dict[str, int]:
    """Assert indexed == brute annotations on every bench domain."""
    from repro.bench.domains import build_domain

    domains = domain_names()
    if quick:
        domains = domains[::2]
    systems = _annotator_systems()
    checks = 0
    for domain in domains:
        db = build_domain(domain, seed=SEED)
        indexed = NLIDBContext(db)
        brute = NLIDBContext(db, use_schema_index=False)
        questions = _questions_for(db, per_tier=2)
        for name, annotator in systems:
            for question in questions:
                a = annotator.annotate(question, indexed)
                b = annotator.annotate(question, brute)
                assert a == b, (domain, name, question)
                checks += 1
    return {"domains": len(domains), "systems": len(systems), "checks": checks}


def timeit(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _width_section(width: int, quick: bool) -> Dict[str, object]:
    """Identity + latency + pruning at one catalog width."""
    db = build_wide_catalog(width, seed=SEED)
    indexed = NLIDBContext(db)
    brute = NLIDBContext(db, use_schema_index=False)
    questions = _questions_for(db, per_tier=1 if quick else 2)
    system = create(TIMED_SYSTEM)

    # Interpretation identity for the timed system at every width, and
    # annotation identity across all systems at the cheapest width
    # (cost there is brute-force-dominated and grows with width).
    for question in questions:
        assert system.interpret(question, indexed) == system.interpret(
            question, brute
        ), (width, question)
    if width <= 10:
        for name, annotator in _annotator_systems():
            for question in questions:
                assert annotator.annotate(question, indexed) == annotator.annotate(
                    question, brute
                ), (width, name, question)

    def sweep(context: NLIDBContext) -> None:
        for question in questions:
            system.interpret(question, context)

    repeat = 2 if quick else 3
    counters = indexed.schema_index_counters()
    assert counters is not None
    before = counters.snapshot()
    indexed_s = timeit(lambda: sweep(indexed), repeat)
    pruning = counters.delta(before)
    brute_s = timeit(lambda: sweep(brute), repeat)

    index = indexed.schema_index
    assert index is not None
    return {
        "width": width,
        "questions": len(questions),
        "metadata_targets": index.metadata_targets,
        "indexed_s": indexed_s,
        "brute_s": brute_s,
        "speedup": brute_s / indexed_s,
        "avg_candidates": pruning.scored / pruning.spans if pruning.spans else 0.0,
        "pruning": pruning.as_dict(),
    }


def run(quick: bool = False) -> Dict[str, object]:
    identity = _domain_identity_section(quick)
    widths = QUICK_WIDTHS if quick else FULL_WIDTHS
    sections = [_width_section(width, quick) for width in widths]

    top = sections[-1]
    wide = [s for s in sections if int(s["width"]) >= 100]
    min_wide_ratio: Optional[float] = (
        min(float(s["pruning"]["pruning_ratio"]) for s in wide) if wide else None
    )
    results: Dict[str, object] = {
        "seed": SEED,
        "quick": quick,
        "timed_system": TIMED_SYSTEM,
        "identity": identity,
        "widths": sections,
        "top_width": top["width"],
        "top_speedup": top["speedup"],
        "min_wide_pruning_ratio": min_wide_ratio,
    }

    table = [
        {
            "width": s["width"],
            "targets": s["metadata_targets"],
            "brute_s": f"{s['brute_s']:.4f}",
            "indexed_s": f"{s['indexed_s']:.4f}",
            "speedup": f"{s['speedup']:.1f}x",
            "avg cand": f"{s['avg_candidates']:.1f}",
            "pruned": s["pruning"]["pruned"],
            "prune ratio": f"{s['pruning']['pruning_ratio']:.1%}",
        }
        for s in sections
    ]
    title = (
        f"P9: schema-index vs brute-force interpretation "
        f"({TIMED_SYSTEM}, seed={SEED}{', quick' if quick else ''}); "
        f"identity: {identity['checks']} annotation checks across "
        f"{identity['domains']} domains x {identity['systems']} systems, 0 mismatches"
    )
    emit_record(
        "p9_schema_index",
        format_table(table, title),
        "BENCH_schema_index.json",
        results,
        quick,
    )

    # Identity was asserted above, unconditionally.  Perf floors:
    if not quick:
        assert top["speedup"] >= 5.0, results
    else:
        assert top["speedup"] > 1.0, results
    assert min_wide_ratio is not None and min_wide_ratio >= 0.5, results
    return results


def test_p9_schema_index(benchmark):
    """pytest-benchmark entry: run once, time one indexed interpretation."""
    run(quick=True)
    db = build_wide_catalog(100, seed=SEED)
    context = NLIDBContext(db)
    system = create(TIMED_SYSTEM)
    question = PROBES[0]
    system.interpret(question, context)  # build the index outside the timer
    benchmark(lambda: system.interpret(question, context))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="widths 10/100 only, for CI smoke runs (relaxed speedup floor)",
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    top = results["widths"][-1]
    print(
        f"\nindexed speedup {top['speedup']:.1f}x at width {top['width']} "
        f"({top['avg_candidates']:.1f} avg candidates vs "
        f"{top['metadata_targets']} brute); min wide pruning ratio "
        f"{results['min_wide_pruning_ratio']:.1%}; "
        f"{results['identity']['checks']} identity checks passed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
