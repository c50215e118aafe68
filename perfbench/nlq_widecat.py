"""``nlq_widecat``: new questions, one at a time, over a 250-table catalog.

One client calls ``NLIDBSystem.answer`` with athena, the path of the
library and ``repro ask``: no serving layer and no cache.  Every
request is a question not yet asked in the run (generated for all four
tiers, then paraphrased at levels 1-3 with synonyms, cue-word swaps and
typos), so the schema index and span matching do most of the work.
The catalog and its question catalogue are generated once from
``CATALOGUE_SEED``; the workload seed orders the questions, so every
run draws from the same questions and catalog.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from closedloop import run_loop
from common import OUT, RunResult, latency_metrics, peak_rss_mb, say, windows
from inputs import GoldOracle, Question, question_pool, tier_mix, warmup_questions
from layers import closed_loop_metrics, delta, schema_index_build_s, snapshot
from nl import answer_digest, breaker_refusals, build_database, hash_seed_flips, serve_failed
from nlq_serve import serving_layers
from stats import median, ratio
from tracing import Tracer

WIDTH = 250
#: distinct generated questions per tier before paraphrasing (x4 levels)
PER_TIER = 150
WARMUP = 16
SETUPS = 3
#: questions of the stream replayed through ResilientService, and
#: answered under each of the two hash seeds
REPLAY = 300
HASH_PROBE = 900


CATALOGUE_SEED = 0
SPEC: Dict[str, Any] = {"kind": "widecat", "width": WIDTH, "seed": CATALOGUE_SEED}


def _setup(warmup: List[str]) -> Tuple[Any, Any, float]:
    """Load the catalog, build the context, warm up: (context, system, seconds)."""
    import repro.systems  # noqa: F401  (populates the system registry)
    from repro.core.pipeline import NLIDBContext
    from repro.core.registry import create

    start = time.perf_counter()
    context = NLIDBContext(build_database(SPEC))
    system = create("athena")
    for question in warmup:
        system.answer(question, context)
    return context, system, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> Tuple[RunResult, Dict[str, Any]]:
    result = RunResult("nlq_widecat", seed, trace)
    database = build_database(SPEC)
    pool = question_pool(database, CATALOGUE_SEED, PER_TIER)
    warmup = warmup_questions(database, CATALOGUE_SEED, WARMUP, pool)
    random.Random(seed).shuffle(pool)
    oracle = GoldOracle(database)
    meta = {
        "catalog_width": WIDTH,
        "catalogue_seed": CATALOGUE_SEED,
        "catalog_rows": sum(len(t) for t in database.tables),
        "distinct_questions": len(pool),
        "tier_mix": tier_mix(pool),
        "repeat_share": 0.0,
    }
    say(f"nlq_widecat: {len(pool)} distinct questions over {WIDTH} tables")
    if trace:
        return _traced(result, pool, warmup, seconds), meta

    setups = []
    for _ in range(SETUPS):
        context, system, setup_s = _setup(warmup)
        setups.append(setup_s)
    loop = run_loop(pool, lambda q: system.answer(q.text, context), seconds)
    asked = pool[: len(loop.latencies)]
    meta["asked_tier_mix"] = tier_mix(asked)
    matched = sum(oracle.matches(q, a) for q, a in zip(asked, loop.outputs))
    result.attempted = len(asked)
    result.failed = loop.failed
    latency_metrics(result, windows(loop.latencies))
    result.metrics.update(
        {
            "setup_s": median(setups),
            "throughput_qps": (result.attempted - result.failed) / loop.wall_s,
            "answered_share": ratio(sum(a is not None for a in loop.outputs), result.attempted),
            "exec_match_share": ratio(matched, result.attempted),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    result.details.update(
        {
            "setups_s": setups,
            "exhausted_pool": len(asked) == len(pool),
            "errors": [e for e in loop.errors if e][:10],
            "error_share": ratio(result.failed, result.attempted),
        }
    )
    return result, meta


def _traced(result: RunResult, pool: List[Question], warmup: List[str], seconds: float) -> RunResult:
    """An untraced pass for a third of the time (the serving phase needs
    the rest), then the same questions traced
    on a fresh set-up; then the serving replay, the hash-seed probe, and
    ``nlq_serve``'s measurements of the serving layers."""
    from repro.cli import build_parser
    from repro.core.pipeline import NLIDBContext
    from repro.serve import ResilientService

    context, system, _ = _setup(warmup)
    plain = run_loop(pool, lambda q: system.answer(q.text, context), seconds / 3)
    asked = pool[: len(plain.latencies)]

    context, system, _ = _setup(warmup)
    execution = [snapshot(context.executor.total_stats)]
    pruning = [snapshot(context.schema_index_counters())]
    tracer = Tracer()
    with tracer:
        traced = run_loop(asked, lambda q: system.answer(q.text, context), on_request=tracer.set_request)
    tracer.set_request(None)
    for question, a, b in zip(asked, plain.outputs, traced.outputs):
        result.check(answer_digest(a) == answer_digest(b), f"answer changed under tracing: {question.text!r}")
    bases: Dict[str, Any] = {}
    metrics = closed_loop_metrics(
        tracer,
        plain,
        traced,
        delta(execution, [snapshot(context.executor.total_stats)]),
        delta(pruning, [snapshot(context.schema_index_counters())]),
        bases,
    )

    # Serving replay with `repro serve`'s defaults: abstentions trip breakers.
    args = build_parser().parse_args(["serve"])
    service = ResilientService(
        context, retries=args.retries, backoff_s=args.backoff, timeout_s=args.timeout or None
    )
    replay = [service.ask(q.text) for q in asked[:REPLAY]]
    degraded = sum(bool(r.degraded_from) and r.ok for r in replay)
    bases["serve.service.fallback_share"] = {"degraded": degraded, "served": len(replay)}
    bases["serve.service.breaker_refusals"] = {
        "refused_requests": sum(serve_failed(r) for r in replay), "replayed": len(replay)
    }
    flips, flip_details = hash_seed_flips(SPEC, [q.text for q in pool[:HASH_PROBE]], OUT / "tmp")
    metrics.update(serving_layers(result, seconds))
    metrics.update(
        {
            "serve.service.fallback_share": ratio(degraded, len(replay)),
            "serve.service.breaker_refusals": sum(map(breaker_refusals, replay)),
            "core.schema_index.build_s": schema_index_build_s(
                NLIDBContext(build_database(SPEC)), time.perf_counter
            ),
            "systems.hash_seed_flips": flips,
        }
    )
    result.attempted = len(asked)
    result.failed = traced.failed
    result.metrics.update(metrics)
    result.details.update({"bases": bases, "hash_seed_probe": flip_details})
    tracer.write(OUT / "traces" / f"nlq_widecat-seed{result.seed}.jsonl.gz")
    return result
