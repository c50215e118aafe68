"""``nlq_serve``: open-loop questions against the front ``repro serve --http`` builds.

The front is built from the CLI's own defaults (domain, data seed, pool
size, queue depth, retries), so the benchmark follows the product when
a default changes.  Each step offers Poisson arrivals from one
generator thread through ``ConcurrentFront.submit(block=False)``,
exactly as the HTTP handler does, with one observer thread stamping
completions.

- Latency and answer metrics come from three steps at the nominal rate,
  each on a freshly built and warmed front.
- The traced run also bisects a fixed ladder of rates for
  ``max_qps_at_slo``, every probe on a fresh front with the nominal
  stream.  It is a per-layer metric because its run-to-run spread is
  wider than any bound the benchmark may set (see ``NOMINAL_STEPS``).
- The questions are a fixed catalogue: the four tiers at paraphrase
  levels 0-3, generated once from ``CATALOGUE_SEED``.  The workload
  seed orders them, draws the repeats and the arrival times.  About a
  third of requests repeat an earlier question (Zipf-skewed), so the
  median request is an answer-cache miss.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from common import OUT, WINDOWS, RunResult, latency_metrics, peak_rss_mb, say
from inputs import GoldOracle, measured_repeat_share, question_pool, repeat_stream, tier_mix, warmup_questions
from layers import counter_metrics, delta, schema_index_build_s, snapshot
from nl import breaker_refusals, build_database, hash_seed_flips, serve_answered, serve_failed, system_errors
from openloop import Step, run_step
from stats import INF, geometric_ladder, highest_passing, median, percentile, ratio
from tracing import SELF_TIME_METRICS, Tracer

NOMINAL_RATE = 80.0
SLO_S = 0.100
#: 6% rungs from ~60 to ~580 req/s, anchored on the nominal rate
LADDER = geometric_ladder(NOMINAL_RATE, 1.06, below=5, above=34)
NOMINAL_RUNG = 5
REPEAT_SHARE = 1 / 3
#: a flat Zipf draw: no single hot question carries the answer metrics
ZIPF_EXPONENT = 0.5
#: nominal-rate steps per run, one fresh front per latency window.  A
#: step's p99 swings with whether a full garbage collection stalled the
#: process at a busy moment (on a 2-vCPU VM, 19-33 ms with the
#: collector off and 36-98 ms on, over the same inputs), so p99 is
#: recorded but not gated, and neither is the ladder built on it.
NOMINAL_STEPS = WINDOWS
CATALOGUE_SEED = 0
#: distinct generated questions per tier before paraphrasing
PER_TIER = 60
WARMUP = 64
HTTP_SAMPLE = 100


class FrontFactory:
    """Builds the front ``repro serve --http PORT`` builds with no other flags."""

    def __init__(self) -> None:
        from repro.cli import build_parser

        self.args = build_parser().parse_args(["serve", "--http", "1"])
        #: a step fails when its backlog grows by more than half the
        #: admission queue (a full queue would already refuse requests)
        self.max_growth = self.args.queue_depth / 2
        #: the worker contexts of the front built last
        self.contexts: List[Any] = []

    @property
    def database_spec(self) -> Dict[str, Any]:
        return {"kind": "domain", "name": self.args.domain, "seed": self.args.seed}

    def context(self) -> Any:
        from repro.core.pipeline import NLIDBContext

        return NLIDBContext(
            build_database(self.database_spec),
            use_schema_index=not self.args.no_schema_index,
        )

    def build(self, warmup: Sequence[str]) -> Tuple[Any, float]:
        """A started, warmed front and the seconds that took."""
        from repro.serve import ConcurrentFront

        args = self.args
        built = threading.Semaphore(0)
        contexts = self.contexts = []

        def context_factory() -> Any:
            context = self.context()
            contexts.append(context)
            built.release()
            return context

        start = time.perf_counter()
        front = ConcurrentFront(
            context_factory,
            pool_size=args.pool,
            queue_depth=args.queue_depth,
            deadline_s=args.deadline or None,
            fault_plan=None,
            retries=args.retries,
            backoff_s=args.backoff,
            timeout_s=args.timeout or None,
        )
        front.start()
        for _ in range(front.pool_size):
            if not built.acquire(timeout=120):
                front.stop()
                raise RuntimeError("a serving worker never built its context")
        for ticket in [front.submit(q, block=True) for q in warmup]:
            ticket.wait(timeout=120)
        return front, time.perf_counter() - start


class Inputs:
    """The question catalogue, this seed's request streams, and gold answers."""

    def __init__(self, factory: FrontFactory, seed: int, requests: int):
        database = build_database(factory.database_spec)
        catalogue = question_pool(database, CATALOGUE_SEED, PER_TIER)
        self.seed = seed
        self.requests = requests
        self.warmup = warmup_questions(database, CATALOGUE_SEED, WARMUP, catalogue)
        self.pool = catalogue[: round(requests * (1 - REPEAT_SHARE))]
        self.by_text = {q.text: q for q in self.pool}
        self.oracle = GoldOracle(database)

    def stream(self, step: int) -> List[str]:
        """Step ``step``'s requests: the pool in a seeded order, with
        about a third repeating earlier questions, Zipf-skewed."""
        rng = random.Random(self.seed * 1_000_003 + step)
        order = rng.sample(self.pool, len(self.pool))
        picks = repeat_stream(len(order), self.requests, REPEAT_SHARE, rng, ZIPF_EXPONENT)
        return [order[i].text for i in picks]


class Outcome(NamedTuple):
    """What the benchmark keeps of one served request."""

    request_id: int
    question: str
    cached: bool
    failed: bool
    rejected: bool
    answered: bool
    degraded: bool
    breaker_refusals: int
    system_errors: int
    #: hash of the answer's columns and rows (``None`` = no answer)
    digest: Optional[int]
    #: seconds the front reports: queued plus inside the service
    front_s: float


class Answers:
    """Each distinct answer to each question, kept once for the checks."""

    def __init__(self) -> None:
        self.kept: Dict[Tuple[str, int], Any] = {}
        #: (question, digest) of every answer that did not come from the cache
        self.fresh: set = set()

    def keep(self, ticket: Any) -> Outcome:
        r = ticket.result
        digest = None
        if r.answer is not None:
            digest = hash((tuple(r.answer.columns), tuple(r.answer.rows)))
            self.kept.setdefault((r.question, digest), r.answer)
            if not r.cached:
                self.fresh.add((r.question, digest))
        return Outcome(
            ticket.request_id,
            r.question,
            r.cached,
            serve_failed(r),
            r.rejected,
            serve_answered(r),
            bool(r.degraded_from),
            breaker_refusals(r),
            system_errors(r),
            digest,
            r.queued_s + r.elapsed_s,
        )


def _worker_counters(contexts: Sequence[Any]) -> Dict[str, List[Dict[str, int]]]:
    return {
        "execution": [snapshot(c.executor.total_stats) for c in contexts],
        "pruning": [snapshot(c.schema_index_counters()) for c in contexts],
    }


def _offer(
    factory: FrontFactory,
    inputs: Inputs,
    texts: Sequence[str],
    rate: float,
    abort: bool = False,
    tracer: Any = None,
) -> Tuple[Step, float, Answers, Dict[str, Any]]:
    """``texts`` at ``rate`` on a fresh front: the step, its set-up
    seconds, its answers, and the counters the step moved (front
    admission counters, executor and pruning deltas over all workers).
    With ``tracer`` the step (not the set-up) runs traced."""
    front, setup_s = factory.build(inputs.warmup)
    workers = list(factory.contexts)
    answers = Answers()
    try:
        before = _worker_counters(workers)
        rng = random.Random(inputs.seed * 7919 + round(rate * 1000))
        with tracer if tracer is not None else contextlib.nullcontext():
            step = run_step(front, texts, rate, rng, answers.keep, SLO_S if abort else None)
        after = _worker_counters(workers)
        counters = {
            "front": front.healthz()["counters"],
            "execution": delta(before["execution"], after["execution"]),
            "pruning": delta(before["pruning"], after["pruning"]),
        }
    finally:
        front.stop()
    return step, setup_s, answers, counters


def _check(result: RunResult, step: Step, answers: Answers) -> None:
    """Every request resolved, and every cached answer equals a fresh
    answer to the same question."""
    result.check(all(s is not None for s in step.stamps), f"unresolved requests at {step.rate:.1f} req/s")
    for o in step.outcomes:
        if o is not None and o.cached:
            result.check(
                (o.question, o.digest) in answers.fresh,
                f"cached answer differs from the fresh one: {o.question!r}",
            )


def run(seed: int, seconds: float, trace: bool) -> Tuple[RunResult, Dict[str, Any]]:
    result = RunResult("nlq_serve", seed, trace)
    factory = FrontFactory()
    inputs = Inputs(factory, seed, max(50, round(NOMINAL_RATE * seconds / NOMINAL_STEPS)))
    streams = [inputs.stream(k) for k in range(NOMINAL_STEPS)]
    meta = {
        "pool_size": factory.args.pool,
        "queue_depth": factory.args.queue_depth,
        "domain": factory.args.domain,
        "data_seed": factory.args.seed,
        "catalogue_seed": CATALOGUE_SEED,
        "distinct_questions": len(inputs.pool),
        "tier_mix": tier_mix(inputs.pool),
        "nominal_rate": NOMINAL_RATE,
        "requests_per_step": inputs.requests,
        "repeat_share": [measured_repeat_share(texts) for texts in streams],
    }
    say(f"nlq_serve: {len(inputs.pool)} distinct questions, {inputs.requests} requests per step, "
        f"repeat share {meta['repeat_share']}")
    if trace:
        return _traced(result, factory, inputs, streams[0]), meta

    setups: List[float] = []
    steps = []
    per_step: List[List[float]] = []
    outcomes: List[Outcome] = []
    matched = 0
    wall = 0.0
    for texts in streams:
        step, setup_s, answers, _ = _offer(factory, inputs, texts, NOMINAL_RATE)
        _check(result, step, answers)
        setups.append(setup_s)
        wall += step.wall_s
        steps.append(step.summary(SLO_S, factory.max_growth))
        per_step.append(step.latencies())
        outcomes.extend(step.outcomes)
        matched += sum(
            o.digest is not None
            and inputs.oracle.matches(inputs.by_text[o.question], answers.kept[(o.question, o.digest)])
            for o in step.outcomes
        )
        say(f"  step at {NOMINAL_RATE:g} req/s: p50 {steps[-1]['p50_ms']:.2f} ms, p99 {steps[-1]['p99_ms']:.1f} ms")
    result.attempted = len(outcomes)
    result.failed = sum(o.failed for o in outcomes)
    latency_metrics(result, per_step)
    result.metrics.update(
        {
            "setup_s": median(setups),
            "throughput_qps": (result.attempted - result.failed) / wall,
            "answered_share": ratio(sum(o.answered for o in outcomes), len(outcomes)),
            "exec_match_share": ratio(matched, len(outcomes)),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    result.details.update(
        {
            "steps": steps,
            "setups_s": setups,
            "cache_hits": sum(o.cached for o in outcomes),
            "system_errors": sum(o.system_errors for o in outcomes),
            "error_share": ratio(result.failed, result.attempted),
        }
    )
    return result, meta


#: what ``serving_layers`` lends another workload's traced run
SERVING_METRICS = (
    "serve.concurrent.queue_wait_ms_p50",
    "serve.concurrent.queue_wait_ms_p99",
    "serve.concurrent.service_ms_p50",
    "serve.concurrent.service_ms_p99",
    "serve.concurrent.answer_cache_hit_rate",
    "serve.concurrent.rejected",
    "serve.service.self_ms",
    "serve.http.overhead_ms_p50",
    "max_qps_at_slo",
    "bench.generator_lateness_ms_p99",
)


def serving_layers(result: RunResult, seconds: float) -> Dict[str, float]:
    """This workload's traced measurements of the serving layers, for the
    traced run of a workload the benchmark gates (``nlq_serve`` itself is
    not gated: its p50 drifts with load from neighbours on the machine).
    Failed checks count against ``result``."""
    factory = FrontFactory()
    inputs = Inputs(factory, result.seed, max(50, round(NOMINAL_RATE * seconds / NOMINAL_STEPS)))
    serving = RunResult("nlq_serve", result.seed, True)
    _traced(serving, factory, inputs, inputs.stream(0), hash_probe=False)
    for problem in serving.problems:
        result.check(False, f"nlq_serve: {problem}")
    result.details["serving"] = serving.details
    return {name: serving.metrics[name] for name in SERVING_METRICS}


def _traced(
    result: RunResult, factory: FrontFactory, inputs: Inputs, texts: List[str], hash_probe: bool = True
) -> RunResult:
    """Per-layer numbers: an untraced and a traced nominal step over the
    same stream, then the rate ladder, the HTTP sample and the
    hash-seed probe."""
    plain, _, plain_answers, _ = _offer(factory, inputs, texts, NOMINAL_RATE)
    _check(result, plain, plain_answers)
    tracer = Tracer()
    step, _, answers, counters = _offer(factory, inputs, texts, NOMINAL_RATE, tracer=tracer)
    _check(result, step, answers)
    best, ladder = _ladder(result, factory, inputs, texts, plain.summary(SLO_S, factory.max_growth))

    outcomes = step.outcomes
    latencies = step.latencies()
    service = tracer.durations("serve.service.self_ms")
    finite = [(o.request_id, lat) for o, lat in zip(outcomes, latencies) if lat != INF]
    queue_wait = [lat - service.get(rid, 0.0) for rid, lat in finite]
    service_ms = [service[o.request_id] * 1000 for o in outcomes if o.request_id in service]
    served = [o for o in outcomes if not o.cached and not o.rejected]
    degraded = sum(o.degraded for o in served)
    cache_hits = sum(o.cached for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    bases: Dict[str, Any] = {}
    metrics = tracer.layer_self_ms(len(outcomes))
    metrics.update(counter_metrics(counters["execution"], counters["pruning"], bases))
    total_latency = sum(lat for _, lat in finite)
    covered = sum(metrics[name] for name in SELF_TIME_METRICS) * len(outcomes) / 1000 + sum(queue_wait)
    bases["serve.concurrent.answer_cache_hit_rate"] = {"cache_hits": cache_hits, "requests": len(outcomes)}
    bases["serve.service.fallback_share"] = {"degraded": degraded, "served": len(served)}
    bases["trace.coverage"] = {"layer_self_s": covered, "latency_s": total_latency}
    bases["trace.overhead_pct"] = {
        "traced_cpu_s": step.cpu_s,
        "untraced_cpu_s": plain.cpu_s,
        "basis": "process CPU time over the same open-loop stream",
    }

    http_overhead, bases["serve.http.overhead_ms_p50"] = _http_sample(result, factory, inputs, plain_answers)
    flips, flip_details = 0, {}
    if hash_probe:
        flips, flip_details = hash_seed_flips(factory.database_spec, [q.text for q in inputs.pool], OUT / "tmp")
    metrics.update(
        {
            "serve.concurrent.queue_wait_ms_p50": percentile(queue_wait, 50) * 1000,
            "serve.concurrent.queue_wait_ms_p99": percentile(queue_wait, 99) * 1000,
            "serve.concurrent.service_ms_p50": percentile(service_ms, 50),
            "serve.concurrent.service_ms_p99": percentile(service_ms, 99),
            "serve.concurrent.answer_cache_hit_rate": ratio(cache_hits, len(outcomes)),
            "serve.concurrent.rejected": counters["front"]["rejected_overload"]
            + counters["front"]["rejected_deadline"],
            "max_qps_at_slo": LADDER[best] if best is not None else 0.0,
            "serve.service.fallback_share": ratio(degraded, len(served)),
            "serve.service.breaker_refusals": sum(o.breaker_refusals for o in outcomes),
            "serve.http.overhead_ms_p50": http_overhead,
            "core.schema_index.build_s": schema_index_build_s(factory.context(), time.perf_counter),
            "bench.generator_lateness_ms_p99": percentile(plain.lateness(), 99) * 1000,
            "trace.overhead_pct": (step.cpu_s - plain.cpu_s) / plain.cpu_s * 100,
            "trace.coverage": ratio(covered, total_latency),
            "systems.hash_seed_flips": flips,
            "error_share": ratio(failed, len(outcomes)),
        }
    )
    result.attempted = len(outcomes)
    result.failed = failed
    result.metrics.update(metrics)
    result.details.update(
        {
            "bases": bases,
            "hash_seed_probe": flip_details,
            "system_errors": sum(o.system_errors for o in outcomes),
            "ladder": ladder,
        }
    )
    tracer.write(OUT / "traces" / f"nlq_serve-seed{inputs.seed}.jsonl.gz")
    return result


def _ladder(
    result: RunResult, factory: FrontFactory, inputs: Inputs, texts: List[str], nominal: Dict[str, Any]
) -> Tuple[Optional[int], List[Dict[str, Any]]]:
    """Bisect the fixed ladder for the highest rate whose step passes,
    every probe on a fresh front with the nominal step's stream."""
    rows = [nominal]

    def probe(rate: float) -> bool:
        step, _, answers, _ = _offer(factory, inputs, texts, rate, abort=True)
        _check(result, step, answers)
        rows.append(step.summary(SLO_S, factory.max_growth))
        say(f"  {rate:6.1f} req/s: p99 {rows[-1]['p99_ms']:.1f} ms, rejected {rows[-1]['rejected']}, "
            f"backlog growth {rows[-1]['backlog_growth']:.1f}, {'pass' if rows[-1]['passed'] else 'fail'}")
        return rows[-1]["passed"]

    best, _ = highest_passing(LADDER, probe, known_pass=NOMINAL_RUNG if nominal["passed"] else None)
    return best, rows


def _http_sample(
    result: RunResult, factory: FrontFactory, inputs: Inputs, reference: Answers
) -> Tuple[float, Dict[str, Any]]:
    """Send a seeded sample over one keep-alive connection to a live
    ``ServeHTTPServer``; overhead = client latency minus the body's
    ``timings.queued_s + timings.elapsed_s``.  Each body's rows must
    equal the in-process answer to the same question."""
    from repro.serve import ServeHTTPServer, ServeResult
    from repro.serve.http import result_payload

    answered = {question: answer for (question, _), answer in reference.kept.items()}
    sample = random.Random(inputs.seed).sample(sorted(answered), min(HTTP_SAMPLE, len(answered)))
    front, _ = factory.build(inputs.warmup)
    server = ServeHTTPServer(front, "127.0.0.1", 0, quiet=True)
    thread = server.serve_in_background()
    overheads: List[float] = []
    try:
        connection = http.client.HTTPConnection(*server.endpoint, timeout=60)
        try:
            for question in sample:
                body = json.dumps({"question": question}).encode()
                start = time.perf_counter()
                connection.request("POST", "/query", body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                payload = json.loads(response.read())
                elapsed = time.perf_counter() - start
                timings = payload["timings"]
                overheads.append(elapsed - timings["queued_s"] - timings["elapsed_s"])
                in_process = ServeResult(question, "", ok=True, answer=answered[question])
                expected = json.loads(json.dumps(result_payload(in_process)["rows"]))
                result.check(
                    response.status == 200 and payload["rows"] == expected,
                    f"HTTP rows differ from the in-process answer: {question!r}",
                )
        finally:
            connection.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        front.stop()
    return percentile(overheads, 50) * 1000, {"requests": len(overheads), "keep_alive": True}
