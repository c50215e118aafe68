"""Command-line interface.

Subcommands exercising the library end to end::

    python -m repro ask "top 3 products by price" --domain retail
    python -m repro ask "..." --system soda --explain --stats
    python -m repro chat --domain retail            # multi-turn REPL
    python -m repro complete "movies with" --domain movies
    python -m repro sql "SELECT ..." --domain retail --explain
    python -m repro systems                         # list registered systems
    python -m repro bench --epochs 3 --profile      # cached benchmark sweep
    python -m repro serve "..." --inject "execute:error:0.5"   # resilient serving
    python -m repro serve --http 8080 --pool 4                 # HTTP/JSON facade
    python -m repro bench --serve --inject "*:error:0.3"       # availability columns

``sql`` runs raw SQL against a domain database; ``--explain`` prints the
planner's EXPLAIN-style report (hash join vs nested loop, index scan vs
full scan), ``--no-planner`` forces the naive interpreter, ``--stats``
dumps the per-query ExecutionStats counters, and ``--lint`` runs the
static semantic analyzer only, printing coded diagnostics with source
positions instead of executing.

Domains are the built-in benchmark databases
(:mod:`repro.bench.domains`); systems are resolved through the registry
(:mod:`repro.core.registry`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.domains import build_domain, domain_names
from repro.core import NLIDBContext, available, create
from repro.systems import AthenaSystem  # noqa: F401  (imported to populate the registry)


def _build_context(domain: str, seed: int, use_schema_index: bool = True) -> NLIDBContext:
    return NLIDBContext(build_domain(domain, seed=seed), use_schema_index=use_schema_index)


def cmd_ask(args: argparse.Namespace) -> int:
    """One-shot question answering."""
    context = _build_context(
        args.domain, args.seed, use_schema_index=not args.no_schema_index
    )
    system = create(args.system)
    interpretations = system.interpret(args.question, context)
    if not interpretations:
        print("no interpretation (the system abstained)")
        return 1
    top = max(interpretations, key=lambda i: i.confidence)
    try:
        statement = top.to_sql(context.ontology, context.mapping)
        result = context.executor.execute(statement)
    except Exception as exc:
        print(f"interpretation failed to execute: {exc}")
        return 1
    print(f"SQL: {statement.to_sql()}")
    if args.explain:
        print()
        if top.oql is not None:
            print(f"reading: {top.oql.to_english()}")
        print(top.describe())
        print()
    print(result.to_text(max_rows=args.rows))
    if args.stats:
        print()
        _print_stats(context.executor.last_stats)
    return 0


def _print_stats(stats) -> None:
    print("execution stats:")
    for key, value in stats.as_dict().items():
        if value:
            print(f"  {key:24s} {value}")


def cmd_sql(args: argparse.Namespace) -> int:
    """Run raw SQL against a domain database through the planner."""
    from repro.sqldb.executor import Executor

    database = build_domain(args.domain, seed=args.seed)
    if args.lint:
        return _lint_sql(database, args.sql)
    executor = Executor(
        database,
        use_planner=not args.no_planner,
        use_columnar=not args.no_columnar,
        infer=not args.no_infer,
    )
    if args.explain:
        try:
            print(executor.explain_sql(args.sql))
        except Exception as exc:
            print(f"cannot plan: {exc}")
            return 1
        print()
    try:
        result = executor.execute_sql(args.sql)
    except Exception as exc:
        print(f"execution failed: {exc}")
        return 1
    print(result.to_text(max_rows=args.rows))
    if args.stats:
        print()
        _print_stats(executor.last_stats)
    return 0


def _lint_sql(database, sql: str) -> int:
    """Static analysis only: print one diagnostic per line, never execute.

    Exit code 1 when any error-severity diagnostic was found (the
    executor pre-flight would reject the statement), 0 otherwise.
    """
    result = database.analyze_sql(sql)
    if not result.diagnostics:
        print("ok: no diagnostics")
        return 0
    for diag in result.diagnostics:
        print(diag.format())
        if diag.span is not None:
            excerpt = diag.span.excerpt(sql).strip()
            if excerpt:
                print(f"    {excerpt}")
    errors, warnings = len(result.errors), len(result.warnings)
    print(f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


def cmd_chat(args: argparse.Namespace) -> int:
    """Interactive multi-turn session (§5's conversational extension)."""
    from repro.dialogue import ConversationalNLIDB

    context = _build_context(args.domain, args.seed)
    bot = ConversationalNLIDB(context)
    print(f"connected to {args.domain!r} — ask away (blank line to quit)")
    while True:
        try:
            utterance = input("you> ").strip()
        except EOFError:
            break
        if not utterance:
            break
        turn = bot.ask(utterance)
        if turn.sql:
            print(f"sql> {turn.sql}")
        print(turn.response)
    return 0


def cmd_complete(args: argparse.Namespace) -> int:
    """TR Discover-style auto-completion for a typed prefix."""
    from repro.systems.trdiscover import TRDiscoverCompleter

    context = _build_context(args.domain, args.seed)
    completer = TRDiscoverCompleter(context)
    suggestions = completer.complete(args.prefix)
    if not suggestions:
        query = completer.parse_completed(args.prefix)
        if query is not None:
            from repro.core.intermediate import compile_oql

            statement = compile_oql(query, context.ontology, context.mapping)
            print(f"complete query!  SQL: {statement.to_sql()}")
            print(context.executor.execute(statement).to_text(max_rows=args.rows))
            return 0
        print("(no suggestions)")
        return 1
    for suggestion in suggestions:
        print(f"{suggestion.text:30s} [{suggestion.kind}] {suggestion.score:.4f}")
    return 0


def cmd_systems(args: argparse.Namespace) -> int:
    """List registered systems and available domains."""
    print("systems:", ", ".join(available()))
    print("domains:", ", ".join(domain_names()))
    return 0


def _build_service(context, args):
    """A ResilientService configured from serve/bench CLI flags."""
    from repro.serve import FaultInjector, FaultPlan, ResilientService

    injector = FaultInjector(FaultPlan.parse(args.inject or "", seed=args.fault_seed))
    return ResilientService(
        context,
        retries=args.retries,
        backoff_s=args.backoff,
        timeout_s=args.timeout or None,
        injector=injector,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Resilient serving: one question or a workload, optional faults.

    Unlike ``ask``, this never fails with a traceback — faults, timeouts
    and unanswerable questions all degrade along the fallback chain and
    land in the report.  ``--inject`` takes a fault plan like
    ``execute:error:0.5,*:latency:0.2:0.05`` (see
    :mod:`repro.serve.faults`); ``--workload N`` serves a generated
    N-per-tier workload instead of a single question; ``--http PORT``
    starts the concurrent HTTP/JSON facade (``POST /query``,
    ``GET /healthz``) instead of answering inline.
    """
    import json

    from repro.serve import serve_workload

    if args.http:
        return _serve_http(args)
    context = _build_context(
        args.domain, args.seed, use_schema_index=not args.no_schema_index
    )
    service = _build_service(context, args)
    system = args.system or None
    if args.workload:
        from repro.bench.workloads import WorkloadGenerator

        examples = WorkloadGenerator(context.database, seed=args.seed).generate_mixed(
            args.workload
        )
        questions = [example.question for example in examples]
    else:
        if not args.question:
            print("serve: provide a question or --workload N")
            return 2
        questions = [args.question]
    results, summary = serve_workload(service, questions, system=system)
    for result in results:
        _print_serve_result(result, verbose=len(results) == 1, rows=args.rows)
    print()
    print("serve summary:")
    for key, value in summary.as_dict().items():
        print(f"  {key:14s} {value}")
    if args.json:
        payload = {
            "domain": args.domain,
            "fault_plan": args.inject,
            "fault_seed": args.fault_seed,
            "summary": summary.as_dict(),
            "results": [result.as_dict() for result in results],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0 if summary.ok else 1


def _serve_http(args: argparse.Namespace) -> int:
    """Run the concurrent serving front behind the HTTP/JSON facade."""
    from repro.serve import ConcurrentFront, FaultPlan, serve_http

    plan = FaultPlan.parse(args.inject, seed=args.fault_seed) if args.inject else None
    front = ConcurrentFront(
        lambda: _build_context(
            args.domain, args.seed, use_schema_index=not args.no_schema_index
        ),
        pool_size=args.pool,
        queue_depth=args.queue_depth,
        deadline_s=args.deadline or None,
        fault_plan=plan,
        retries=args.retries,
        backoff_s=args.backoff,
        timeout_s=args.timeout or None,
    )
    server = serve_http(front, host=args.host, port=args.http)
    host, port = server.endpoint
    print(f"serving {args.domain!r} on http://{host}:{port}")
    print('  POST /query    {"question": "...", "system": "athena"?}')
    print("  GET  /healthz  pool/queue/breaker snapshot")
    print(
        f"  pool={args.pool} queue_depth={args.queue_depth} "
        f"deadline={args.deadline or 'off'} fault_plan={args.inject or 'none'}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        front.stop()
    return 0


def _print_serve_result(result, verbose: bool, rows: int) -> None:
    status = "ok" if result.ok else "FAILED"
    via = result.system if result.system else "-"
    degraded = " degraded" if result.degraded else ""
    print(f"[{status}]{degraded} via {via}: {result.question}")
    for name, reason in result.degraded_from:
        print(f"    fell past {name}: {reason}")
    if verbose:
        if result.sql:
            print(f"SQL: {result.sql}")
        if result.answer is not None:
            print(result.answer.to_text(max_rows=rows))
        for event in result.fault_trace:
            print(f"    fault: {event.stage}/{event.kind} {event.detail}")


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark systems over a generated workload.

    Every system runs in this process over one shared
    :class:`~repro.perf.cache.EvaluationCache`, so gold results and
    match verdicts computed for one system serve the next.
    ``--epochs`` repeats the workload to exercise the interpretation
    cache; ``--profile`` prints the per-stage timing table;
    ``--catalog-width N`` swaps the domain for a seeded N-table wide
    catalog (enterprise-scale matching pressure);
    ``--no-schema-index`` disables the inverted-lexicon candidate
    pruning (brute-force matching, for A/B runs); ``--serve``
    additionally runs each system as the primary of a resilient fallback
    chain over the same questions (honoring ``--inject``) and adds
    availability/degraded/retries columns; ``--json FILE`` writes the
    machine-readable report (rows + cache stats + profile + serve
    summaries).
    """
    import json
    import time

    from repro.bench.domains import ContextSpec
    from repro.bench.harness import compare_systems, format_table
    from repro.bench.workloads import WorkloadGenerator
    from repro.perf import EvaluationCache, StageProfiler, all_cache_stats

    context = ContextSpec(
        args.domain,
        seed=args.seed,
        # wide catalogs keep per-table row counts small: the matching
        # cost under benchmark scales with width, not rows
        scale=0.25 if args.catalog_width else 1.0,
        catalog_width=args.catalog_width,
        use_schema_index=not args.no_schema_index,
    ).build()
    examples = WorkloadGenerator(context.database, seed=args.seed).generate_mixed(
        args.per_tier
    )
    examples = examples * max(1, args.epochs)
    names = args.systems.split(",") if args.systems else list(available())
    cache, profile = EvaluationCache(), StageProfiler()
    started = time.perf_counter()
    rows = compare_systems(
        [create(name) for name in names], context, examples, cache=cache, profiler=profile
    )
    wall_s = time.perf_counter() - started
    serve_summaries = {}
    if args.serve:
        from repro.serve import serve_workload

        service = _build_service(context, args)
        questions = [example.question for example in examples]
        for name in names:
            _, summary = serve_workload(service, questions, system=name)
            serve_summaries[name] = summary
        for row in rows:
            if row.system in serve_summaries:
                row.attach_serve(serve_summaries[row.system])
    scope = f"widecat[{args.catalog_width}]" if args.catalog_width else args.domain
    title = f"{scope}: {len(examples)} examples × {len(names)} systems ({wall_s:.2f}s)"
    print(format_table([r.as_dict() for r in rows], title))
    print()
    print("cache layers:")
    for layer, stats in sorted(cache.stats().items()):
        print(f"  {layer:16s} {stats.as_dict()}")
    if args.profile:
        print()
        print(profile.report())
    if args.json:
        payload = {
            "domain": args.domain,
            "catalog_width": args.catalog_width,
            "schema_index": not args.no_schema_index,
            "examples": len(examples),
            "wall_s": round(wall_s, 4),
            "rows": [r.as_dict() for r in rows],
            "cache_stats": cache.stats_dict(),
            "nlp_cache_stats": {
                name: s.as_dict() for name, s in sorted(all_cache_stats().items())
            },
            "profile": profile.as_dict(),
        }
        if serve_summaries:
            payload["serve"] = {
                "fault_plan": args.inject,
                "fault_seed": args.fault_seed,
                "summaries": {
                    name: summary.as_dict()
                    for name, summary in serve_summaries.items()
                },
            }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Natural-language interfaces to data — SIGMOD 2020 survey reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ask = sub.add_parser("ask", help="answer one natural-language question")
    ask.add_argument("question")
    ask.add_argument("--domain", default="retail", choices=domain_names())
    ask.add_argument("--system", default="athena")
    ask.add_argument("--seed", type=int, default=0)
    ask.add_argument("--rows", type=int, default=10)
    ask.add_argument("--explain", action="store_true", help="show the evidence trail")
    ask.add_argument(
        "--stats", action="store_true", help="show ExecutionStats counters"
    )
    _add_schema_index_arg(ask)
    ask.set_defaults(func=cmd_ask)

    sql = sub.add_parser("sql", help="run raw SQL against a domain database")
    sql.add_argument("sql")
    sql.add_argument("--domain", default="retail", choices=domain_names())
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("--rows", type=int, default=10)
    sql.add_argument(
        "--explain", action="store_true", help="print the EXPLAIN-style plan"
    )
    sql.add_argument(
        "--no-planner", action="store_true", help="use the naive interpreter"
    )
    sql.add_argument(
        "--no-columnar",
        action="store_true",
        help="disable the vectorized columnar scan path",
    )
    sql.add_argument(
        "--no-infer",
        action="store_true",
        help="disable the static inference pass (constant folding, predicate "
        "simplification, provably-empty short-circuits)",
    )
    sql.add_argument(
        "--lint",
        action="store_true",
        help="statically analyze the query and print diagnostics (no execution)",
    )
    sql.add_argument(
        "--stats", action="store_true", help="show ExecutionStats counters"
    )
    sql.set_defaults(func=cmd_sql)

    chat = sub.add_parser("chat", help="interactive multi-turn session")
    chat.add_argument("--domain", default="retail", choices=domain_names())
    chat.add_argument("--seed", type=int, default=0)
    chat.set_defaults(func=cmd_chat)

    complete = sub.add_parser("complete", help="auto-complete a query prefix")
    complete.add_argument("prefix")
    complete.add_argument("--domain", default="movies", choices=domain_names())
    complete.add_argument("--seed", type=int, default=0)
    complete.add_argument("--rows", type=int, default=10)
    complete.set_defaults(func=cmd_complete)

    systems = sub.add_parser("systems", help="list systems and domains")
    systems.set_defaults(func=cmd_systems)

    serve = sub.add_parser(
        "serve", help="resiliently serve questions with fallback and fault injection"
    )
    serve.add_argument("question", nargs="?", default="")
    serve.add_argument("--domain", default="retail", choices=domain_names())
    serve.add_argument(
        "--system", default="", help="primary system (default: head of fallback chain)"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--rows", type=int, default=10)
    serve.add_argument(
        "--workload",
        type=int,
        default=0,
        metavar="N",
        help="serve a generated N-per-tier workload instead of one question",
    )
    serve.add_argument(
        "--json", default="", help="write the machine-readable serve report to FILE"
    )
    serve.add_argument(
        "--http",
        type=int,
        default=0,
        metavar="PORT",
        help="start the concurrent HTTP/JSON facade on PORT instead of "
        "answering inline (POST /query, GET /healthz)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for --http"
    )
    serve.add_argument(
        "--pool", type=int, default=4, help="worker threads for --http dispatch"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission queue bound for --http (full queue → HTTP 429)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        help="per-request end-to-end deadline seconds for --http (0 disables)",
    )
    _add_schema_index_arg(serve)
    _add_fault_args(serve)
    serve.set_defaults(func=cmd_serve)

    bench = sub.add_parser(
        "bench", help="benchmark systems over a generated workload"
    )
    bench.add_argument("--domain", default="university", choices=domain_names())
    bench.add_argument(
        "--systems",
        default="",
        help="comma-separated system names (default: all registered)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--per-tier", type=int, default=3, help="examples per complexity tier"
    )
    bench.add_argument(
        "--epochs",
        type=int,
        default=1,
        help="repeat the workload N times (exercises the interpretation cache)",
    )
    bench.add_argument(
        "--profile", action="store_true", help="print the per-stage timing table"
    )
    bench.add_argument(
        "--json", default="", help="write the machine-readable report to FILE"
    )
    bench.add_argument(
        "--serve",
        action="store_true",
        help="also run a resilient-serving sweep; adds avail/degraded/retries columns",
    )
    bench.add_argument(
        "--catalog-width",
        type=int,
        default=0,
        metavar="N",
        help="benchmark against a seeded N-table wide catalog instead of "
        "the domain (cloned/permuted domains with overlapping columns)",
    )
    _add_schema_index_arg(bench)
    _add_fault_args(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def _add_schema_index_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-schema-index",
        action="store_true",
        help="disable the inverted-lexicon candidate pruning (brute-force matching)",
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """Shared resilient-serving flags (serve and bench --serve)."""
    parser.add_argument(
        "--inject",
        default="",
        metavar="FAULTPLAN",
        help="fault plan, e.g. 'execute:error:0.5,*:latency:0.2:0.05'",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="RNG seed for fault injection"
    )
    parser.add_argument(
        "--retries", type=int, default=2, help="retries per system for transient faults"
    )
    parser.add_argument(
        "--backoff", type=float, default=0.05, help="initial retry backoff seconds"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        help="per-attempt deadline seconds (0 disables)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "inject", ""):
        from repro.serve import FaultPlan

        try:
            FaultPlan.parse(args.inject)
        except ValueError as exc:
            parser.error(f"--inject: {exc}")
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. piping into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
