"""Pieces shared by the two natural-language workloads."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve import VERDICT_ANSWERED, VERDICT_DEGRADED, ServeResult
from repro.sqldb.relation import Relation

#: the two fixed hash seeds whose answers are compared
HASH_SEEDS = ("0", "1")
BREAKER_OPEN = ("serve", "breaker_open")
SYSTEM_ERROR = ("serve", "error")


def _events(result: ServeResult, kind: Tuple[str, str]) -> int:
    return sum((event.stage, event.kind) == kind for event in result.fault_trace)


def serve_failed(result: ServeResult) -> bool:
    """The front did not serve the request: refused at admission, past
    its deadline, cancelled, a worker error (the front's own rejection
    event), or left unanswered by open circuit breakers.

    A chain whose systems abstained is a response ("no system could
    interpret this"), also when one of them raised on the way: the
    service reports that exception as the system's reason, counted by
    :func:`system_errors`.
    """
    if result.ok:
        return False
    if result.rejected or result.verdict == "cancelled":
        return True
    return _events(result, BREAKER_OPEN) > 0 or any(
        event.stage == "admission" for event in result.fault_trace
    )


def serve_answered(result: ServeResult) -> bool:
    return result.verdict in (VERDICT_ANSWERED, VERDICT_DEGRADED) or result.answer is not None


def breaker_refusals(result: ServeResult) -> int:
    """Systems skipped because their circuit breaker was open."""
    return _events(result, BREAKER_OPEN)


def system_errors(result: ServeResult) -> int:
    """Systems of the chain that raised (and were failed over from)."""
    return _events(result, SYSTEM_ERROR)


def answer_digest(answer: Optional[Relation]) -> Optional[str]:
    """Order-sensitive fingerprint of an answer (``None`` = abstained)."""
    if answer is None:
        return None
    text = repr((list(answer.columns), [tuple(map(repr, row)) for row in answer.rows]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_database(spec: Dict[str, Any]):
    """The served database of an NL workload, from its JSON-able spec."""
    if spec["kind"] == "domain":
        from repro.bench.domains import build_domain

        return build_domain(spec["name"], seed=spec["seed"])
    from repro.bench.catalog_gen import build_wide_catalog

    return build_wide_catalog(spec["width"], seed=spec["seed"])


def hash_seed_flips(
    spec: Dict[str, Any], questions: Sequence[str], workdir: Path
) -> Tuple[int, Dict[str, Any]]:
    """Questions whose athena answer differs between two fixed
    ``PYTHONHASHSEED`` values, each run in its own child process.

    Both children run at once (the benchmark's timing is over by now)
    and are always waited for.
    """
    probe = Path(__file__).with_name("hashprobe.py")
    workdir.mkdir(parents=True, exist_ok=True)
    request = workdir / "hashprobe-input.json"
    request.write_text(json.dumps({"database": spec, "questions": list(questions)}), encoding="utf-8")
    children = []
    try:
        for seed in HASH_SEEDS:
            out = open(workdir / f"hashprobe-{seed}.json", "w+", encoding="utf-8")
            env = dict(os.environ, PYTHONHASHSEED=seed)
            children.append((seed, out, subprocess.Popen([sys.executable, str(probe), str(request)], stdout=out, env=env)))
        answers: Dict[str, List[Optional[str]]] = {}
        for seed, out, child in children:
            if child.wait(timeout=150) != 0:
                raise RuntimeError(f"hash-seed probe {seed} exited {child.returncode}")
            out.seek(0)
            answers[seed] = json.load(out)
    finally:
        for _, out, child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
            out.close()
    first, second = (answers[seed] for seed in HASH_SEEDS)
    flips = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    return len(flips), {
        "hash_seeds": list(HASH_SEEDS),
        "questions": len(questions),
        "answered": {seed: sum(a is not None for a in answers[seed]) for seed in HASH_SEEDS},
        "flipped": [questions[i] for i in flips[:10]],
    }
