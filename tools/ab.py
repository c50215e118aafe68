"""Alternating A/B comparison of two commits' ``src/``.

Usage, from the repository root::

    python tools/ab.py PARENT CHANGE --workload nlq_widecat [--pairs 10]
    PYTHONHASHSEED=0 python tools/ab.py PARENT CHANGE --cmd "tools/widecat_digest.py 600"

Both commits are exported with ``git archive`` under ``.bench_build/ab/``
(ignored by git).  The change's ``perfbench/``, ``tools/`` and
``BENCHMARK.json`` are copied over the parent's export, so the two sides
differ only in the program (``src/``); nothing in the working tree is
edited.  The tool then runs ``--pairs`` pairs (default 10), alternating
which side runs first (the parent in the first pair).  One pair runs, in
each export:

- ``--workload W``: ``perfbench/run.py --workload W --seed S --seconds T``
  with seed S = 101 + the pair's index from 0 and T = ``BENCHMARK.json``'s
  ``run_seconds``, the run length the benchmark sets;
- ``--cmd "ARGS"``: any command whose last line of output is one JSON
  object; a first word ending in ``.py`` runs under this interpreter.

Both run with ``PYTHONPATH=src``.  Nested objects in the output are
flattened: ``{"value": v, ...}`` becomes ``v`` under its key, and other
objects merge their fields (perfbench's ``metrics``).  Where the output
has ``attempted`` and ``failed``, ``failed_share`` is their ratio.

For every numeric field the table gives each side's median with its
quartiles (Q1–Q3).  For a field whose better direction is known (the
metrics ``BENCHMARK.json`` lists, and perfbench's ``attempted``,
``failed`` and ``failed_share``) it also counts the pairs the change
won, ties counting for neither.  Each end-to-end metric of
``BENCHMARK.json`` gets a verdict:

- ``better``: a gain: at least ten pairs ran, the change won at least
  nine tenths of them, and its median is better than the parent's by
  more than the parent's IQR (Q3 − Q1);
- ``unresolved``: no gain, and the parent's IQR/median exceeds the
  bound, unless every run of the change beat every run of the parent
  (then ``within``);
- ``worse`` or ``within``: the change's median is or is not worse than
  the parent's by more than the bound, relative to the parent's median.

Non-numeric fields (digests, ``correct``) must be equal on both sides
of every pair: otherwise the tool names the first pair and field that
differ and exits 1.

The tool prints one table and writes one JSON record: every run's
flattened output and the summary (``--out``, default
``.bench_build/ab/ab-PARENT-CHANGE-WHAT.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "ab"
#: copied from the change's export over the parent's, so only src/ differs
SHARED = ("perfbench", "tools", "BENCHMARK.json")
SIDES = ("parent", "change")
FIRST_SEED = 101
#: the fewest pairs a gain can rest on
GAIN_PAIRS = 10
#: better directions of perfbench's result-line counts (and failed_share) that BENCHMARK.json omits
DIRECTIONS = {"attempted": "higher", "failed": "lower", "failed_share": "lower"}

Run = Dict[str, Dict[str, Any]]  # side -> flattened output of one pair


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def flatten(report: Dict[str, Any]) -> Dict[str, Any]:
    """One flat ``field -> value`` dict of a command's JSON output."""

    def merge(obj: Dict[str, Any], out: Dict[str, Any]) -> Dict[str, Any]:
        for key, value in obj.items():
            if isinstance(value, dict) and "value" in value:
                out[key] = value["value"]
            elif isinstance(value, dict):
                merge(value, out)
            else:
                out[key] = value
        return out

    flat = merge(report, {})
    if is_number(flat.get("attempted")) and is_number(flat.get("failed")) and flat["attempted"]:
        flat["failed_share"] = flat["failed"] / flat["attempted"]
    return flat


def load_spec(path: Path) -> Dict[str, Dict[str, Any]]:
    """``metric -> {"better", "bound"}`` from a ``BENCHMARK.json``
    (``bound`` is ``None`` for per-layer metrics)."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    out = {entry["name"]: {"better": entry["better"], "bound": None} for entry in spec["per_layer"]}
    for entry in spec["end_to_end"]:
        out[entry["name"]] = {"better": entry["better"], "bound": entry["bound"]}
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``, interpolating between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> Tuple[int, int]:
    """Pairs the change won and lost, ties counting for neither."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    return (sum(sign * c < sign * p for p, c in pairs),
            sum(sign * c > sign * p for p, c in pairs))


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """``better`` by the gain rule, else the change's median against the
    parent's, within ``bound`` of it (see the module docstring)."""
    q1, median, q3 = quartiles(parent)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (median - statistics.median(change))
    pairs = len(parent)
    if pairs >= GAIN_PAIRS and wins(parent, change, better)[0] >= 0.9 * pairs and gain > q3 - q1:
        return "better"
    if _relative(q3 - q1, median) > bound:
        every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
        return "within" if every_run_better else "unresolved"
    if _relative(-gain, median) > bound:
        return "worse"
    return "within"


def first_mismatch(runs: Sequence[Run]) -> Optional[Dict[str, Any]]:
    """The first pair and non-numeric field the two sides disagree on."""
    fields = _fields(runs)
    for index, run in enumerate(runs):
        for name in fields:
            if fields[name]:
                continue
            parent, change = run["parent"].get(name), run["change"].get(name)
            if parent != change:
                return {"pair": index + 1, "field": name, "parent": parent, "change": change}
    return None


def _fields(runs: Sequence[Run]) -> Dict[str, bool]:
    """Every field in output order, mapped to whether it is numeric in
    every run of both sides."""
    names = dict.fromkeys(name for run in runs for side in SIDES for name in run[side])
    return {name: all(is_number(run[side].get(name)) for run in runs for side in SIDES)
            for name in names}


def summarize(runs: Sequence[Run], spec: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per numeric field: both sides' quartiles and, where the better
    direction is known, wins and losses of the change, and for a bounded
    metric its verdict."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, numeric in _fields(runs).items():
        if not numeric:
            continue
        entry = spec.get(name, {})
        better = entry.get("better") or DIRECTIONS.get(name)
        bound = entry.get("bound")
        values = {side: [float(run[side][name]) for run in runs] for side in SIDES}
        row: Dict[str, Any] = {"better": better}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            row[side] = {"median": median, "q1": q1, "q3": q3}
        row["won"], row["lost"] = (
            (None, None) if better is None else wins(values["parent"], values["change"], better)
        )
        row["bound"] = bound
        row["verdict"] = (
            None if bound is None else verdict(values["parent"], values["change"], better, bound)
        )
        out[name] = row
    return out


def table(summary: Dict[str, Dict[str, Any]], pairs: int) -> str:
    """The summary as one fixed-width table."""

    def num(value: float) -> str:
        return f"{value:.0f}" if float(value).is_integer() else f"{value:.4g}"

    def cell(side: Dict[str, float]) -> str:
        return f"{num(side['median'])} ({num(side['q1'])}–{num(side['q3'])})"

    header = ("field", "better", "parent median (Q1–Q3)", "change median (Q1–Q3)",
              "change", f"won/{pairs}", "bound", "verdict")
    rows = [header]
    for name, row in summary.items():
        parent, change = row["parent"]["median"], row["change"]["median"]
        rel = _relative(change - parent, parent)
        rows.append((
            name, row["better"] or "", cell(row["parent"]), cell(row["change"]),
            f"{100 * rel:+.1f}%" if math.isfinite(rel) else "n/a",
            "" if row["won"] is None else str(row["won"]),
            "" if row["bound"] is None else f"{row['bound']:g}",
            row["verdict"] or "",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def run_pairs(exports: Dict[str, Path], commands: Sequence[List[str]], timeout: float) -> List[Run]:
    """Run pair ``i``'s command in both exports, the parent first in even
    pairs and the change first in odd ones."""
    runs: List[Run] = []
    for index, argv in enumerate(commands):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        run: Run = {}
        for side in order:
            started = time.perf_counter()
            run[side] = flatten(_last_json(argv, exports[side], timeout))
            print(f"pair {index + 1}/{len(commands)} {side}: "
                  f"{time.perf_counter() - started:.1f} s", file=sys.stderr, flush=True)
        runs.append({side: run[side] for side in SIDES})
    return runs


def _last_json(argv: List[str], cwd: Path, timeout: float) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{shlex.join(argv)} in {cwd} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    report = json.loads(lines[-1])
    if not isinstance(report, dict):
        raise RuntimeError(f"{shlex.join(argv)}: the last output line is not a JSON object")
    return report


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(parent: str, change: str) -> Dict[str, Path]:
    """Fresh exports of both commits, the change's shared files in both."""
    exports = {side: BUILD / side for side in SIDES}
    for side, commit in zip(SIDES, (parent, change)):
        shutil.rmtree(exports[side], ignore_errors=True)
        exports[side].mkdir(parents=True)
        subprocess.run(["tar", "-x", "-C", str(exports[side])], input=_git("archive", commit), check=True)
    for name in SHARED:
        source, target = exports["change"] / name, exports["parent"] / name
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
        if source.is_dir():
            shutil.copytree(source, target)
        elif source.exists():
            shutil.copy2(source, target)
    return exports


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the base commit")
    parser.add_argument("change", help="the commit compared with it")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a perfbench workload")
    what.add_argument("--cmd", help="a command whose last output line is one JSON object")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None, help="where the JSON record goes")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.pairs < 1:
        print("ab: --pairs must be at least 1", file=sys.stderr)
        return 2
    try:
        commits = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
                   for side, ref in zip(SIDES, (args.parent, args.change))}
        exports = export(commits["parent"], commits["change"])
    except subprocess.CalledProcessError as exc:
        print(f"ab: {shlex.join(exc.cmd)} failed: {exc.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return 2
    benchmark = exports["change"] / "BENCHMARK.json"
    spec = load_spec(benchmark) if benchmark.is_file() else {}
    if args.workload:
        seconds = json.loads(benchmark.read_text(encoding="utf-8"))["run_seconds"]
        mode: Dict[str, Any] = {"workload": args.workload, "seconds": seconds,
                                "seeds": [FIRST_SEED + i for i in range(args.pairs)]}
        label = f"workload {args.workload}, {seconds:g} s, seeds {mode['seeds'][0]}–{mode['seeds'][-1]}"
        runner = [sys.executable, "perfbench/run.py", "--workload", args.workload]
        commands = [runner + ["--seed", str(seed), "--seconds", f"{seconds:g}"] for seed in mode["seeds"]]
        timeout = 600 + 10 * float(seconds)
    else:
        words = shlex.split(args.cmd)
        if words and words[0].endswith(".py"):
            words.insert(0, sys.executable)
        mode = {"cmd": args.cmd}
        label = f"cmd {args.cmd}"
        commands = [words] * args.pairs
        timeout = 3600.0
    try:
        runs = run_pairs(exports, commands, timeout)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, spec)
    mismatch = first_mismatch(runs)
    record = {
        "parent": {"ref": args.parent, "commit": commits["parent"]},
        "change": {"ref": args.change, "commit": commits["change"]},
        **mode,
        "pairs": args.pairs,
        "first": "parent in pair 1, then alternating",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "summary": summary,
        "mismatch": mismatch,
        "runs": runs,
    }
    what = args.workload or "cmd"
    out = args.out or BUILD / f"ab-{commits['parent'][:12]}-{commits['change'][:12]}-{what}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.parent} ({commits['parent'][:12]}) -> {args.change} ({commits['change'][:12]}): "
          f"{label}, {args.pairs} pairs")
    print(table(summary, args.pairs))
    others = [name for name in runs[0]["parent"] if name not in summary]
    if others and mismatch is None:
        print(f"equal on both sides of every pair: {', '.join(others)}")
    print(f"record: {out}")
    if mismatch is not None:
        print(f"ab: pair {mismatch['pair']} differs in {mismatch['field']!r}: "
              f"parent {mismatch['parent']!r}, change {mismatch['change']!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
