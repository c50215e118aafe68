"""One-line answer check over the ``nlq_widecat`` question stream.

Builds the 250-table catalog and its question pool the way
``perfbench/nlq_widecat.py`` does (``build_database(SPEC)``, then
``question_pool(db, CATALOGUE_SEED, PER_TIER)``, then a
``random.Random(101)`` shuffle), answers the first N questions (default
600) with athena through ``NLIDBSystem.answer`` on one ``NLIDBContext``,
and prints one JSON line:

- ``n`` and ``answered`` (questions with a non-``None`` answer);
- ``matched``: the answers that match the gold SQL's result, scored by
  perfbench's ``GoldOracle`` after the last question, so accuracy is
  read over the same N questions whatever the speed (perfbench's
  ``answered_share`` and ``exec_match_share`` cover however many
  questions its timed loop reaches);
- ``digest``: one sha256 over the per-question ``answer_digest``s, in
  stream order, so two trees that print the same digest gave the same
  answers (abstentions included);
- the context executor's ``total_stats`` counters ``vectorized``,
  ``full_scans``, ``rows_scanned`` and ``subqueries``, which show
  whether the engine took the same paths.

Interpretation must not depend on the hash seed, but pin it anyway when
comparing two trees::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/widecat_digest.py [N]
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SHUFFLE_SEED = 101
DEFAULT_N = 600
COUNTERS = ("vectorized", "full_scans", "rows_scanned", "subqueries")


def widecat_digest(n: int) -> Dict[str, Any]:
    """Answer the first ``n`` shuffled widecat questions; the summary."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import repro.systems  # noqa: F401  (populates the system registry)
    from inputs import GoldOracle, question_pool
    from nl import answer_digest, build_database
    from nlq_widecat import CATALOGUE_SEED, PER_TIER, SPEC
    from repro.core.pipeline import NLIDBContext
    from repro.core.registry import create

    database = build_database(SPEC)
    pool = question_pool(database, CATALOGUE_SEED, PER_TIER)
    random.Random(SHUFFLE_SEED).shuffle(pool)
    context = NLIDBContext(database)
    system = create("athena")
    asked = pool[:n]
    answers = [system.answer(question.text, context) for question in asked]
    digests = [answer_digest(answer) for answer in answers]
    stats = context.executor.total_stats
    oracle = GoldOracle(database)
    summary: Dict[str, Any] = {
        "n": len(digests),
        "answered": sum(d is not None for d in digests),
        "matched": sum(oracle.matches(q, a) for q, a in zip(asked, answers)),
        "digest": hashlib.sha256(json.dumps(digests).encode()).hexdigest(),
    }
    summary.update({name: getattr(stats, name) for name in COUNTERS})
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or (args and not args[0].isdigit()):
        print(f"usage: {Path(__file__).name} [N]  (default {DEFAULT_N})", file=sys.stderr)
        return 2
    print(json.dumps(widecat_digest(int(args[0]) if args else DEFAULT_N)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
