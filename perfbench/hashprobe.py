"""Child process of the hash-seed probe: answer questions, print fingerprints.

Reads ``{"database": spec, "questions": [...]}`` from the JSON file
named by its argument and prints one answer fingerprint (or ``null``
for an abstention) per question, as a JSON list.  The parent sets
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    import repro.systems  # noqa: F401  (populates the system registry)
    from repro.core.pipeline import NLIDBContext
    from repro.core.registry import create

    from nl import answer_digest, build_database

    with open(sys.argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    context = NLIDBContext(build_database(request["database"]))
    system = create("athena")
    print(json.dumps([answer_digest(system.answer(q, context)) for q in request["questions"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
