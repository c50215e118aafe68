"""Request traces recorded from outside the program.

For a traced run the benchmark wraps the public calls each layer
exposes (see :data:`LAYER_CALLS`) and records one span per call:
name, start, end, parent span and request id.  Spans of one request
share its id; parents come from a per-thread stack, so concurrent
workers of the serving front each build their own trees.  Spans stay
in memory until the run ends and are then written out as gzipped JSON
lines.  Nothing here is imported by the program, and every wrapper is
removed again when the traced phase ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from stats import self_time


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Any


def _owner(path: str) -> Tuple[Any, str]:
    """Resolve ``"package.module:Class.attr"`` to ``(owner, attr)``."""
    import importlib

    module_name, _, qual = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qual.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


#: span name → public call it wraps.  A span's *name* is the metric
#: its self time feeds (see ``layer_self_ms``); names repeat where one
#: layer owns several entry points.
LAYER_CALLS: Tuple[Tuple[str, str], ...] = (
    ("serve.service.self_ms", "repro.serve.service:ResilientService.ask"),
    ("core.pipeline.self_ms", "repro.core.pipeline:NLIDBSystem.answer"),
    ("core.pipeline.self_ms", "repro.core.pipeline:NLIDBContext.execute"),
    ("systems.interpreter.self_ms", "repro.core.pipeline:NLIDBContext.interpret"),
    ("systems.base.match_self_ms", "repro.systems.base:EntityAnnotator.annotate"),
    ("nlp.self_ms", "repro.systems.base:tag_text"),
    ("nlp.self_ms", "repro.systems.base:detect_patterns"),
    ("core.schema_index.self_ms", "repro.core.schema_index:SchemaIndex.candidate_targets"),
    ("core.schema_index.self_ms", "repro.core.schema_index:SchemaIndex.fuzzy_value_pool"),
    ("core.intermediate.compile_ms", "repro.core.interpretation:Interpretation.to_sql"),
    ("sqldb.analyzer.self_ms", "repro.core.pipeline:NLIDBContext.analyze"),
    ("sqldb.analyzer.self_ms", "repro.sqldb.executor:Executor.analysis_for"),
    ("sqldb.parser.self_ms", "repro.sqldb.parser:parse_select"),
    ("sqldb.planner.self_ms", "repro.sqldb.planner:Planner.plan"),
    ("sqldb.executor.row_self_ms", "repro.sqldb.executor:Executor.execute"),
    ("sqldb.executor.row_self_ms", "repro.sqldb.executor:Executor.execute_sql"),
    ("sqldb.columnar.self_ms", "repro.sqldb.columnar:ColumnarEngine.try_execute"),
    ("sqldb.columnar.store_build_ms", "repro.sqldb.table:Table.column_store"),
    ("sqldb.table.index_build_ms", "repro.sqldb.table:Table.secondary_index"),
    ("sqldb.table.write_ms", "repro.sqldb.table:Table.insert_many"),
)

#: every self-time metric a span can feed, in report order
SELF_TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _ in LAYER_CALLS))

#: the span whose ``request_id`` keyword names the serving front's request
_REQUEST_SCOPED = "repro.serve.service:ResilientService.ask"


class Tracer:
    """In-memory span recorder; the ``with`` block wraps ``calls``, each a
    ``(span name, "module:Owner.attr")`` pair, and unwraps them on exit."""

    def __init__(self, calls: Iterable[Tuple[str, str]] = LAYER_CALLS, clock=time.perf_counter):
        self.spans: List[Span] = []
        self._calls = list(calls)
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    def set_request(self, request_id: Any) -> None:
        """Tag spans opened by this thread from now on with ``request_id``."""
        self._local.request_id = request_id

    def __enter__(self) -> "Tracer":
        for name, path in self._calls:
            owner, attr = _owner(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, path == _REQUEST_SCOPED))
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original: Any, request_scoped: bool) -> Any:
        local = self._local
        clock = self._clock
        ids = self._ids
        record = self.spans.append

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer_request = request = getattr(local, "request_id", None)
            if request_scoped and kwargs.get("request_id") is not None:
                request = local.request_id = kwargs["request_id"]
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(Span(span_id, name, start, end, parent, request))
                local.request_id = outer_request

        return traced

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[Tuple[Span, float]]:
        """Every span with its self time (duration minus its children)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return [
            (span, self_time(span.start, span.end, children.get(span.span_id, ())))
            for span in self.spans
        ]

    def durations(self, name: str) -> Dict[Any, float]:
        """Seconds inside spans called ``name``, summed per request."""
        out: Dict[Any, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name and span.request_id is not None:
                out[span.request_id] += span.end - span.start
        return out

    def layer_self_ms(self, requests: int) -> Dict[str, float]:
        """Mean self time per request of each layer, in ms."""
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for span, seconds in self.self_times():
            if span.request_id is not None:
                totals[span.name] += seconds
        return {name: total * 1000 / requests if requests else 0.0 for name, total in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span as one gzipped JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
