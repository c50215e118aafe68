"""One client that sends its next request when the previous one returns."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from stats import INF


@dataclass
class Loop:
    """Per-request latency (``inf`` when the call raised) and outputs."""

    latencies: List[float] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    errors: List[Optional[str]] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)


def run_loop(
    requests: Sequence[Any],
    call: Callable[[Any], Any],
    seconds: Optional[float] = None,
    on_request: Optional[Callable[[int], None]] = None,
    clock=time.perf_counter,
) -> Loop:
    """Call ``call(request)`` for each request in turn until ``seconds``
    have passed (or every request was sent, when ``seconds`` is None)."""
    loop = Loop()
    gc.collect()  # garbage from set-up is not the timed work's to collect
    start = clock()
    deadline = INF if seconds is None else start + seconds
    for index, request in enumerate(requests):
        if clock() >= deadline:
            break
        if on_request is not None:
            on_request(index)
        sent = clock()
        try:
            output = call(request)
        except Exception as exc:  # a failed request is data, not a crash
            loop.latencies.append(INF)
            loop.outputs.append(None)
            loop.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        loop.latencies.append(clock() - sent)
        loop.outputs.append(output)
        loop.errors.append(None)
    loop.wall_s = clock() - start
    return loop
