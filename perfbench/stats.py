"""Order statistics, span self time, and the rate ladder.

Pure functions with no dependency on the program under test, so the
benchmark's own arithmetic can be tested in isolation
(``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

INF = float("inf")


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``.

    Infinite values (refused or failed requests) sort last, so they
    count as slower than every answered request.  Raises on an empty
    sample: a percentile of nothing is a bug in the caller.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` percentile."""
    return n - math.ceil(q / 100 * n)


def median(values: Iterable[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that
    started before or ended after its parent (clock skew across
    threads) cannot drive self time negative.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - union_length(clipped)


def geometric_ladder(anchor: float, ratio_step: float, below: int, above: int) -> List[float]:
    """Fixed rates ``anchor * ratio_step**k`` for ``k`` in ``[-below, above]``."""
    if ratio_step <= 1:
        raise ValueError("ratio_step must exceed 1")
    return [anchor * ratio_step**k for k in range(-below, above + 1)]


def highest_passing(
    rungs: Sequence[float],
    passes: Callable[[float], bool],
    known_pass: Optional[int] = None,
) -> Tuple[Optional[int], List[Tuple[float, bool]]]:
    """Bisect a ladder for the highest rung whose probe passes.

    Assumes a monotone ladder (a rate that fails makes every higher
    rate fail).  ``known_pass`` is the index of a rung already shown to
    pass.  Returns the index (``None`` when no rung passes) and every
    probe made, in order.
    """
    lo = -1 if known_pass is None else known_pass
    hi = len(rungs)
    probes: List[Tuple[float, bool]] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = passes(rungs[mid])
        probes.append((rungs[mid], ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return (lo if lo >= 0 else None), probes


def backlog_growth(samples: Sequence[Tuple[float, int]]) -> float:
    """Least-squares growth of the backlog over a step, in requests.

    ``samples`` are ``(time, outstanding requests)`` pairs; the result
    is the fitted slope times the sampled time span, i.e. how many
    requests the backlog gained from the first sample to the last.
    """
    if len(samples) < 2:
        return 0.0
    n = len(samples)
    mean_t = sum(t for t, _ in samples) / n
    mean_b = sum(b for _, b in samples) / n
    var_t = sum((t - mean_t) ** 2 for t, _ in samples)
    if var_t == 0:
        return 0.0
    cov = sum((t - mean_t) * (b - mean_b) for t, b in samples)
    span = samples[-1][0] - samples[0][0]
    return cov / var_t * span
