"""Open-loop load against a serving front: Poisson arrivals at a fixed rate.

The calling thread is the generator: it submits each request when it
is due, never waiting for earlier ones.  One observer thread stamps
each completion when its ticket resolves, in whatever order workers
finish, and keeps only a compact outcome of it (see ``run_step``).
Latency runs from when a request was *due*, so a late generator or a
stalled front shows up in the numbers instead of silently lowering the
offered load.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from stats import INF, backlog_growth, beyond, percentile

#: observer poll while the oldest outstanding request is unresolved.
#: Latency comes from the front's own timings (see ``Step.latencies``),
#: so the stamp only proves resolution; polling rarely keeps the
#: observer from taking the interpreter lock from the workers.
_POLL_S = 0.02


@dataclass
class Step:
    """One rate step: what was offered, what came back, and when.

    ``outcomes[i]`` is what ``keep`` made of request ``i``'s ticket; it
    has boolean ``failed`` and ``rejected`` attributes and ``front_s``,
    the seconds the front reports for the request (queued + in service).
    """

    rate: float
    planned: int
    due: List[float] = field(default_factory=list)
    submitted_at: List[float] = field(default_factory=list)
    stamps: List[Optional[float]] = field(default_factory=list)
    outcomes: List[Any] = field(default_factory=list)
    backlog: List[Tuple[float, int]] = field(default_factory=list)
    aborted: bool = False
    #: when the first gap began (due times are offsets from here)
    start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.due)

    def latencies(self) -> List[float]:
        """Seconds from due to resolution; failed requests are infinitely slow.

        Resolution is the submission time plus the seconds the front
        reports the request spent queued and in service (the outcome's
        ``front_s``).  The observer's own stamp is later by however long
        it waited for the interpreter lock, up to a switch interval
        (5 ms), which is noise on a 4 ms median.
        """
        return [
            INF if outcome is None or outcome.failed or stamp is None else sent - due + outcome.front_s
            for due, sent, stamp, outcome in zip(self.due, self.submitted_at, self.stamps, self.outcomes)
        ]

    def lateness(self) -> List[float]:
        return [sent - due for due, sent in zip(self.due, self.submitted_at)]

    def summary(self, slo_s: float, max_growth: float) -> dict:
        """The step's row in the record, with its pass/fail verdict: every
        planned request sent, none refused at admission, p99 within
        ``slo_s``, and a backlog that grew by at most ``max_growth``."""
        latencies = self.latencies()
        rejected = sum(1 for o in self.outcomes if o is not None and o.rejected)
        growth = backlog_growth(self.backlog)
        p99 = percentile(latencies, 99) if latencies else INF
        passed = (
            not self.aborted
            and self.sent == self.planned
            and rejected == 0
            and p99 <= slo_s
            and growth <= max_growth
        )
        return {
            "rate": round(self.rate, 3),
            "planned": self.planned,
            "sent": self.sent,
            "beyond_p99": beyond(len(latencies), 99),
            "p50_ms": percentile(latencies, 50) * 1000 if latencies else INF,
            "p99_ms": p99 * 1000,
            "rejected": rejected,
            "failed": sum(1 for o in self.outcomes if o is not None and o.failed),
            "backlog_end": self.backlog[-1][1] if self.backlog else 0,
            "backlog_growth": round(growth, 3),
            "generator_lateness_ms_p99": percentile(self.lateness(), 99) * 1000 if self.sent else 0.0,
            "aborted": self.aborted,
            "passed": passed,
        }


def run_step(
    front: Any,
    questions: Sequence[str],
    rate: float,
    rng: random.Random,
    keep: Callable[[Any], Any],
    abort_slow_s: Optional[float] = None,
    clock=time.perf_counter,
) -> Step:
    """Offer ``questions`` to ``front`` as Poisson arrivals at ``rate``/s.

    The observer passes each resolved ticket to ``keep`` and drops the
    ticket, so the benchmark holds no per-request objects of the
    program: retained results would be promoted into the collector's
    oldest generation and trigger full collections a real client never
    causes.

    With ``abort_slow_s`` the step stops early once its verdict is
    certain to be a failure: a request was refused at admission, or more
    than 1% of the planned requests already took longer than
    ``abort_slow_s`` (so the step's p99 cannot meet it).
    """
    n = len(questions)
    step = Step(rate=rate, planned=n)
    # Exponential gaps rescaled to span exactly n / rate: Poisson arrivals
    # conditioned on their count, so every seed offers the same load.
    gaps = [rng.expovariate(rate) for _ in range(n)]
    scale = n / rate / sum(gaps) if n else 1.0
    gaps = [gap * scale for gap in gaps]
    step.stamps = [None] * n
    step.outcomes = [None] * n
    inbox: Deque[Tuple[int, Any]] = deque()
    wake = threading.Event()
    done = threading.Event()
    state = {"resolved": 0, "slow": 0}
    slow_limit = beyond(n, 99)

    def observe() -> None:
        pending: List[Tuple[int, Any]] = []
        while True:
            if not pending:
                # the generator appends before it sets ``wake``, so
                # clearing before draining can never lose a request
                wake.wait(0.05)
                wake.clear()
            while inbox:
                pending.append(inbox.popleft())
            if not pending:
                if done.is_set() and not inbox:
                    return
                continue
            try:
                pending[0][1].wait(_POLL_S)
            except TimeoutError:
                pass
            now = clock()
            still = []
            for index, ticket in pending:
                if ticket.done:
                    step.stamps[index] = now
                    step.outcomes[index] = keep(ticket)
                    state["resolved"] += 1
                    if abort_slow_s is not None and now - step.due[index] > abort_slow_s:
                        state["slow"] += 1
                else:
                    still.append((index, ticket))
            pending = still

    observer = threading.Thread(target=observe, name="perfbench-observer", daemon=True)
    gc.collect()  # garbage from set-up is not the timed work's to collect
    cpu_start = time.process_time()
    step.start = due = clock() + 0.005
    observer.start()
    try:
        for index, question in enumerate(questions):
            due += gaps[index]
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            if abort_slow_s is not None and state["slow"] > slow_limit:
                step.aborted = True
                break
            step.due.append(due)
            step.submitted_at.append(clock())
            ticket = front.submit(question, block=False)
            refused = ticket.done and ticket.result.rejected
            inbox.append((index, ticket))
            wake.set()
            del ticket
            step.backlog.append((step.submitted_at[-1], step.sent - state["resolved"]))
            if abort_slow_s is not None and refused:
                step.aborted = True
                break
    finally:
        done.set()
        wake.set()
        observer.join()
    step.stamps = step.stamps[: step.sent]
    step.outcomes = step.outcomes[: step.sent]
    finished = [s for s in step.stamps if s is not None]
    step.wall_s = (max(finished) if finished else clock()) - step.start
    step.cpu_s = time.process_time() - cpu_start
    return step
