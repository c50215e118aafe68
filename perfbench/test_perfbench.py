"""Tests of the benchmark's own arithmetic and load generation.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from inputs import measured_repeat_share, repeat_stream  # noqa: E402
from openloop import run_step  # noqa: E402
from stats import (  # noqa: E402
    INF,
    backlog_growth,
    beyond,
    geometric_ladder,
    highest_passing,
    median,
    percentile,
    self_time,
    union_length,
)
from tracing import Tracer  # noqa: E402


# -- percentiles ----------------------------------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_percentile_counts_failures_as_infinitely_slow():
    assert percentile([1.0, 2.0, INF], 50) == 2.0
    assert percentile([1.0] * 98 + [INF, INF], 99) == INF
    assert percentile([1.0] * 99 + [INF], 99) == 1.0


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_beyond_p99_needs_a_thousand_samples():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert beyond(1040, 99) == 10


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# -- self time ------------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0
    assert union_length([(3, 3), (4, 2)]) == 0


def test_self_time_nested_children():
    assert self_time(0, 10, [(1, 3), (5, 6)]) == 7


def test_self_time_overlapping_children():
    # two children overlap on [3, 4]: the parent lost 5, not 6
    assert self_time(0, 10, [(1, 4), (3, 6)]) == 5


def test_self_time_clips_children_to_parent():
    assert self_time(0, 10, [(-2, 2), (9, 12)]) == 7
    assert self_time(0, 10, [(20, 30)]) == 10


def test_tracer_builds_trees_and_self_times():
    class Layer:
        def outer(self, rid):
            time.sleep(0.002)
            self.inner()
            self.inner()
            return rid

        def inner(self):
            time.sleep(0.003)

    ticks = iter(range(1000))
    calls = [("outer.self_ms", "fake_layer_module:Layer.outer"),
             ("inner.self_ms", "fake_layer_module:Layer.inner")]
    tracer = Tracer(calls, clock=lambda: float(next(ticks)))
    module = type(sys)("fake_layer_module")
    module.Layer = Layer
    sys.modules["fake_layer_module"] = module
    try:
        original = Layer.__dict__["outer"]
        with tracer:
            tracer.set_request(7)
            assert Layer().outer(7) == 7
            tracer.set_request(None)
        assert Layer.__dict__["outer"] is original
    finally:
        del sys.modules["fake_layer_module"]
    by_name = {}
    for span, seconds in tracer.self_times():
        by_name.setdefault(span.name, []).append(seconds)
        assert span.request_id == 7
    # clock ticks: outer [0, 5], inner [1, 2] and [3, 4]
    assert by_name == {"inner.self_ms": [1.0, 1.0], "outer.self_ms": [3.0]}
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 1 and roots[0].name == "outer.self_ms"
    assert all(s.parent == roots[0].span_id for s in tracer.spans if s is not roots[0])


def test_tracer_takes_request_id_from_the_serving_call():
    import repro.serve.service as service

    tracer = Tracer([("serve.service.self_ms", "repro.serve.service:ResilientService.ask")])
    original = service.ResilientService.ask

    class Stub:
        context = None

    def ask(self, question, system=None, *, injector=None, request_id=None):
        return question

    service.ResilientService.ask = ask
    try:
        with tracer:
            service.ResilientService.ask(Stub(), "q", request_id=41)
    finally:
        service.ResilientService.ask = original
    assert [s.request_id for s in tracer.spans] == [41]


# -- the rate ladder ------------------------------------------------------------


def test_geometric_ladder_steps():
    rungs = geometric_ladder(80, 1.06, below=5, above=34)
    assert len(rungs) == 40
    assert rungs[5] == 80
    assert all(math.isclose(b / a, 1.06) for a, b in zip(rungs, rungs[1:]))


@pytest.mark.parametrize("capacity", [0, 1, 17, 39, 40])
def test_highest_passing_bisects_a_monotone_ladder(capacity):
    rungs = list(range(40))
    best, probes = highest_passing(rungs, lambda rate: rate < capacity)
    assert best == (capacity - 1 if capacity else None)
    assert len(probes) <= math.ceil(math.log2(len(rungs) + 1))


def test_highest_passing_starts_above_a_known_pass():
    seen = []
    best, _ = highest_passing(list(range(40)), lambda r: seen.append(r) or r < 30, known_pass=5)
    assert best == 29
    assert min(seen) > 5


def test_backlog_growth():
    assert backlog_growth([(t, 3) for t in range(10)]) == 0
    assert backlog_growth([(t / 10, 2 * t) for t in range(11)]) == pytest.approx(20)
    assert backlog_growth([(0.0, 5)]) == 0


# -- inputs ---------------------------------------------------------------------


def test_repeat_stream_hits_its_repeat_share():
    stream = repeat_stream(5000, 3000, 1 / 3, random.Random(3))
    assert measured_repeat_share(stream) == pytest.approx(1 / 3, abs=0.03)
    firsts = list(dict.fromkeys(stream))
    assert firsts == list(range(len(firsts)))


def test_repeat_stream_reuses_a_small_pool():
    stream = repeat_stream(10, 100, 0.0, random.Random(1))
    assert set(stream) == set(range(10))


# -- open loop ------------------------------------------------------------------


class _Ticket:
    def __init__(self, request_id):
        self.submitted = time.perf_counter()
        self.request_id = request_id
        self.result = None
        self._done = threading.Event()

    @property
    def done(self):
        return self._done.is_set()

    def wait(self, timeout=None):
        if not self._done.wait(timeout):
            raise TimeoutError
        return self.result

    def resolve(self):
        submitted = self.submitted

        class Result:
            rejected = False
            failed = False
            front_s = time.perf_counter() - submitted

        self.result = Result()
        self._done.set()


def _keep(ticket):
    return ticket.result


class _SlowFirstFront:
    """Request 0 takes 300 ms, every other request 5 ms."""

    def __init__(self):
        self.resolved_at = {}
        self.threads = []

    def submit(self, question, block=False):
        ticket = _Ticket(len(self.threads))

        def work():
            time.sleep(0.3 if ticket.request_id == 0 else 0.005)
            self.resolved_at[ticket.request_id] = time.perf_counter()
            ticket.resolve()

        thread = threading.Thread(target=work)
        thread.start()
        self.threads.append(thread)
        return ticket


def test_open_loop_stamps_completions_out_of_order():
    front = _SlowFirstFront()
    step = run_step(front, ["q"] * 6, rate=100.0, rng=random.Random(0), keep=_keep)
    for thread in front.threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    latencies = step.latencies()
    # request 1 finished long before request 0: FIFO stamping would have
    # charged it request 0's 300 ms
    assert latencies[1] < 0.1 < latencies[0]
    for index, stamp in enumerate(step.stamps):
        assert 0 <= stamp - front.resolved_at[index] < 0.05


def test_open_loop_offers_exactly_the_planned_rate():
    class Instant:
        def submit(self, question, block=False):
            ticket = _Ticket(0)
            ticket.resolve()
            return ticket

    step = run_step(Instant(), ["q"] * 50, rate=500.0, rng=random.Random(5), keep=_keep)
    assert step.due[-1] - step.start == pytest.approx(50 / 500)
    assert len(set(step.due)) == 50


# -- the command ----------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        spec["command"] + ["--workload", "nlq_serve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
