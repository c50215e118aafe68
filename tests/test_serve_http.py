"""Golden-JSON integration tests for the HTTP facade (repro.serve.http).

Every test talks to a *live* localhost server (ephemeral port) over real
sockets: success and degraded answers, analyzer-style rejection with
per-system reasons, 429-on-backpressure with ``Retry-After``, deadline
blowups as 504, ``/healthz`` breaker snapshots, and the 400/404/413
input-validation surface.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from contextlib import contextmanager

import pytest

import repro.systems  # noqa: F401  (imported to populate the registry)
from repro.bench.domains import ContextSpec
from repro.bench.workloads import WorkloadGenerator
from repro.perf.profiler import profile_stage
from repro.serve import (
    OPEN,
    VERDICT_ANSWERED,
    VERDICT_DEGRADED,
    VERDICT_FAILED,
    CircuitBreaker,
    ConcurrentFront,
    ResilientService,
    ServeResult,
    serve_http,
)
from repro.serve.http import MAX_BODY_BYTES, result_payload, status_for
from repro.sqldb.relation import Relation

SPEC = ContextSpec("university", seed=3)
BIG = 10**9


def _request(endpoint, method, path, body=None, headers=None):
    """One HTTP exchange; returns (status, parsed json, headers dict)."""
    conn = http.client.HTTPConnection(*endpoint, timeout=30)
    try:
        if body is None or isinstance(body, bytes):
            raw = body
        else:
            raw = json.dumps(body).encode("utf-8")
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        conn.request(method, path, body=raw, headers=send_headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


def _post(endpoint, body, path="/query"):
    return _request(endpoint, "POST", path, body)


def _get(endpoint, path):
    return _request(endpoint, "GET", path)


@contextmanager
def _server(front, **server_kwargs):
    server = serve_http(front, port=0, quiet=True, **server_kwargs)
    server.serve_in_background()
    try:
        yield server
    finally:
        server.shutdown()
        front.stop()


# ---------------------------------------------------------------------------
# Scripted services: deterministic bodies for golden comparisons
# ---------------------------------------------------------------------------


class ScriptedService:
    """Fixed answers keyed on the question text."""

    def __init__(self, breakers):
        pass

    def ask(self, question, system=None, *, injector=None, request_id=None):
        requested = system or "athena"
        if question == "unanswerable":
            return ServeResult(
                question=question,
                requested_system=requested,
                ok=False,
                degraded_from=[
                    ("athena", "no statically valid interpretation"),
                    ("sqak", "no pattern matched"),
                    ("soda", "no keywords matched"),
                ],
                verdict=VERDICT_FAILED,
            )
        if question == "degrade me":
            return ServeResult(
                question=question,
                requested_system=requested,
                ok=True,
                system="soda",
                answer=Relation(["name"], [("Ada",)]),
                sql="SELECT name FROM emp WHERE name = 'Ada'",
                explanation="rows mentioning Ada",
                degraded_from=[("athena", "circuit breaker open")],
                verdict=VERDICT_DEGRADED,
            )
        return ServeResult(
            question=question,
            requested_system=requested,
            ok=True,
            system="athena",
            answer=Relation(["name", "salary"], [("Ada", 120.0), ("Bob", None)]),
            sql="SELECT name, salary FROM emp",
            explanation="the name and salary of every employee",
            verdict=VERDICT_ANSWERED,
        )


class BlockingService:
    def __init__(self, breakers):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def ask(self, question, system=None, *, injector=None, request_id=None):
        self.entered.release()
        self.release.wait(timeout=30)
        return ServeResult(
            question=question,
            requested_system=system or "blocking",
            ok=True,
            verdict=VERDICT_ANSWERED,
        )


class StagedSlowService:
    def __init__(self, breakers):
        pass

    def ask(self, question, system=None, *, injector=None, request_id=None):
        for _ in range(200):
            with profile_stage("execute"):
                time.sleep(0.005)
        return ServeResult(
            question=question,
            requested_system=system or "slow",
            ok=True,
            verdict=VERDICT_ANSWERED,
        )


def _scripted_front(**kwargs):
    kwargs.setdefault("pool_size", 1)
    kwargs.setdefault("cache_answers", False)
    return ConcurrentFront(service_factory=ScriptedService, **kwargs)


# ---------------------------------------------------------------------------
# Live server over the real pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_server():
    front = ConcurrentFront(
        SPEC.build, pool_size=2, failure_threshold=BIG, backoff_s=0.0
    )
    server = serve_http(front, port=0, quiet=True)
    server.serve_in_background()
    yield server
    server.shutdown()
    front.stop()


@pytest.fixture(scope="module")
def real_question():
    ctx = SPEC.build()
    return WorkloadGenerator(ctx.database, seed=3).generate_mixed(1)[0].question


class TestQueryEndToEnd:
    def test_success_payload_matches_direct_service_call(
        self, real_server, real_question
    ):
        status, payload, _ = _post(
            real_server.endpoint, {"question": real_question, "system": "athena"}
        )
        assert status == 200
        service = ResilientService(
            SPEC.build(), failure_threshold=BIG, backoff_s=0.0
        )
        expected = result_payload(service.ask(real_question, "athena"))
        for volatile in ("timings", "request_id", "cached"):
            payload.pop(volatile), expected.pop(volatile)
        assert payload == expected
        assert payload["ok"] and payload["row_count"] == len(payload["rows"])

    def test_second_identical_question_is_served_from_cache(
        self, real_server, real_question
    ):
        first = _post(real_server.endpoint, {"question": real_question})[1]
        second = _post(real_server.endpoint, {"question": real_question})[1]
        assert second["cached"] is True
        for volatile in ("timings", "request_id", "cached", "retries"):
            first.pop(volatile), second.pop(volatile)
        assert first == second

    def test_kept_alive_responses_do_not_wait_for_delayed_acks(
        self, real_server, real_question
    ):
        # Headers and body leave in two writes; with Nagle's algorithm on,
        # each kept-alive body waited ~40 ms for the client's delayed ACK.
        body = json.dumps({"question": real_question}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection(*real_server.endpoint, timeout=30)
        try:
            conn.request("POST", "/query", body=body, headers=headers)
            conn.getresponse().read()  # answer it once, so the rest hit the cache
            started = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/query", body=body, headers=headers)
                response = conn.getresponse()
                assert response.status == 200 and json.loads(response.read())["cached"]
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4, elapsed

    def test_timings_are_present_and_numeric(self, real_server, real_question):
        _, payload, _ = _post(real_server.endpoint, {"question": real_question})
        assert set(payload["timings"]) == {"queued_s", "elapsed_s"}
        assert all(
            isinstance(v, (int, float)) and v >= 0
            for v in payload["timings"].values()
        )


class TestGoldenBodies:
    def test_answered_golden_json(self):
        with _server(_scripted_front()) as server:
            status, payload, _ = _post(
                server.endpoint, {"question": "salaries", "system": "athena"}
            )
        assert status == 200
        for volatile in ("timings", "request_id"):
            payload.pop(volatile)
        assert payload == {
            "ok": True,
            "verdict": "answered",
            "question": "salaries",
            "requested_system": "athena",
            "system": "athena",
            "sql": "SELECT name, salary FROM emp",
            "columns": ["name", "salary"],
            "rows": [["Ada", 120.0], ["Bob", None]],
            "row_count": 2,
            "explanation": "the name and salary of every employee",
            "degraded_from": [],
            "fault_trace": [],
            "retries": 0,
            "cached": False,
        }

    def test_degraded_fallback_golden_json(self):
        with _server(_scripted_front()) as server:
            status, payload, _ = _post(server.endpoint, {"question": "degrade me"})
        assert status == 200  # degraded is still an answer
        assert payload["ok"] is True
        assert payload["verdict"] == "degraded"
        assert payload["system"] == "soda"
        assert payload["degraded_from"] == [
            {"system": "athena", "reason": "circuit breaker open"}
        ]
        assert payload["rows"] == [["Ada"]]

    def test_rejected_interpretation_golden_json(self):
        with _server(_scripted_front()) as server:
            status, payload, _ = _post(server.endpoint, {"question": "unanswerable"})
        assert status == 200  # the service answered: "nothing could interpret it"
        assert payload["ok"] is False
        assert payload["verdict"] == "failed"
        assert payload["sql"] is None and payload["rows"] is None
        assert payload["degraded_from"] == [
            {"system": "athena", "reason": "no statically valid interpretation"},
            {"system": "sqak", "reason": "no pattern matched"},
            {"system": "soda", "reason": "no keywords matched"},
        ]


class TestAdmissionOverHTTP:
    def test_429_with_retry_after_on_backpressure(self):
        holder = {}

        def factory(breakers):
            return holder.setdefault("service", BlockingService(breakers))

        front = ConcurrentFront(
            service_factory=factory, pool_size=1, queue_depth=1, cache_answers=False
        )
        with _server(front) as server:
            held = front.submit("held")
            assert holder["service"].entered.acquire(timeout=5)
            queued = front.submit("queued")  # fills the one queue slot
            status, payload, headers = _post(server.endpoint, {"question": "over"})
            assert status == 429
            assert payload["verdict"] == "rejected_overload"
            assert payload["ok"] is False
            assert headers.get("Retry-After") == "1"
            holder["service"].release.set()
            assert held.wait(timeout=30).ok and queued.wait(timeout=30).ok

    def test_504_when_deadline_blows_mid_request(self):
        front = ConcurrentFront(
            service_factory=StagedSlowService,
            pool_size=1,
            deadline_s=0.05,
            cache_answers=False,
        )
        with _server(front) as server:
            status, payload, _ = _post(server.endpoint, {"question": "slow"})
        assert status == 504
        assert payload["verdict"] == "cancelled"
        assert payload["ok"] is False

    def test_status_for_mapping(self):
        assert status_for(ServeResult(question="q", requested_system="x")) == 200
        for verdict, code in (
            ("rejected_overload", 429),
            ("rejected_deadline", 504),
            ("cancelled", 504),
        ):
            result = ServeResult(question="q", requested_system="x", verdict=verdict)
            assert status_for(result) == code


class TestHealthz:
    def test_healthz_reports_breaker_snapshot(self):
        front = _scripted_front()
        breaker = CircuitBreaker(failure_threshold=2, recovery_s=1e9)
        breaker.record_failure()
        breaker.record_failure()
        front.breakers["athena"] = breaker
        with _server(front) as server:
            status, payload, _ = _get(server.endpoint, "/healthz")
        assert status == 200
        assert payload["status"] == "degraded"
        assert payload["breakers"]["athena"] == {
            "state": OPEN,
            "failures": 2,
            "failure_threshold": 2,
            "recovery_s": 1e9,
        }

    def test_healthz_ok_and_counters(self):
        with _server(_scripted_front()) as server:
            _post(server.endpoint, {"question": "salaries"})
            status, payload, _ = _get(server.endpoint, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["pool_size"] == 1
        assert payload["counters"]["completed"] == 1
        assert payload["counters"]["submitted"] == 1


class TestInputValidation:
    @pytest.fixture(scope="class")
    def server(self):
        front = _scripted_front(pool_size=2)
        with _server(front, max_body_bytes=1024) as live:
            yield live

    def test_malformed_json_body_is_400(self, server):
        status, payload, _ = _request(
            server.endpoint, "POST", "/query", body=b"{not json"
        )
        assert status == 400 and payload["ok"] is False

    def test_missing_question_is_400(self, server):
        assert _post(server.endpoint, {"system": "athena"})[0] == 400

    def test_non_string_question_is_400(self, server):
        assert _post(server.endpoint, {"question": 42})[0] == 400

    def test_blank_question_is_400(self, server):
        assert _post(server.endpoint, {"question": "   "})[0] == 400

    def test_non_string_system_is_400(self, server):
        status, payload, _ = _post(
            server.endpoint, {"question": "salaries", "system": 7}
        )
        assert status == 400 and "system" in payload["error"]

    def test_non_dict_body_is_400(self, server):
        assert _post(server.endpoint, ["question"])[0] == 400

    def test_oversized_body_is_413(self, server):
        huge = {"question": "x" * 4096}
        status, payload, _ = _post(server.endpoint, huge)
        assert status == 413 and "exceeds" in payload["error"]

    def test_bad_content_length_is_400(self, server):
        conn = http.client.HTTPConnection(*server.endpoint, timeout=30)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", "not-a-number")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in payload["error"]

    def test_unknown_paths_are_404(self, server):
        assert _get(server.endpoint, "/nope")[0] == 404
        assert _post(server.endpoint, {"question": "q"}, path="/ask")[0] == 404

    def test_default_body_limit_constant(self):
        assert MAX_BODY_BYTES == 64 * 1024


class TestServeHttpWiring:
    def test_serve_http_starts_an_unstarted_front(self):
        front = _scripted_front()
        assert not front.started
        server = serve_http(front, port=0, quiet=True)
        try:
            assert front.started and front.running
        finally:
            server.server_close()
            front.stop()
