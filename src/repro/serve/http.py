"""Stdlib-only HTTP/JSON facade over the concurrent serving front.

The survey's systems all end at a library call; a usable NL interface
ends at a network socket.  This module puts one on the reproduction
without any dependency beyond the standard library:

- ``POST /query`` with ``{"question": "...", "system": "athena"?}`` →
  ``{"ok", "verdict", "sql", "columns", "rows", "explanation",
  "degraded_from", "timings", ...}``;
- ``GET /healthz`` → pool/queue/breaker snapshot (the operator's view
  of :meth:`ConcurrentFront.healthz`).

Status mapping is the admission contract made visible: queue-full
rejection is **429** (with ``Retry-After``), a deadline blown in queue
or mid-flight is **504**, malformed JSON is **400**, an oversized body
is **413**, unknown paths are **404**.  A question every system fails
on is still **200** — the service answered, the answer is "no system
could interpret this", with the per-system reasons in
``degraded_from``.

The server is a ``ThreadingHTTPServer``: handler threads only block on
the front's bounded queue, so concurrency control stays in one place —
the front's admission policy — not in the HTTP layer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .concurrent import ConcurrentFront
from .service import (
    VERDICT_CANCELLED,
    VERDICT_DEADLINE,
    VERDICT_OVERLOAD,
    ServeResult,
)

#: request bodies above this are refused with 413 before JSON parsing
MAX_BODY_BYTES = 64 * 1024

#: verdict → HTTP status for non-2xx outcomes
_STATUS_BY_VERDICT = {
    VERDICT_OVERLOAD: 429,
    VERDICT_DEADLINE: 504,
    VERDICT_CANCELLED: 504,
}


def _json_safe(value: Any) -> Any:
    """Best-effort JSON coercion for row values (dates etc. → str)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def result_payload(result: ServeResult) -> Dict[str, Any]:
    """The ``POST /query`` response body for one serve result."""
    answer = result.answer
    return {
        "ok": result.ok,
        "verdict": result.verdict,
        "question": result.question,
        "requested_system": result.requested_system,
        "system": result.system,
        "sql": result.sql,
        "columns": list(answer.columns) if answer is not None else None,
        "rows": (
            [[_json_safe(v) for v in row] for row in answer.rows]
            if answer is not None
            else None
        ),
        "row_count": len(answer.rows) if answer is not None else None,
        "explanation": result.explanation,
        "degraded_from": [
            {"system": name, "reason": reason} for name, reason in result.degraded_from
        ],
        "fault_trace": [event.as_dict() for event in result.fault_trace],
        "retries": result.retries,
        "cached": result.cached,
        "request_id": result.request_id,
        "timings": {
            "queued_s": round(result.queued_s, 6),
            "elapsed_s": round(result.elapsed_s, 6),
        },
    }


def status_for(result: ServeResult) -> int:
    """HTTP status for a serve result (200 unless admission refused it)."""
    return _STATUS_BY_VERDICT.get(result.verdict, 200)


class ServeRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange against the front owned by the server."""

    server: "ServeHTTPServer"
    protocol_version = "HTTP/1.1"
    #: headers and body go out in two writes; with Nagle's algorithm on,
    #: a kept-alive body would wait for the client's delayed ACK
    disable_nagle_algorithm = True

    # -- helpers --------------------------------------------------------------

    def _send_json(
        self, status: int, payload: Dict[str, Any], extra_headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"ok": False, "error": message})

    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:  # pragma: no cover - log plumbing
            super().log_message(format, *args)

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path.split("?", 1)[0] != "/healthz":
            self._error(404, f"unknown path {self.path!r}; try POST /query or GET /healthz")
            return
        self._send_json(200, self.server.front.healthz())

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path.split("?", 1)[0] != "/query":
            self._error(404, f"unknown path {self.path!r}; try POST /query or GET /healthz")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length header")
            return
        if length > self.server.max_body_bytes:
            self._error(
                413,
                f"body of {length} bytes exceeds the {self.server.max_body_bytes}-byte limit",
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._error(400, "body must be valid JSON: {\"question\": \"...\"}")
            return
        if not isinstance(body, dict) or not isinstance(body.get("question"), str):
            self._error(400, "missing required string field 'question'")
            return
        question = body["question"].strip()
        if not question:
            self._error(400, "'question' must be non-empty")
            return
        system = body.get("system")
        if system is not None and not isinstance(system, str):
            self._error(400, "'system' must be a string when present")
            return
        try:
            ticket = self.server.front.submit(question, system or None, block=False)
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        result = ticket.wait(timeout=self.server.request_timeout_s)
        status = status_for(result)
        headers = {"Retry-After": "1"} if status == 429 else None
        self._send_json(status, result_payload(result), headers)


class ServeHTTPServer(ThreadingHTTPServer):
    """HTTP facade bound to one :class:`ConcurrentFront`.

    The server does not own the front's lifecycle: start the front
    first (or use :func:`serve_http`, which wires both).  ``port=0``
    binds an ephemeral port — read it back from ``server_address``.
    """

    daemon_threads = True

    def __init__(
        self,
        front: ConcurrentFront,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        request_timeout_s: Optional[float] = 60.0,
        quiet: bool = False,
    ):
        super().__init__((host, port), ServeRequestHandler)
        self.front = front
        self.max_body_bytes = max_body_bytes
        self.request_timeout_s = request_timeout_s
        self.quiet = quiet

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` bindings)."""
        return self.server_address[0], self.server_address[1]

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (for tests/embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, name="serve-http", daemon=True
        )
        thread.start()
        return thread


def serve_http(
    front: ConcurrentFront,
    host: str = "127.0.0.1",
    port: int = 8080,
    **server_kwargs: Any,
) -> ServeHTTPServer:
    """Start ``front`` (if needed) and bind the HTTP facade over it.

    Returns the server; call ``serve_forever()`` (or
    ``serve_in_background()``) on it, and ``shutdown()`` +
    ``front.stop()`` to tear down.
    """
    if not front.started:
        front.start()
    return ServeHTTPServer(front, host, port, **server_kwargs)
