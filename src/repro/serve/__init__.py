"""Resilient NLQ serving layer.

Wraps any registered NLIDB system behind per-stage timeouts, retries
with exponential backoff, a per-system circuit breaker, and a
graceful-degradation fallback chain; ships with a deterministic
fault-injection harness for testing all of it.  See
:mod:`repro.serve.service` for the failure model.

On top of the single-threaded service sit the concurrency layers:
:mod:`repro.serve.concurrent` (worker-pool dispatch with bounded
admission, per-request deadlines checked at the next stage boundary,
shared thread-safe breakers and a serve-layer answer cache) and
:mod:`repro.serve.http` (a stdlib HTTP/JSON facade: ``POST /query``,
``GET /healthz``).
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .concurrent import (
    AnswerCache,
    ConcurrentFront,
    ServeTicket,
    replay_serial,
)
from .faults import (
    FaultEvent,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    child_seed,
)
from .http import ServeHTTPServer, serve_http
from .report import ServeSummary, latency_percentiles, serve_workload
from .service import (
    DEFAULT_FALLBACK_CHAIN,
    VERDICT_ANSWERED,
    VERDICT_CANCELLED,
    VERDICT_DEADLINE,
    VERDICT_DEGRADED,
    VERDICT_FAILED,
    VERDICT_OVERLOAD,
    NoAnswer,
    RequestCancelled,
    ResilientService,
    ServeResult,
    StageTimeout,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "AnswerCache",
    "CircuitBreaker",
    "ConcurrentFront",
    "DEFAULT_FALLBACK_CHAIN",
    "FaultEvent",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NoAnswer",
    "RequestCancelled",
    "ResilientService",
    "ServeHTTPServer",
    "ServeResult",
    "ServeSummary",
    "ServeTicket",
    "StageTimeout",
    "VERDICT_ANSWERED",
    "VERDICT_CANCELLED",
    "VERDICT_DEADLINE",
    "VERDICT_DEGRADED",
    "VERDICT_FAILED",
    "VERDICT_OVERLOAD",
    "child_seed",
    "latency_percentiles",
    "replay_serial",
    "serve_http",
    "serve_workload",
]
