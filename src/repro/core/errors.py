"""Errors raised by the core NLIDB framework.

All framework errors inherit :class:`repro.errors.ReproError`, so they
carry a stable ``code`` attribute in the same style as the SQL engine's
diagnostic codes (``SQLxxx``); framework codes use the ``NLQ5xx`` range.
"""

from __future__ import annotations

from repro.errors import ReproError


class NLIDBError(ReproError):
    """Base class for interpretation-framework errors."""

    code = "NLQ500"


class InterpretationError(NLIDBError):
    """Raised when a question cannot be interpreted at all.

    Systems normally return an empty interpretation list instead; this
    exception is reserved for *structural* failures (e.g. compiling an
    OQL query whose concepts are disconnected).
    """

    code = "NLQ510"


class CompilationError(NLIDBError):
    """Raised when an OQL query cannot be compiled to SQL."""

    code = "NLQ520"


class NoAnswer(NLIDBError):
    """The system produced no interpretation, or none survived static
    analysis: an abstention.  Deterministic, so the serving layer never
    retries it and goes straight to the next system."""

    code = "NLQ530"

    def __init__(self, system: str, reason: str):
        super().__init__(f"{system}: {reason}")
        self.system = system
        self.reason = reason
