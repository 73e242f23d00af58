"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any toolchain failure.

Errors raised against a known source construct carry a ``file:line:col``
location (``filename``/``line``/``col`` attributes) and prefix their
message with it, exactly like compiler diagnostics::

    counter.v:12:8: expected ';' after statement

``message`` always holds the un-prefixed text, so tooling (e.g. the lint
engine, which converts pipeline failures into structured diagnostics)
can re-attach the location in its own format.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain.

    ``filename``/``line``/``col`` are optional; when ``line`` is nonzero
    the stringified exception is prefixed ``filename:line:col:``.
    """

    def __init__(
        self,
        message: str = "",
        *,
        filename: Optional[str] = None,
        line: int = 0,
        col: int = 0,
    ):
        self.message = message
        self.filename = filename if filename is not None else "<input>"
        self.line = line
        self.col = col
        if line:
            message = f"{self.filename}:{line}:{col}: {message}"
        super().__init__(message)

    @property
    def has_location(self) -> bool:
        return bool(self.line)


class VerilogSyntaxError(ReproError):
    """A lexing or parsing error in a Verilog source file.

    Carries the source location so that diagnostics point at the offending
    token, e.g. ``counter.v:12:8: expected ';' after statement``.  Unlike
    the other subclasses (which only prefix a location when one is known),
    syntax errors always format the ``file:line:col:`` prefix — a parse
    failure is always *somewhere* in the text.
    """

    def __init__(self, message: str, filename: str = "<input>", line: int = 0, col: int = 0):
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col
        Exception.__init__(self, f"{filename}:{line}:{col}: {message}")


class ElaborationError(ReproError):
    """Design elaboration failed (unknown module, port mismatch, etc.)."""


class WidthError(ReproError):
    """A signal width is invalid or unsupported (e.g. wider than 64 bits)."""


class UnsupportedFeatureError(ReproError):
    """The source uses a Verilog feature outside the supported subset."""


class LintError(ReproError):
    """An error-severity lint diagnostic raised from an API entry point.

    ``repro lint`` reports diagnostics without raising; the library entry
    points (``RTLFlow.from_source``) raise this so that a bad design can
    never be silently simulated.  ``diagnostics`` holds every error-level
    :class:`repro.lint.Diagnostic` that fired.
    """

    def __init__(self, message: str, diagnostics=(), **kw):
        super().__init__(message, **kw)
        self.diagnostics = list(diagnostics)


class SimulationError(ReproError):
    """A runtime failure while simulating (bad stimulus, comb loop, etc.)."""


class SanitizerError(SimulationError):
    """A step of a checked evaluation (a fused program or a domain's
    commit) changed a pool offset outside its static write set (see
    :class:`repro.verify.hazards.CheckedFusedExecutor`)."""


class VerificationError(ReproError):
    """Static verification found an error-severity finding raised from an
    API entry point (``repro verify`` reports without raising; ``--verify``
    on run/campaign raises this).  ``diagnostics`` holds every
    error-level finding."""

    def __init__(self, message: str, diagnostics=(), **kw):
        super().__init__(message, **kw)
        self.diagnostics = list(diagnostics)


class ResilienceError(ReproError):
    """Base class for fault-tolerance failures (checkpointing, watchdogs)."""


class ClusterError(ReproError):
    """A sharded multi-process campaign failed: a worker raised a
    deterministic error, a shard exhausted its restart budget, or merged
    shard results are inconsistent (see :mod:`repro.cluster`)."""


class ServiceError(ReproError):
    """The campaign service rejected a request or hit an internal fault
    (unknown job, malformed spec, store corruption; see
    :mod:`repro.serve`)."""


class QueueFullError(ServiceError):
    """The service's bounded shard queue is full (backpressure): the
    submission was rejected and should be retried later.  Maps to HTTP
    429 on the wire."""


class CheckpointError(ResilienceError):
    """A durable checkpoint could not be written, read, or restored."""


class WatchdogTimeout(ResilienceError):
    """A guarded operation exceeded its watchdog timeout.

    The runner cannot forcibly kill the worker thread, so the operation
    may still be executing in the background; callers must treat its side
    effects as undefined and discard its result.
    """


class RetryExhausted(ResilienceError):
    """Every retry attempt of a guarded operation failed.

    ``last_error`` holds the exception of the final attempt and
    ``attempts`` how many were made; callers decide whether exhaustion is
    fatal (re-raise) or degradable (e.g. an MCMC trial scored as
    rejected).
    """

    def __init__(self, message: str, last_error: Optional[BaseException] = None,
                 attempts: int = 0, **kw):
        super().__init__(message, **kw)
        self.last_error = last_error
        self.attempts = attempts
