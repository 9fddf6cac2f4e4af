"""Exception hierarchy for the Blazes reproduction.

Every error raised by this library derives from :class:`BlazesError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class BlazesError(Exception):
    """Base class for all errors raised by this library."""


class SpecError(BlazesError):
    """A Blazes specification file is malformed or inconsistent."""


class DataflowError(BlazesError):
    """A dataflow graph is structurally invalid (dangling streams, unknown
    interfaces, duplicate names, and so on)."""


class AnnotationError(BlazesError):
    """A component or stream annotation cannot be parsed or is not
    applicable (for example a subscript on a confluent annotation)."""


class AnalysisError(BlazesError):
    """The label-derivation procedure failed; usually indicates a dataflow
    that was not validated before analysis."""


class SimulationError(BlazesError):
    """The discrete-event simulator was driven into an invalid state."""


class SocketTimeout(SimulationError):
    """A socket run exceeded its wall-clock budget and was torn down."""

    def __init__(
        self, *, timeout: float, virtual_time: float, fired: int, pending: int
    ) -> None:
        super().__init__(
            f"socket run exceeded its {timeout}s wall-clock budget "
            f"(virtual time {virtual_time:.4f}, {fired} events fired, "
            f"{pending} timers pending)"
        )
        self.timeout = timeout
        self.virtual_time = virtual_time
        self.fired = fired
        self.pending = pending
        self.outcome = None  # the partial RunOutcome; BlazesApp.run attaches it


class BloomError(BlazesError):
    """A Bloom program is malformed (unknown collection, arity mismatch,
    illegal merge operator, and so on)."""


class StormError(BlazesError):
    """A Storm topology is malformed or was executed incorrectly."""


class BenchError(BlazesError):
    """A benchmark scenario or report was queried or produced incorrectly."""


class ApiError(BlazesError):
    """The programmatic application API was misused (unknown app or
    strategy, malformed declaration, annotation cross-check failure)."""


class ObsError(BlazesError):
    """An observability artifact (run directory, telemetry schema) is
    missing, malformed, or carries an unsupported schema version."""


class ExecError(BlazesError):
    """The parallel evaluation engine (worker pool, cell cache) was
    misconfigured or driven into an invalid state."""
