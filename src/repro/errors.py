"""Exception hierarchy for the DenseVLC reproduction.

Every error raised by this package derives from :class:`DenseVLCError` so
callers can catch package-level failures with a single ``except`` clause
while still being able to discriminate the failing subsystem.
"""

from __future__ import annotations


class DenseVLCError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(DenseVLCError):
    """A model or experiment was configured with invalid parameters."""


class GeometryError(DenseVLCError):
    """A geometric quantity (position, orientation, room) is invalid."""


class ChannelError(DenseVLCError):
    """A channel computation received inconsistent inputs."""


class AllocationError(DenseVLCError):
    """Power/swing allocation failed or was given an infeasible problem."""


class OptimizationError(AllocationError):
    """The continuous optimizer failed to produce a feasible solution."""


class CodingError(DenseVLCError):
    """A PHY-layer encode/decode operation failed."""


class DecodingError(CodingError):
    """A received frame or codeword could not be decoded."""


class SynchronizationError(DenseVLCError):
    """A synchronization procedure failed (e.g. pilot not detected)."""


class SimulationError(DenseVLCError):
    """The discrete-event simulation reached an inconsistent state."""


class RuntimeEngineError(DenseVLCError):
    """The allocation-serving runtime (cache/pool/service) failed."""


class ClusterError(RuntimeEngineError):
    """The sharded cluster layer (ring/frontend/controller) failed."""


class RequestShedError(ClusterError):
    """Admission control dropped a request whose deadline cannot be met."""


class DeadlineExceeded(RuntimeEngineError):
    """A request's deadline expired before its solve completed."""
