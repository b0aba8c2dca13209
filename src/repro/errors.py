"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class UnitError(ReproError):
    """Raised for malformed engineering-unit strings or values."""


class NetlistError(ReproError):
    """Raised for structurally invalid circuits or netlists."""


class SpiceSyntaxError(NetlistError):
    """Raised when SPICE text cannot be parsed.

    Attributes
    ----------
    line_no:
        1-based line number in the source text, when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class GraphConstructionError(ReproError):
    """Raised when a circuit cannot be converted into a heterogeneous graph."""


class LayoutError(ReproError):
    """Raised when the layout synthesizer cannot process a circuit."""


class ModelError(ReproError):
    """Raised for model configuration or training failures."""


class ShapeError(ModelError):
    """Raised when tensor shapes are incompatible."""


class SimulationError(ReproError):
    """Raised when circuit simulation fails (singular matrix, no convergence)."""


class DatasetError(ReproError):
    """Raised for dataset assembly or split failures."""


class ApiError(ReproError):
    """Raised for malformed prediction requests (unknown model/target...)."""


class ServeError(ReproError):
    """Base class for inference-serving failures."""


class ServeOverloadedError(ServeError):
    """Raised when the serving queue is full and a request is rejected.

    Attributes
    ----------
    queue_depth:
        The configured queue capacity that was exceeded, when known.
    """

    def __init__(self, message: str, queue_depth: int | None = None):
        self.queue_depth = queue_depth
        super().__init__(message)


class ServeTimeoutError(ServeError):
    """Raised when a request waits past its deadline before it runs."""


class ObsError(ReproError):
    """Observability subsystem failure (metrics files, exposition)."""


class StaticCheckError(ReproError):
    """Raised for static-analysis configuration failures (unknown rule
    name, missing or unparseable target file)."""
