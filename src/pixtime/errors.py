"""Exception hierarchy shared by every pixtime module."""


class PixTimeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PixTimeError):
    """Array dimensions do not satisfy an operation's contract."""


class TapeError(PixTimeError):
    """Backward pass requested on a value that is not attached to a tape."""


class NumericError(PixTimeError):
    """A forward operation produced NaN or Inf."""


class DeterminismError(PixTimeError):
    """A function expected to be deterministic returned differing values."""


class ConfigError(PixTimeError):
    """Invalid configuration (divisibility, head counts, bounds, ...)."""


class CategoryError(PixTimeError):
    """Variable category id outside the global table."""


class ParseError(PixTimeError):
    """Non-numeric cell encountered while reading a CSV file."""


class FormatError(PixTimeError):
    """Structurally malformed input file (ragged rows, duplicate columns)."""


class DataError(PixTimeError):
    """Dataset too short or otherwise unusable for the requested windows."""


class PartitionError(PixTimeError):
    """A parameter name could not be classified as shared or local."""


class AggregationError(PixTimeError):
    """Client deltas are inconsistent and cannot be reduced."""


class DivergenceError(PixTimeError):
    """Local training produced a non-finite value."""

    def __init__(self, node_id: int, step: int, message: str):
        self.node_id = node_id
        self.step = step
        super().__init__(f"node {node_id} diverged at step {step}: {message}")


class EvaluationError(PixTimeError):
    """Evaluation requested on an empty test set."""
