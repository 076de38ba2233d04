"""Exception types shared across the package.

Each certification stage has its own failure modes; keeping them as distinct
classes lets callers resample, skip, or surface a failure without string
matching.
"""


class TansecError(Exception):
    """Base class for all package errors."""


class PolyParseError(TansecError):
    """Expression text violates the grammar.  ``position`` is the 0-based
    character offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


class VarietyFileError(TansecError):
    """Variety definition file is malformed.  ``line`` is 1-based; ``column``
    is 1-based or None when the error is not tied to a column."""

    def __init__(self, message: str, line: int, column: int | None = None):
        loc = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


class SingularMatrixError(TansecError):
    """Linear solve hit a numerically (or exactly) singular matrix."""


class DegenerateInputError(TansecError):
    """Input rows/frames fail the required independence check."""


class RankDeficientJacobianError(TansecError):
    """Parametrization is not immersive at the requested point."""


class NewtonDivergedError(TansecError):
    """Newton iteration failed to meet the residual tolerance."""


class NotNormalizedError(TansecError):
    """Operation requires a chart with vanishing value and differential at 0."""


class SingularTangentJacobianError(TansecError):
    """The graph-map Jacobian is singular at the sampled point, so the
    tangent-chart solve is undefined there."""


class NonTransverseError(TansecError):
    """Two tangent frames do not meet in a single projective point."""

    def __init__(self, dimension: int):
        super().__init__(f"tangent spans meet in dimension {dimension}, expected 1")
        self.dimension = dimension


class CenterHitError(TansecError):
    """Attempted to project the center itself."""


class InsufficientPointsError(TansecError):
    """Center recovery needs at least two ramification points."""


class NoConsensusError(TansecError):
    """Pairwise tangent intersections do not agree on a dominant cluster."""
