"""Exception types shared across the package."""

from __future__ import annotations


class TsvarError(Exception):
    """Base class for all library errors."""


class InputError(TsvarError):
    """The input is malformed or violates a contract: a bad file, value,
    expression or grid. The command line exits 2 on these."""


class NumericalError(TsvarError):
    """Well-formed input on which the computation fails: a singular point
    or system, or no convergence. The command line exits 3 on these."""


class DomainError(InputError):
    """A point lies outside the set or grid an operation is defined on."""


class ParameterError(InputError):
    """A parameter violates its contract (nonpositive step, zero direction, ...)."""


class DegenerateScaleError(InputError):
    """A truncated scale became empty; the problem has no interior points."""


class PointNotInSetError(InputError):
    """The base point of a contingent cone lies below the graph."""


class ExpressionError(InputError):
    """Base class for expression parsing problems; carries a byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text."""


class UnknownIdentifierError(ExpressionError):
    """An identifier that is neither a variable nor a known function."""


class EvaluationError(NumericalError):
    """Expression evaluation hit a singular point; carries the arguments."""

    def __init__(self, message: str, t: float | None = None,
                 y: float | None = None, v: float | None = None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.v = v


class BoundaryMismatchError(InputError):
    """A trajectory does not match the prescribed boundary values."""


class GridMismatchError(InputError):
    """Sampled data does not live on the expected grid; carries both point
    counts when they are known."""

    def __init__(self, message: str, points: int | None = None,
                 grid_points: int | None = None):
        super().__init__(message)
        self.points = points
        self.grid_points = grid_points


class SingularSystemError(NumericalError):
    """The Newton system is singular at the current iterate."""


class IterationLimitError(NumericalError):
    """The solver ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last: tuple[float, ...] | None = None):
        super().__init__(message)
        self.last = last


class InfeasibleConstraintError(NumericalError):
    """The isoperimetric constraint cannot be met from the current iterate."""


class InputFormatError(InputError):
    """Malformed problem file, scale literal or CSV; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
