"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class FoliationError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FoliationError):
    """Mismatched variable lists, unknown variables, malformed inputs."""


class DegenerateInputError(FoliationError):
    """An operation received an identically-zero or otherwise degenerate input."""


class PoleEvaluationError(FoliationError):
    """Evaluation or expansion hit a pole of a meromorphic function."""


class EvaluationOverflowError(FoliationError):
    """A floating-point evaluation left the range of doubles."""


class ChartMismatchError(FoliationError):
    """Two geometric objects do not live on the same chart."""


class NotApplicableError(FoliationError):
    """Preconditions of an analysis are not met (not an internal failure)."""


class InvalidCenterError(FoliationError):
    """A blow-up center is not admissible (e.g. not invariant)."""


class SingularPathError(FoliationError):
    """An integration path runs through a zero or pole of the integrand."""


class SingularLiftError(FoliationError):
    """Path lifting hit a zero of the base component of the vector field."""


class IterationCapError(SingularLiftError):
    """A numeric integration used up its iterations before its end time.

    A :class:`SingularLiftError`, as lifts have always reported it, so that
    callers converting singularities can let it pass under its own name.
    """


class ParseError(FoliationError):
    """Syntax or semantic error in a field-expression file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.reason = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
