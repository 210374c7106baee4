"""Exception hierarchy shared by all modules."""
from __future__ import annotations


class ModzetaError(Exception):
    """Base class for library errors."""


class DomainError(ModzetaError, ValueError):
    """Argument outside the documented domain of an operation."""


class SingularityError(ModzetaError, ArithmeticError):
    """Evaluation requested at (or too close to) a pole."""


class ConvergenceError(ModzetaError, ArithmeticError):
    """A series or quadrature could not certify the requested tolerance."""

    def __init__(self, message: str, suggestion: object = None):
        super().__init__(message)
        self.suggestion = suggestion

