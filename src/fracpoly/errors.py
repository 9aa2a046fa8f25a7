"""Exception types raised across the package."""

from __future__ import annotations


class FracPolyError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(FracPolyError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OrderMismatch(FracPolyError, ValueError):
    """Two truncated series of different truncation order were combined."""


class ZeroConstantTerm(FracPolyError, ZeroDivisionError):
    """Reciprocal of a series whose constant term vanishes."""


class ValuationError(FracPolyError, ValueError):
    """A series division cannot cancel the denominator's leading power."""


class IndexOutOfOrder(FracPolyError, IndexError):
    """Coefficient index beyond the truncation order."""


class DegenerateDenominator(FracPolyError, ZeroDivisionError):
    """A family generating-function denominator vanishes identically."""


class ConvergenceEnvelopeExceeded(FracPolyError, ValueError):
    """Evaluation point outside the documented series-summation envelope."""


class ToleranceUnreachable(FracPolyError, ArithmeticError):
    """The requested tolerance cannot be met at the working precision."""


class DegreeTooLow(FracPolyError, ValueError):
    """Closed-form fractional derivative requested for degree < ceil(order)."""

