"""Exception types raised across the package.

Each class names one reason to refuse a call; the CLI reports either one
as a single ``error:`` line and exit 2.
"""

from __future__ import annotations


class FracPolyError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(FracPolyError, ValueError):
    """An input the operation refuses: a parameter outside its domain or
    cap, series of different orders, a series that cannot be inverted or
    divided, a point outside the evaluation envelope, a degree below the
    order."""


class ToleranceUnreachable(FracPolyError, ArithmeticError):
    """A valid input whose result the working precision cannot certify."""
