"""Exception types shared across the package, and the guard that turns a
closed-form moment beyond the double range into one of them."""

import functools
import math


class SkellamFieldsError(Exception):
    """Base class for all package errors."""


class ValidationError(SkellamFieldsError, ValueError):
    """A parameter or config field violates its invariant.

    The message always names the offending field.
    """


class ArgumentRangeError(SkellamFieldsError, ValueError):
    """An argument is outside the declared double-precision-safe range."""


class SeriesNonConvergenceError(SkellamFieldsError, ArithmeticError):
    """A truncated series hit its term cap before the stopping rule fired, its
    noise passed its cap, or the term-range guard met a term beyond e^700.
    ``.record`` is the refused sum's ``series.SeriesSum``."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class GammaPoleError(SkellamFieldsError, ValueError):
    """A gamma argument on the summation path is a nonpositive (near-)integer."""


class GammaDomainError(SkellamFieldsError, ValueError):
    """A gamma argument on the summation path is nonpositive."""


class ConvergenceGuardError(SkellamFieldsError, ValueError):
    """A Wright parameter set has a negative convergence margin: its series diverges."""


class QuadratureError(SkellamFieldsError, ArithmeticError):
    """Node doubling moved a quadrature value beyond its stability tolerance."""


class SingularPgfError(SkellamFieldsError, ValueError):
    """The pgf governing equation is evaluated too close to its singular set."""


class LatticeSpecError(SkellamFieldsError, ValueError):
    """A lattice cell probability rule violates the per-cell constraints."""


class WindowMismatchError(SkellamFieldsError, ValueError):
    """Two pmf tables do not share the same integer window."""


class UnknownSuiteError(SkellamFieldsError, KeyError):
    """A verification suite name is not registered."""


def moments_in_range(fn):
    """Decorate a closed-form moment function so that a value beyond the
    double range, whether float arithmetic raised OverflowError on the way or
    an inf or nan came out, raises ArgumentRangeError naming the function."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            values = fn(*args, **kwargs)
        except OverflowError:
            values = (math.inf,)
        if not all(map(math.isfinite, values)):
            raise ArgumentRangeError(f"{fn.__name__}: a moment leaves the double range")
        return values

    return checked
