"""Exception types shared across the package."""


class SkellamFieldsError(Exception):
    """Base class for all package errors."""


class ValidationError(SkellamFieldsError, ValueError):
    """A parameter or config field violates its invariant.

    The message always names the offending field.
    """


class ArgumentRangeError(SkellamFieldsError, ValueError):
    """An argument is outside the declared double-precision-safe range."""


class SeriesNonConvergenceError(SkellamFieldsError, ArithmeticError):
    """A truncated series hit its term cap before the stopping rule fired."""


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
