"""Series summation core: stopping rule, compensated accumulation and the one
cancellation-noise policy.

Every analytic series in the package (Bessel, Mittag-Leffler, Wright and the
pmf outer sums built on them) is truncated by the same rule: stop once
``CONSECUTIVE_SMALL`` successive terms fall below ``REL_TOL`` times the
running partial sum, fail if ``MAX_TERMS`` is reached first.  Terms are
accumulated in Neumaier-compensated form so alternating series do not lose
accuracy to cancellation in the accumulator itself.

Every sum reports what it did as a :class:`SeriesSum`, and every refusal
carries one as ``.record``.  Its noise is the one bound on cancellation:
machine epsilon times the largest term magnitude plus the per-term noises.
Each caller holds it to one budget:

- ``bessel_i``'s terms share one sign and carry zero per-term noise;
- the pmf sums abort in the loop once the noise passes the absolute
  ``noise_cap``, and an inner Wright sum refused with a record whose noise
  passes that cap over its coefficient is refused as cancellation;
- ``mittag_leffler3`` refuses a record whose noise exceeds 1e-6 max(1, |value|).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import SeriesNonConvergenceError

__all__ = ["REL_TOL", "MAX_TERMS", "CONSECUTIVE_SMALL", "SeriesSum",
           "cancellation_error", "sum_series", "sum_series_tracked"]

_EPS = 2.220446049250313e-16

REL_TOL = 1e-15
MAX_TERMS = 500
CONSECUTIVE_SMALL = 3


class SeriesSum(NamedTuple):
    """What a sum did: value, noise bound, terms consumed, and the rule that
    stopped it: "small", "finite" (the terms ran out), "term cap", "noise cap",
    or "term error" (the term iterator raised)."""

    value: float
    noise: float
    terms: int
    stop: str


def cancellation_error(label: str, cap: float, record=None) -> SeriesNonConvergenceError:
    """The refusal of a sum whose noise passed ``cap``."""
    return SeriesNonConvergenceError(f"{label}: cancellation noise exceeds {cap:g}; arguments"
                                     " are outside the double-precision-stable envelope", record)


def sum_series(terms: Iterable[float], label: str = "series") -> float:
    """Sum ``terms`` under the stopping rule; :func:`sum_series_tracked`
    with zero per-term noise and no cap."""
    return sum_series_tracked(((t, 0.0) for t in terms), label)[0]


def sum_series_tracked(terms: Iterable[tuple], label: str = "series",
                       noise_cap: float | None = None) -> SeriesSum:
    """Sum (term, term_noise) pairs under the stopping rule with compensated
    accumulation.

    ``terms`` may be an infinite generator; it is consumed until the rule
    fires.  A generator that ends on its own is treated as a finite sum.
    Raises SeriesNonConvergenceError if ``MAX_TERMS`` terms were consumed
    without the rule firing, or, when ``noise_cap`` is given, as soon as the
    running noise exceeds it.  A SeriesNonConvergenceError the iterator
    raises without a record gets the record of the terms consumed before it.
    """
    total = comp = noise = max_abs = 0.0  # comp: Neumaier compensation
    small = count = 0
    try:
        for term, term_noise in terms:
            count += 1
            max_abs = max(max_abs, abs(term))
            noise += term_noise
            if noise_cap is not None and noise + _EPS * max_abs > noise_cap:
                raise cancellation_error(label, noise_cap, SeriesSum(
                    total + comp, noise + _EPS * max_abs, count, "noise cap"))
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
            # A zero term (underflow) is negligible even when the sum is still 0.
            if term == 0.0 or abs(term) < REL_TOL * abs(total + comp):
                small += 1
                if small >= CONSECUTIVE_SMALL:
                    return SeriesSum(total + comp, noise + _EPS * max_abs, count, "small")
            else:
                small = 0
            if count >= MAX_TERMS:
                raise SeriesNonConvergenceError(
                    f"{label}: no convergence within {MAX_TERMS} terms",
                    SeriesSum(total + comp, noise + _EPS * max_abs, count, "term cap"))
    except SeriesNonConvergenceError as e:
        if e.record is None:
            e.record = SeriesSum(total + comp, noise + _EPS * max_abs, count, "term error")
        raise
    return SeriesSum(total + comp, noise + _EPS * max_abs, count, "finite")
