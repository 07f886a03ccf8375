"""Series summation core: stopping rule and compensated accumulation.

Every analytic series in the package (Bessel, Mittag-Leffler, Wright and the
pmf outer sums built on them) is truncated by the same rule: stop once
``CONSECUTIVE_SMALL`` successive terms fall below ``REL_TOL`` times the
running partial sum, fail if ``MAX_TERMS`` is reached first.  Terms are
accumulated in Neumaier-compensated form so alternating series do not lose
accuracy to cancellation in the accumulator itself.
"""

from __future__ import annotations

from typing import Iterable

from .errors import SeriesNonConvergenceError

__all__ = ["REL_TOL", "MAX_TERMS", "CONSECUTIVE_SMALL", "sum_series", "sum_series_tracked"]

_EPS = 2.220446049250313e-16

REL_TOL = 1e-15
MAX_TERMS = 500
CONSECUTIVE_SMALL = 3


def sum_series(terms: Iterable[float], label: str = "series") -> float:
    """Sum ``terms`` under the stopping rule; :func:`sum_series_tracked`
    with zero per-term noise and no cap."""
    return sum_series_tracked(((t, 0.0) for t in terms), label)[0]


def sum_series_tracked(terms: Iterable[tuple], label: str = "series",
                       noise_cap: float | None = None) -> tuple:
    """Sum (term, term_noise) pairs under the stopping rule with compensated
    accumulation, returning (value, noise).

    ``terms`` may be an infinite generator; it is consumed until the rule
    fires.  A generator that ends on its own is treated as a finite sum.
    Raises SeriesNonConvergenceError if ``MAX_TERMS`` terms were consumed
    without the rule firing.

    The returned noise bounds the cancellation error of the sum: machine
    epsilon times the largest term magnitude seen, plus the propagated
    per-term noises.  Alternating series whose intermediate terms dwarf the
    result are thereby detected instead of silently returning rounding
    garbage; if ``noise_cap`` is given the sum aborts as soon as the running
    noise exceeds it.
    """
    total = 0.0
    comp = 0.0  # Neumaier compensation
    noise = 0.0
    max_abs = 0.0
    small = 0
    count = 0
    for term, term_noise in terms:
        count += 1
        max_abs = max(max_abs, abs(term))
        noise += term_noise
        if noise_cap is not None and noise + _EPS * max_abs > noise_cap:
            raise SeriesNonConvergenceError(
                f"{label}: cancellation noise exceeds {noise_cap:g}; "
                "arguments are outside the double-precision-stable envelope"
            )
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
                return total + comp, noise + _EPS * max_abs
        else:
            small = 0
        if count >= MAX_TERMS:
            raise SeriesNonConvergenceError(
                f"{label}: no convergence within {MAX_TERMS} terms"
            )
    return total + comp, noise + _EPS * max_abs
