"""Closed forms of the generating function G(a; x, y) = sum_n P(a+n, x) y^n.

Test references for the package's series evaluator: two closed forms
built on the confluent series M(1, c, z), and the finite limit of G at
y = 1. They share none of the backward-summation kernel behind
``gammasum.genfun.g_series``, so agreement between them is a genuine
cross-check.
"""

import math

from gammasum.errors import ConvergenceError, DomainError, PrecisionError
from gammasum.special import (
    EPS,
    _MAX_ITER,
    _log_front,
    gamma_pdf,
    reg_lower_gamma,
)


def _kummer_m(c, z, rel_tol=1e-16):
    """M(1, c, z) = sum_n z^n / (c)_n together with sum_n |term_n|.

    The magnitude sum lets callers estimate cancellation: the rounding
    error of the sum is of order EPS times that magnitude.
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    magsum = 1.0
    azr = abs(z)
    n = 0
    while True:
        term *= z / (c + n)
        total += term
        magsum += abs(term)
        n += 1
        if abs(term) <= max(rel_tol * abs(total), 1e-300) and azr < c + n:
            return total, magsum
        if n >= _MAX_ITER:
            raise ConvergenceError("confluent series M(1, c, z) did not converge")


def g_closed(a, x, y, tol=1e-12):
    """Closed form (1-y)^-1 (P(a, x) - y^(1-a) e^((y-1)x) P(a, xy)).

    Evaluated with the exponential factors fused analytically:

        y^(1-a) e^((y-1)x) P(a, xy) = y x^a e^(-x) M(1, a+1, xy) / Gamma(a+1)

    which is an exact identity (the principal powers combine because
    x > 0), and is the numerically usable form: the literal composition
    multiplies e^(|re(xy)|)-sized intermediates that the fused form never
    creates. Kept as an independent cross-check of g_series.

    Raises:
        DomainError: |y| >= 1 or |1 - y| <= 1e-4.
        PrecisionError: if the estimated rounding error of the confluent
            series, propagated to the result, exceeds 1e-9.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"g_closed requires a > 0, got {a!r}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"g_closed requires x >= 0, got {x!r}")
    y = complex(y)
    if abs(y) >= 1.0:
        raise DomainError("g_closed requires |y| < 1")
    if abs(1.0 - y) <= 1e-4:
        raise DomainError("g_closed requires |1 - y| > 1e-4; use g_at_one near 1")
    if x == 0.0:
        return 0.0 + 0.0j
    total, magsum = _kummer_m(a + 1.0, x * y, min(tol, 1e-15))
    scale = math.exp(_log_front(a, x)) / a
    err = EPS * magsum * scale / abs(1.0 - y)
    if err > 1e-9:
        raise PrecisionError(
            f"g_closed cancellation estimate {err:.3g} exceeds 1e-9"
        )
    return (reg_lower_gamma(a, x) - y * scale * total) / (1.0 - y)


def g_closed_alt(a, x, y, tol=1e-12):
    """Second closed form, valid for a >= 1 with the convention P(0, .) = 1:

        (1-y)^-1 (P(a-1, x) - y^(1-a) e^((y-1)x) P(a-1, xy))

    computed with the same exponential fusion as g_closed, which reduces
    the subtracted term to gamma_pdf(a, x) M(1, a, xy). Independent of
    g_closed because it rests on the shifted-shape identity.
    """
    if not (a >= 1.0) or not math.isfinite(a):
        raise DomainError(f"g_closed_alt requires a >= 1, got {a!r}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"g_closed_alt requires x >= 0, got {x!r}")
    y = complex(y)
    if abs(y) >= 1.0:
        raise DomainError("g_closed_alt requires |y| < 1")
    if abs(1.0 - y) <= 1e-4:
        raise DomainError("g_closed_alt requires |1 - y| > 1e-4")
    pm1 = 1.0 if a == 1.0 else reg_lower_gamma(a - 1.0, x)
    pdf_term = gamma_pdf(a, x)
    total, magsum = _kummer_m(a, x * y, min(tol, 1e-15))
    err = EPS * magsum * pdf_term / abs(1.0 - y)
    if err > 1e-9:
        raise PrecisionError(
            f"g_closed_alt cancellation estimate {err:.3g} exceeds 1e-9"
        )
    return (pm1 - pdf_term * total) / (1.0 - y)


def g_at_one(a, x):
    """Limit of G(a; x, y) as y -> 1:

        x g_a(x) + (1 + x - a) P(a, x)

    with g_a the unit-scale gamma density. Finite for all a > 0, x >= 0.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"g_at_one requires a > 0, got {a!r}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"g_at_one requires x >= 0, got {x!r}")
    pdf_part = 0.0 if x == 0.0 else x * gamma_pdf(a, x)
    return pdf_part + (1.0 + x - a) * reg_lower_gamma(a, x)
