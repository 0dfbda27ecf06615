"""Scalar special functions on which the rest of the package builds.

The gamma density and the regularized lower incomplete gamma function
P(a, x). All routines are pure functions of their arguments and hold no
shared mutable state, so they are safe to call from any number of
threads.

No NaN or infinity is returned from a public operation: out-of-domain
inputs raise DomainError and magnitudes that cannot be represented raise
PrecisionError.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, PrecisionError, _real

# double precision unit roundoff and the exp() overflow threshold
EPS = 2.220446049250313e-16
MAXLOG = 709.782712893384

# continued fraction rescaling bounds, as in the classic Cephes igamc
_BIG = 4.503599627370496e15
_BIGINV = 2.220446049250313e-16

_MAX_ITER = 200000


def gamma_pdf(a, x):
    """Gamma density exp(-x) x^(a-1) / Gamma(a), evaluated in log space.

    The log-space form keeps shape parameters up to 1e4 from overflowing
    or underflowing intermediate factors.

    Raises:
        DomainError: for a <= 0, x < 0, or the divergent corner x = 0
            with a < 1.
        PrecisionError: if the density exceeds the double range (only
            possible for a < 1 at denormal-scale x).
    """
    a = _real(a, "a")
    x = _real(x, "x")
    if not a > 0.0:
        raise DomainError(f"gamma_pdf requires a > 0, got {a!r}")
    if not x >= 0.0:
        raise DomainError(f"gamma_pdf requires x >= 0, got {x!r}")
    if x == 0.0:
        if a < 1.0:
            raise DomainError("gamma_pdf diverges at x = 0 for a < 1")
        return 1.0 if a == 1.0 else 0.0
    lp = (a - 1.0) * math.log(x) - x - math.lgamma(a)
    if lp > MAXLOG:
        raise PrecisionError("gamma_pdf overflows double precision")
    return math.exp(lp)


def _stirling_tail(a):
    # correction J(a) in lgamma(a) = (a - 1/2) ln a - a + ln(2 pi)/2 + J(a),
    # truncated after the a^-11 term; error below 1e-16 for a >= 12
    z = 1.0 / (a * a)
    s = -691.0 / 360360.0
    s = s * z + 1.0 / 1188.0
    s = s * z - 1.0 / 1680.0
    s = s * z + 1.0 / 1260.0
    s = s * z - 1.0 / 360.0
    s = s * z + 1.0 / 12.0
    return s / a


def _log_front(a, x):
    """log of x^a e^(-x) / Gamma(a) with small absolute error.

    The naive form a ln x - x - lgamma(a) cancels three terms of size
    a ln a when x is near a large a, which is exactly where P(a, x) is in
    mid-range. Rewriting against Stirling's expansion keeps every term
    of the size of the result itself.
    """
    if x == 0.0:
        return -math.inf
    if a < 12.0 or x < 0.5 * a or x > 2.0 * a:
        return a * math.log(x) - x - math.lgamma(a)
    u = (x - a) / a
    if abs(u) > 0.4:
        s = math.log1p(u) - u
    else:
        # ln(1+u) - u = -u^2/2 + u^3/3 - ..., summed directly so the
        # result carries no cancellation against the leading terms
        s = 0.0
        term = -u * u
        n = 2
        while True:
            contrib = term / n
            s += contrib
            if abs(contrib) <= 1e-18 * abs(s) or n > 120:
                break
            term *= -u
            n += 1
    return a * s + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_tail(a)


def _igam_series(a, x):
    # lower series, valid and stable for x < a + 1
    lf = _log_front(a, x)
    if lf < -MAXLOG:
        return 0.0
    front = math.exp(lf)
    r = a
    c = 1.0
    total = 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        total += c
        if c <= total * EPS:
            return min(max(total * front / a, 0.0), 1.0)
    raise ConvergenceError("incomplete gamma series did not converge")


def _igam_cf(a, x):
    # upper continued fraction (Legendre form), valid for x >= a + 1
    lf = _log_front(a, x)
    if lf < -MAXLOG:
        return 0.0
    front = math.exp(lf)
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAX_ITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r) if r != 0.0 else 1.0
            if r != 0.0:
                ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= EPS:
            return min(max(ans * front, 0.0), 1.0)
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x), the Gamma(a, 1) CDF.

    Series branch for x < a + 1, continued fraction branch otherwise.

    Args:
        a: shape, a > 0.
        x: evaluation point, x >= 0.

    Returns:
        P(a, x) in [0, 1].

    Raises:
        DomainError: for a <= 0 or x < 0.
    """
    a = _real(a, "a")
    x = _real(x, "x")
    if not a > 0.0:
        raise DomainError(f"reg_lower_gamma requires a > 0, got {a!r}")
    if not x >= 0.0:
        raise DomainError(f"reg_lower_gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _igam_series(a, x)
    return 1.0 - _igam_cf(a, x)

