"""The gamma-CDF generating function G(a; x, y) = sum_n P(a+n, x) y^n.

For |y| < 1 the coefficients P(a+n, x) lie in [0, 1] and decrease in n,
so the series converges at least geometrically and its truncation error
is bounded by the next coefficient times the geometric tail of |y|.

Every coefficient sequence P(a+n, x) in the package comes from one
kernel, ``_gamma_tail_coefficients``, truncated by a caller's tail
weight: the geometric weight of a circle |y| = r here, the paired
weight of the gamma-sum CDF in ``core``.

Three independent evaluators are provided. ``g_series`` evaluates the
truncated series by Horner's rule and is the one used on hot
paths. ``g_closed`` and ``g_closed_alt`` evaluate two closed forms built
on the analytically continued incomplete gamma function; they exist to
cross-check ``g_series`` and are deliberately kept on a different code
path. ``g_at_one`` evaluates the finite limit at y = 1, where the factor
(1 - y)^-1 of the closed forms becomes removable.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PrecisionError
from .special import (
    EPS,
    _kummer_m,
    _log_front,
    gamma_pdf,
    reg_lower_gamma,
)

_TERM_CAP = 200000


@dataclass(frozen=True)
class GfunResult:
    """A series value with the number of terms used and a truncation bound.

    tail_bound is an upper bound on the absolute truncation error of the
    returned partial sum; it is always nonnegative.
    """

    value: complex
    terms_used: int
    tail_bound: float


def _gamma_tail_coefficients(a, x, log_weight, tol, max_terms=_TERM_CAP):
    """P(a+n, x) for n < N, and the tail bound w(N) P(a+N, x).

    N is the first n >= 1 with w(n) P(a+n, x) < tol; log_weight maps
    the index array 1, 2, ..., m-1 to log w(n).

    Each coefficient is the backward sum P(a+n, x) = sum_(n<=j<m) t_j
    + P(a+m, x) of the positive terms t_j = x^(a+j) e^(-x) / Gamma(a+j+1)
    (Gautschi, ACM TOMS 5, 1979), so it is accurate relative to itself
    however small it is. The terms are scaled by the largest one, t_top
    at top = round(x - a), and built by ratios outward from it, so only
    negligible ones underflow; the comparison with tol is made in log
    space.

    Raises:
        ConvergenceError: if N would exceed max_terms.
    """
    if x == 0.0:
        return np.zeros(1), 0.0
    peak = max(0, int(round(x - a)))
    m = min(peak + 32 + int(10.0 * math.sqrt(x)), max_terms + 1)
    log_tol = math.log(tol) if tol > 0.0 else -math.inf
    while True:
        top = min(peak, m - 1)
        idx = np.arange(1.0, m)
        # u_j = t_j / t_top from the ratios t_j / t_(j-1) = x / (a + j)
        u = np.empty(m)
        u[top] = 1.0
        u[top + 1 :] = (x / (a + idx[top:])).cumprod()
        u[:top] = ((a + idx[:top]) / x)[::-1].cumprod()[::-1]
        log_top = _log_front(a + top, x) - math.log(a + top)
        seed = reg_lower_gamma(a + m, x)
        log_seed = math.log(seed) if seed > 0.0 else -math.inf
        shift = max(log_top, log_seed)
        sums = u[::-1].cumsum()[::-1] * math.exp(log_top - shift)
        sums += math.exp(log_seed - shift)
        with np.errstate(divide="ignore"):
            crit = log_weight(idx) + np.log(sums[1:]) + shift
        below = crit < log_tol
        stop = int(below.argmax()) + 1
        if below[stop - 1]:
            coeffs = np.minimum(sums[:stop] * math.exp(shift), 1.0)
            return coeffs, math.exp(crit[stop - 1])
        if m > max_terms:
            raise ConvergenceError(
                f"coefficient truncation needed more than {max_terms} terms"
            )
        m = min(2 * m, max_terms + 1)


def _geometric_coefficients(a, x, r, tol, max_terms=_TERM_CAP):
    """Coefficients P(a+n, x) and their tail bound under the geometric
    weight r^n / (1 - r), which bounds sum_(j>=n) |y|^j P(a+j, x) / P(a+n, x)
    on the circle |y| = r < 1 because the coefficients decrease in n."""
    if r >= 1.0:
        raise DomainError("coefficient truncation requires |y| < 1")
    log_r = math.log(r) if r > 0.0 else -math.inf
    scale = -math.log1p(-r)
    return _gamma_tail_coefficients(
        a, x, lambda n: n * log_r + scale, tol, max_terms
    )


def _horner(coeffs, y):
    """Evaluate sum_n coeffs[n] y^n for an array of complex points y."""
    acc = np.full_like(y, coeffs[-1], dtype=complex)
    for cf in coeffs[-2::-1]:
        acc = acc * y + cf
    return acc


def g_series(a, x, y, tol=1e-12, max_terms=10000):
    """Direct summation of G(a; x, y) = sum_n P(a+n, x) y^n.

    The coefficients come from the backward-summation kernel and are
    truncated at the first N with P(a+N, x) |y|^N / (1 - |y|) < tol;
    the series is then evaluated by Horner's rule.

    Args:
        a: shape, a > 0.
        x: evaluation point, x >= 0.
        y: complex point with |y| <= 1 - 1e-6.
        tol: requested absolute truncation bound, at least 1e-15.
        max_terms: cap on the number of series terms.

    Returns:
        GfunResult with the partial sum, terms used, and the geometric
        tail bound at truncation.

    Raises:
        DomainError: out-of-domain a, x, y, or tol.
        ConvergenceError: if max_terms is exceeded.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"g_series requires a > 0, got {a!r}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"g_series requires x >= 0, got {x!r}")
    y = complex(y)
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        raise DomainError("g_series requires finite y")
    if abs(y) > 1.0 - 1e-6:
        raise DomainError("g_series requires |y| <= 1 - 1e-6")
    if tol < 1e-15:
        raise DomainError("g_series requires tol >= 1e-15")
    coeffs, bound = _geometric_coefficients(a, x, abs(y), tol, max_terms)
    return GfunResult(complex(_horner(coeffs, np.array([y]))[0]), coeffs.size, bound)


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


def g_eval(a, x, y, tol=1e-12):
    """Dispatcher: g_series away from the unit circle, g_at_one at y = 1.

    The annulus 1 - 1e-6 < |y| < 1 off the real point 1 is rejected; the
    window keeps the closed forms' (1 - y)^-1 below 1e6 and no caller
    needs that region.
    """
    y = complex(y)
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        raise DomainError("g_eval requires finite y")
    if abs(y) > 1.0:
        raise DomainError("g_eval requires |y| <= 1")
    if abs(1.0 - y) < 1e-6 and y.imag == 0.0:
        return complex(g_at_one(a, x))
    if abs(y) <= 1.0 - 1e-6:
        return g_series(a, x, y, tol).value
    raise DomainError("g_eval is undefined for 1 - 1e-6 < |y| < 1 away from y = 1")
