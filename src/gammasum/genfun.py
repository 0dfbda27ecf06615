"""The gamma-CDF generating function G(a; x, y) = sum_n P(a+n, x) y^n.

For |y| < 1 the coefficients P(a+n, x) lie in [0, 1] and decrease in n,
so the series converges at least geometrically and its truncation error
is bounded by the next coefficient times the geometric tail of |y|.

Every coefficient sequence P(a+n, x) in the package comes from one
kernel, ``_gamma_tail_coefficients``, truncated by a caller's tail
weight: the geometric weight of a circle |y| = r here, the paired
weight of the gamma-sum CDF in ``core``.

``g_series`` evaluates the truncated series by Horner's rule
(``_horner``), the evaluation the integrals of ``core`` and ``mvgamma``
run on their nodes. The closed forms of G and its limit at y = 1 are
test references and live with the tests.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _real
from .special import _log_front, reg_lower_gamma

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
    idx = np.arange(1.0, m)
    log_w = log_weight(idx)
    # P <= 1, so the stop comes no later than where the weight alone is below tol
    light = log_w < log_tol
    if light.any():
        m = min(m, int(light.argmax()) + 33)
        idx, log_w = idx[: m - 1], log_w[: m - 1]
    while True:
        top = min(peak, m - 1)
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
            crit = log_w + np.log(sums[1:]) + shift
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
        idx = np.arange(1.0, m)
        log_w = log_weight(idx)


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
    a = _real(a, "a")
    x = _real(x, "x")
    if not a > 0.0:
        raise DomainError(f"g_series requires a > 0, got {a!r}")
    if not x >= 0.0:
        raise DomainError(f"g_series requires x >= 0, got {x!r}")
    try:
        yc = None if isinstance(y, bool) else complex(y)
    except (TypeError, ValueError):
        yc = None
    if yc is None:
        raise DomainError(f"y must be a number, got {y!r}")
    if not (math.isfinite(yc.real) and math.isfinite(yc.imag)):
        raise DomainError(f"y must be finite, got {y!r}")
    y = yc
    if abs(y) > 1.0 - 1e-6:
        raise DomainError("g_series requires |y| <= 1 - 1e-6")
    tol = _real(tol, "tol")
    if tol < 1e-15:
        raise DomainError("g_series requires tol >= 1e-15")
    coeffs, bound = _geometric_coefficients(a, x, abs(y), tol, max_terms)
    return GfunResult(complex(_horner(coeffs, np.array([y]))[0]), coeffs.size, bound)
