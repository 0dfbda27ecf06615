"""Independent cross-checks: a power-series CDF and Monte Carlo estimators.

The series route expands prod_j (1 - c_j y)^-alpha_j around y = 0 and
pairs coefficient n with P(alpha_total + n, vx). It shares the
reparametrization with the quadrature route but none of the contour
machinery, so agreement between the two is a genuine two-route check.
The Monte Carlo estimators are the third route: direct simulation with
a fixed seed, reported with a standard error so tests can assert
agreement at a stated number of sigmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _paired_coefficients, derive_params
from .errors import DomainError, NotPositiveDefiniteError
from .special import reg_lower_gamma

# Simulation chunk height: keeps the working set around a few hundred MB
# at most while producing streams bit-identical to one monolithic draw.
_CHUNK = 262144


@dataclass(frozen=True)
class SeriesResult:
    """Series CDF value with the term count and the rigorous tail bound."""

    value: float
    terms_used: int
    tail_bound: float


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int


def series_coefficients(d, n_terms):
    """First n_terms Taylor coefficients b_n of prod_j (1 - c_j y)^-alpha_j.

    Computed by the log-derivative recurrence
        b_0 = 1,   n b_n = sum_{m=1}^{n} s_m b_{n-m},
    with power sums s_m = sum_j alpha_j c_j^m. All b_n >= 0 when the c_j
    are real, which the dominating-series tail bound relies on.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms!r}")
    alphas = np.asarray(d.alphas)
    cs = np.asarray(d.c)
    b = np.empty(n_terms)
    b[0] = 1.0
    s = np.empty(n_terms)
    cp = np.ones_like(cs)
    for n in range(1, n_terms):
        cp = cp * cs
        s[n] = alphas @ cp
        b[n] = (s[1 : n + 1] @ b[n - 1 :: -1]) / n
    return b


def series_cdf(p, x, tol=1e-10):
    """Series-route CDF value for the same sum-of-gammas model as core.cdf.

    Pairs the Taylor coefficients b_n of series_coefficients with the
    coefficients P(alpha+n, vx) of core._paired_coefficients, truncated
    where the dominating tail bound, returned as tail_bound, drops below
    tol.

    Raises:
        ConvergenceError: if N would exceed the package's term cap.
    """
    if not (x >= 0.0) or not math.isfinite(x):
        if x < 0.0:
            return SeriesResult(0.0, 0, 0.0)
        raise DomainError(f"series_cdf requires finite x, got {x!r}")
    d = derive_params(p)
    vx = d.v * x
    pref = math.exp(d.log_prefactor)
    if d.c_max_abs == 0.0:
        return SeriesResult(pref * reg_lower_gamma(d.alpha_total, vx), 1, 0.0)
    coeffs, tail = _paired_coefficients(d, vx, tol)
    b = series_coefficients(d, coeffs.size)
    return SeriesResult(pref * math.fsum((b * coeffs).tolist()), coeffs.size, tail)


def _gamma_variates(rng, shape, n):
    """n gamma(shape, 1) draws via the Marsaglia-Tsang squeeze method.

    For shape >= 1: d = shape - 1/3, c = 1/sqrt(9d); draw z standard
    normal, v = (1 + cz)^3, accept when u < 1 - 0.0331 z^4 or
    ln u < z^2/2 + d - dv + d ln v. Shapes below one use the boost
    Gamma(shape) = Gamma(shape + 1) * U^(1/shape).
    """
    if shape < 1.0:
        g = _gamma_variates(rng, shape + 1.0, n)
        u = rng.random(n)
        return g * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    idx = np.arange(n)
    while idx.size:
        z = rng.standard_normal(idx.size)
        u = rng.random(idx.size)
        v = (1.0 + c * z) ** 3
        ok = v > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = ok & (
                (u < 1.0 - 0.0331 * z**4)
                | (np.log(u) < 0.5 * z**2 + d - d * v + d * np.log(v))
            )
        out[idx[accept]] = d * v[accept]
        idx = idx[~accept]
    return out


def mc_cdf(p, x, n_samples=1000000, seed=0):
    """Monte Carlo CDF: the fraction of simulated sums at or below x.

    Uses numpy's PCG64 generator under the given seed; the estimate is
    deterministic for fixed (seed, n_samples). std_error is the binomial
    sqrt(f (1-f) / n)."""
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        total = np.zeros(m)
        for a, l in zip(p.alphas, p.lambdas):
            total += l * _gamma_variates(rng, a, m)
        hits += int(np.count_nonzero(total <= x))
        done += m
    f = hits / n_samples
    se = math.sqrt(max(f * (1.0 - f), 1.0 / n_samples) / n_samples)
    return McResult(f, se, n_samples, seed)


def _cholesky_lower(mat, what):
    try:
        return np.linalg.cholesky(np.asarray(mat, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc


def mc_qform(sigma, c, x, n_samples=1000000, seed=0):
    """Monte Carlo CDF of the quadratic form z' C z, z ~ N(0, Sigma).

    Gaussian vectors come from the ziggurat normal generator through the
    Cholesky factor of Sigma; C is only checked for positive
    definiteness (also by Cholesky) so the simulated form matches the
    domain of the analytic route."""
    sigma = np.asarray(sigma, dtype=float)
    c = np.asarray(c, dtype=float)
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    l = _cholesky_lower(sigma, "sigma")
    _cholesky_lower(c, "c")
    rng = np.random.default_rng(seed)
    dim = sigma.shape[0]
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        z = rng.standard_normal((m, dim))
        xx = z @ l.T
        quad = ((xx @ c) * xx).sum(axis=1)
        hits += int(np.count_nonzero(quad <= x))
        done += m
    f = hits / n_samples
    se = math.sqrt(max(f * (1.0 - f), 1.0 / n_samples) / n_samples)
    return McResult(f, se, n_samples, seed)


def mc_mvgamma(alpha, sigma, xs, n_samples=1000000, seed=0):
    """Monte Carlo joint CDF of a multivariate gamma with half-integer
    resolution: requires 2 alpha to be a positive integer.

    Builds x_k = (1/2) sum_{i=1}^{2 alpha} Z_ik^2 from rows Z_i ~
    N(0, Sigma), the diagonal of a Wishart matrix, and counts the
    fraction of draws with every component at or below xs."""
    sigma = np.asarray(sigma, dtype=float)
    xs = np.asarray(xs, dtype=float)
    two_alpha = 2.0 * alpha
    df = int(round(two_alpha))
    if df < 1 or abs(two_alpha - df) > 1e-12:
        raise DomainError(
            f"mc_mvgamma requires 2 alpha to be a positive integer, got alpha={alpha!r}"
        )
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    l = _cholesky_lower(sigma, "sigma")
    rng = np.random.default_rng(seed)
    dim = sigma.shape[0]
    chunk = max(1, _CHUNK // df)
    hits = 0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        acc = np.zeros((m, dim))
        for _ in range(df):
            z = rng.standard_normal((m, dim)) @ l.T
            acc += z * z
        hits += int(np.count_nonzero((0.5 * acc <= xs).all(axis=1)))
        done += m
    f = hits / n_samples
    se = math.sqrt(max(f * (1.0 - f), 1.0 / n_samples) / n_samples)
    return McResult(f, se, n_samples, seed)
