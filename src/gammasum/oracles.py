"""Independent cross-checks: a power-series CDF and Monte Carlo estimators.

The series route expands prod_j (1 - c_j y)^-alpha_j around y = 0 and
pairs coefficient n with P(alpha_total + n, vx). It shares the
reparametrization with the quadrature route but none of the contour
machinery, so agreement between the two is a genuine two-route check.
The Monte Carlo estimators are the third route: direct simulation with
numpy's own gamma and normal samplers under a fixed seed, reported with
a standard error so tests can assert agreement at a stated number of
sigmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _paired_coefficients, derive_params
from .errors import DomainError, NotPositiveDefiniteError, _integer, _real
from .qform import _as_sym
from .special import reg_lower_gamma

# Simulation chunk height: keeps the working set to a few hundred MB at most.
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
    with power sums s_m = sum_j alpha_j c_j^m. The b_n change sign when
    some c_j < 0; the tail bound relies only on |b_n| <= beta_n, the
    coefficients of (1 - c_max y)^-alpha_total with c_max = max_j |c_j|.
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
        DomainError: if x or tol is not a finite number, or tol <= 0.
        ConvergenceError: if N would exceed the package's term cap.
    """
    x = _real(x, "x")
    tol = _real(tol, "tol")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if x < 0.0:
        return SeriesResult(0.0, 0, 0.0)
    d = derive_params(p)
    vx = d.v * x
    pref = math.exp(d.log_prefactor)
    if d.c_max_abs == 0.0:
        return SeriesResult(pref * reg_lower_gamma(d.alpha_total, vx), 1, 0.0)
    coeffs, tail = _paired_coefficients(d, vx, tol)
    b = series_coefficients(d, coeffs.size)
    return SeriesResult(pref * math.fsum((b * coeffs).tolist()), coeffs.size, tail)


def _mc_fraction(n_samples, seed, chunk, draw):
    """Fraction of n_samples simulated draws that land in an event.

    draw(rng, m) simulates m samples and returns one boolean per sample.
    It runs on consecutive chunks of at most chunk samples from one PCG64
    generator seeded with seed, so the estimate is deterministic for fixed
    (seed, n_samples). n_samples must be a positive integer and seed a
    nonnegative one (3.0 is accepted); anything else raises DomainError
    before the first draw.
    std_error is the binomial sqrt(f (1-f) / n), f (1-f) floored at 1/n.
    """
    n = _integer(n_samples, "n_samples", DomainError)
    if n < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    seed = _integer(seed, "seed", DomainError)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, n, chunk):
        hits += int(np.count_nonzero(draw(rng, min(chunk, n - done))))
    f = hits / n
    se = math.sqrt(max(f * (1.0 - f), 1.0 / n) / n)
    return McResult(f, se, n, seed)


def mc_cdf(p, x, n_samples=1000000, seed=0):
    """Monte Carlo CDF: the fraction of simulated sums at or below x.

    Gamma variates come from Generator.standard_gamma; the estimate is
    deterministic for fixed (seed, n_samples)."""
    x = _real(x, "x")

    def draw(rng, m):
        total = np.zeros(m)
        for a, l in zip(p.alphas, p.lambdas):
            total += l * rng.standard_gamma(a, m)
        return total <= x

    return _mc_fraction(n_samples, seed, _CHUNK, draw)


def _cholesky_lower(mat, what):
    try:
        return np.linalg.cholesky(mat.entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc


def mc_qform(sigma, c, x, n_samples=1000000, seed=0):
    """Monte Carlo CDF of the quadratic form z' C z, z ~ N(0, Sigma).

    Gaussian vectors come from the ziggurat normal generator through the
    Cholesky factor of Sigma. Sigma and C are checked as the analytic
    route checks them (symmetric, of one order, positive definite), so
    the simulated form has the same domain."""
    x = _real(x, "x")
    sigma = _as_sym(sigma)
    c = _as_sym(c)
    if sigma.dim != c.dim:
        raise DomainError(f"dimension mismatch: sigma is {sigma.dim}, c is {c.dim}")
    l = _cholesky_lower(sigma, "sigma")
    _cholesky_lower(c, "c")

    def draw(rng, m):
        xx = rng.standard_normal((m, sigma.dim)) @ l.T
        return ((xx @ c.entries) * xx).sum(axis=1) <= x

    return _mc_fraction(n_samples, seed, _CHUNK, draw)


def mc_mvgamma(alpha, sigma, xs, n_samples=1000000, seed=0):
    """Monte Carlo joint CDF of a multivariate gamma with half-integer
    resolution: requires 2 alpha to be a positive integer.

    Builds x_k = (1/2) sum_{i=1}^{2 alpha} Z_ik^2 from rows Z_i ~
    N(0, Sigma), the diagonal of a Wishart matrix, and counts the
    fraction of draws with every component at or below its xs entry."""
    sigma = _as_sym(sigma)
    xs = np.asarray(xs, dtype=object)
    if xs.shape != (sigma.dim,):
        raise DomainError(f"xs must have length {sigma.dim}, got shape {xs.shape}")
    xs = np.array([_real(x, "xs") for x in xs])
    two_alpha = 2.0 * _real(alpha, "alpha")
    df = round(two_alpha) if math.isfinite(two_alpha) else 0
    if df < 1 or abs(two_alpha - df) > 1e-12:
        raise DomainError(
            f"mc_mvgamma requires 2 alpha to be a positive integer, got alpha={alpha!r}"
        )
    l = _cholesky_lower(sigma, "sigma")

    def draw(rng, m):
        acc = np.zeros((m, sigma.dim))
        for _ in range(df):
            z = rng.standard_normal((m, sigma.dim)) @ l.T
            acc += z * z
        return (0.5 * acc <= xs).all(axis=1)

    return _mc_fraction(n_samples, seed, max(1, _CHUNK // df), draw)
