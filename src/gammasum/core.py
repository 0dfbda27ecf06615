"""CDF of a sum of independent gamma variables with distinct scales.

For S = sum_j lambda_j X_j with X_j ~ Gamma(alpha_j, 1), the CDF admits a
single-integral representation. With v = (1/lambda_max + 1/lambda_min)/2,
c_j = 1 - 1/(v lambda_j) (all |c_j| < 1), and alpha = sum_j alpha_j:

    F(x) = K * (1/pi) * Int_0^pi Re[ prod_j (1 - c_j r^-1 e^-(i phi))^-alpha_j
                                      * G(alpha; vx, r e^(i phi)) ] dphi

where K = v^-alpha prod_j lambda_j^-alpha_j, G is the generating series of
gamma CDFs (see genfun), and r is any radius with max_j |c_j| < r < 1.
The integral extracts the diagonal pairing of two power series on the
circle of radius r: the Taylor coefficients b_n of
prod_j (1 - c_j z)^-alpha_j against the gamma tail weights P(alpha+n, vx).
The real part applies to the entire product; equispaced quadrature then
picks out exactly sum_n b_n P(alpha+n, vx), which makes results
independent of the choice of r. That r-invariance is the strongest
testable property of the method and is exercised in the test suite.

The coefficients P(alpha+n, vx) come from the kernel of genfun under the
paired-series bound of _paired_coefficients, which the series route of
oracles shares.

The integrand extends to a 2 pi periodic analytic function of phi, so the
midpoint rule converges geometrically; node doubling supplies a two-level
error estimate (_refine, shared with mvgamma). Node values within a level
are summed with math.fsum so results are deterministic and exactly
rounded for a given node count.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .genfun import _gamma_tail_coefficients, _geometric_coefficients, _horner
from .special import reg_lower_gamma

_log = logging.getLogger("gammasum.core")


@dataclass(frozen=True)
class GammaSumParams:
    """Shape/scale parameter vectors of the summands.

    alphas[j] is the shape and lambdas[j] the scale of the j-th gamma
    variable. Both sequences must have equal length k >= 1 with every
    entry strictly positive and finite.
    """

    alphas: tuple
    lambdas: tuple

    def __post_init__(self):
        try:
            alphas = tuple(float(a) for a in self.alphas)
            lambdas = tuple(float(l) for l in self.lambdas)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"parameters must be numeric: {exc}") from exc
        if len(alphas) == 0 or len(alphas) != len(lambdas):
            raise DomainError(
                "alphas and lambdas must have equal nonzero length, got "
                f"{len(alphas)} and {len(lambdas)}"
            )
        for a in alphas:
            if not (a > 0.0) or not math.isfinite(a):
                raise DomainError(f"shapes must be positive and finite, got {a!r}")
        for l in lambdas:
            if not (l > 0.0) or not math.isfinite(l):
                raise DomainError(f"scales must be positive and finite, got {l!r}")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def k(self):
        return len(self.alphas)


@dataclass(frozen=True)
class DerivedParams:
    """Reparametrized quantities shared by the integral and series routes.

    v           = (1/lambda_max + 1/lambda_min) / 2
    c[j]        = 1 - 1/(v lambda_j), each in (-1, 1)
    alpha_total = sum of shapes
    c_max_abs   = max_j |c_j| = (lambda_max - lambda_min)/(lambda_max + lambda_min)
    log_prefactor = -alpha_total ln v - sum_j alpha_j ln lambda_j

    The shape vector is carried along because the integrand needs the
    individual alpha_j, not only their sum.
    """

    alphas: tuple
    v: float
    c: tuple
    alpha_total: float
    c_max_abs: float
    log_prefactor: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature controls: contour radius, node schedule, and tolerance.

    r=None selects the radius automatically (midpoint of the admissible
    interval). n doubles from n_start until the two-level difference is
    below tol or n_max is reached. tol bounds the quadrature refinement
    difference on the probability scale; series truncations inside the
    integrand run at tol/10 so the budget splits 10:1.
    """

    r: float | None = None
    n_start: int = 16
    n_max: int = 65536
    tol: float = 1e-10

    def __post_init__(self):
        if self.r is not None:
            r = float(self.r)
            if not (0.0 < r < 1.0):
                raise ConfigError(f"r must lie in (0, 1) or be None, got {self.r!r}")
            object.__setattr__(self, "r", r)
        n_start = int(self.n_start)
        n_max = int(self.n_max)
        if n_start < 1:
            raise ConfigError(f"n_start must be >= 1, got {self.n_start!r}")
        if n_max < 2 * n_start:
            raise ConfigError("n_max must allow at least one doubling of n_start")
        object.__setattr__(self, "n_start", n_start)
        object.__setattr__(self, "n_max", n_max)
        tol = float(self.tol)
        if not (tol > 0.0) or not math.isfinite(tol):
            raise ConfigError(f"tol must be positive and finite, got {self.tol!r}")
        object.__setattr__(self, "tol", tol)


@dataclass(frozen=True)
class CdfEstimate:
    """A CDF value with its quadrature diagnostics.

    value is clamped to [0, 1]; raw_value keeps the unclamped quadrature
    result. err_estimate is the absolute difference between the last two
    refinement levels (0.0 when an exact closed-form path was taken).
    nodes_used is the node count of the final level (0 for exact paths).
    """

    value: float
    raw_value: float
    err_estimate: float
    nodes_used: int
    r_used: float


def derive_params(p):
    """Compute the reparametrization of a GammaSumParams.

    Equal-scale inputs (including k = 1) produce v = 1/lambda and an
    exactly zero c vector, which downstream code uses as an exact
    short-circuit."""
    lmax = max(p.lambdas)
    lmin = min(p.lambdas)
    alpha_total = math.fsum(p.alphas)
    if lmax == lmin:
        v = 1.0 / lmax
        c = (0.0,) * p.k
        c_max = 0.0
    else:
        v = 0.5 * (1.0 / lmax + 1.0 / lmin)
        c = tuple(1.0 - 1.0 / (v * l) for l in p.lambdas)
        c_max = max(abs(cj) for cj in c)
    log_pref = -alpha_total * math.log(v) - math.fsum(
        a * math.log(l) for a, l in zip(p.alphas, p.lambdas)
    )
    return DerivedParams(p.alphas, v, c, alpha_total, c_max, log_pref)


def _radius(c_norm, cfg):
    """Resolve the contour radius: the midpoint (1 + c_norm)/2 when auto,
    otherwise the configured value after validating c_norm < r < 1."""
    if cfg.r is None:
        return 0.5 * (1.0 + c_norm)
    if not (c_norm < cfg.r < 1.0):
        raise ConfigError(
            f"r = {cfg.r!r} outside the admissible interval "
            f"({c_norm:.6g}, 1)"
        )
    return cfg.r


def choose_r(d, cfg):
    """Resolve the contour radius of a gamma sum (see _radius)."""
    return _radius(d.c_max_abs, cfg)


def integrand(phi, x, d, r, tol=1e-10):
    """Pointwise integrand Re[ prod_j (1 - c_j r^-1 e^-(i phi))^-alpha_j
    * G(alpha_total; vx, r e^(i phi)) ].

    The real part is taken of the whole product: the diagonal pairing of
    the two series demands it, and taking it factor-by-factor would break
    the r-invariance of the integral.
    """
    if not (d.c_max_abs < r < 1.0):
        raise ConfigError(f"r = {r!r} outside ({d.c_max_abs:.6g}, 1)")
    if not math.isfinite(phi):
        raise DomainError("integrand requires finite phi")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"integrand requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    coeffs, _ = _geometric_coefficients(d.alpha_total, d.v * x, r, tol)
    g = complex(_horner(coeffs, np.array([r * cmath.exp(1j * phi)]))[0])
    w = cmath.exp(-1j * phi) / r
    logprod = 0.0 + 0.0j
    for aj, cj in zip(d.alphas, d.c):
        logprod -= aj * cmath.log(1.0 - cj * w)
    return (cmath.exp(logprod) * g).real


def _paired_coefficients(d, vx, tol):
    """Gamma CDF coefficients truncated by the paired-series bound.

    Both the quadrature and the series route compute
    prefactor * sum_n b_n P(alpha+n, vx), with |b_n| dominated by the
    coefficients beta_n of (1 - c_max z)^-alpha_total. Truncating the
    P sequence at N therefore changes the value by at most

        prefactor * beta_N * P(alpha+N, vx) / (1 - q_N),

    q_N = c_max max(1, (alpha+N)/(N+1)) bounding the beta ratio past N.
    While q_N >= 1 the cruder prefactor * (1 - c_max)^-alpha_total
    * P(alpha+N, vx), from sum_n beta_n = (1 - c_max)^-alpha_total,
    stands in. The bound does not depend on r, so one coefficient array
    serves every node and every level. Returns the coefficients and the
    bound at N, which is below tol.
    """
    atot = d.alpha_total
    cmax = d.c_max_abs
    crude = d.log_prefactor - atot * math.log1p(-cmax)

    def log_weight(n):
        log_beta = np.log(cmax * (atot + n - 1.0) / n).cumsum()
        q = cmax * np.maximum(1.0, (atot + n) / (n + 1.0))
        ok = q < 1.0
        paired = d.log_prefactor + log_beta - np.log1p(-np.where(ok, q, 0.0))
        return np.where(ok, paired, crude)

    return _gamma_tail_coefficients(atot, vx, log_weight, tol)


def _level_value(n, r, pref, alphas, cs, coeffs):
    """One midpoint-rule level: pref * (1/n) sum_m f(phi_m) with
    phi_m = (m - 1/2) pi / n, summed by math.fsum in index order."""
    phis = (np.arange(n) + 0.5) * (math.pi / n)
    w = np.exp(-1j * phis) / r
    logprod = -(alphas[:, None] * np.log(1.0 - cs[:, None] * w[None, :])).sum(axis=0)
    g = _horner(coeffs, r * np.exp(1j * phis))
    vals = (np.exp(logprod) * g).real
    return pref * math.fsum(vals.tolist()) / n


def _refinement_levels(d, x, r, cfg):
    """Yield (n, level value) for n = n_start, 2 n_start, ... up to n_max."""
    coeffs, _ = _paired_coefficients(d, d.v * x, 0.1 * cfg.tol)
    pref = math.exp(d.log_prefactor)
    alphas = np.asarray(d.alphas)
    cs = np.asarray(d.c)
    _log.debug(
        "levels: k=%d alpha_total=%.6g c_max=%.6g r=%.6g coeffs=%d",
        len(d.alphas), d.alpha_total, d.c_max_abs, r, len(coeffs),
    )
    for n in _doublings(cfg.n_start, cfg.n_max):
        yield n, _level_value(n, r, pref, alphas, cs, coeffs)


def _doublings(n_start, n_cap):
    """n_start, 2 n_start, 4 n_start, ... up to n_cap."""
    n = n_start
    while n <= n_cap:
        yield n
        n *= 2


def _refine(levels, r, tol, failure):
    """Two-level stop: the first (n, value) level within tol of the one
    before, as a CdfEstimate; if none, ConvergenceError(failure) carrying
    the last level."""
    prev = None
    err = math.inf
    n_last = 0
    for n, val in levels:
        if prev is not None:
            err = abs(val - prev)
            if err <= tol:
                return CdfEstimate(min(1.0, max(0.0, val)), val, err, n, r)
        prev = val
        n_last = n
    est = CdfEstimate(min(1.0, max(0.0, prev)), prev, err, n_last, r)
    raise ConvergenceError(failure, estimate=est)


def cdf(p, x, cfg=None):
    """CDF of sum_j lambda_j Gamma(alpha_j, 1) at x.

    Args:
        p: GammaSumParams.
        x: finite real evaluation point; x <= 0 returns 0 exactly.
        cfg: optional QuadratureConfig.

    Returns:
        CdfEstimate. Equal-scale inputs (k = 1 included) short-circuit to
        reg_lower_gamma(alpha_total, x / lambda) with zero error estimate.

    Raises:
        ConvergenceError: if n_max is reached before the two-level
            difference drops below cfg.tol; the error carries the last
            estimate in its ``estimate`` attribute.
    """
    cfg = QuadratureConfig() if cfg is None else cfg
    if not math.isfinite(x):
        raise DomainError(f"cdf requires finite x, got {x!r}")
    d = derive_params(p)
    r = choose_r(d, cfg)
    if x <= 0.0:
        return CdfEstimate(0.0, 0.0, 0.0, 0, r)
    if d.c_max_abs == 0.0:
        val = reg_lower_gamma(d.alpha_total, x / p.lambdas[0])
        return CdfEstimate(val, val, 0.0, 0, r)
    return _refine(
        _refinement_levels(d, x, r, cfg),
        r,
        cfg.tol,
        f"quadrature did not reach tol={cfg.tol:.3g} within n_max={cfg.n_max}",
    )


def quantile(p, prob, cfg=None):
    """Inverse CDF: the x with |cdf(x) - prob| <= 1e-8.

    Brackets [0, upper] by doubling upper from the distribution mean
    until the CDF exceeds prob, then bisects. Probabilities so extreme
    that the quadrature tolerance cannot separate them from 0 or 1 raise
    ConvergenceError rather than returning a sham root.
    """
    if not (0.0 < prob < 1.0):
        raise DomainError(f"quantile requires 0 < prob < 1, got {prob!r}")
    cfg = QuadratureConfig() if cfg is None else cfg
    upper = math.fsum(a * l for a, l in zip(p.alphas, p.lambdas))
    for _ in range(200):
        if cdf(p, upper, cfg).value > prob:
            break
        upper *= 2.0
    else:
        raise ConvergenceError("quantile bracket did not capture prob")
    lo, hi = 0.0, upper
    best = upper
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = cdf(p, mid, cfg).value
        if abs(f - prob) <= 1e-8:
            return mid
        if f < prob:
            lo = mid
        else:
            hi = mid
        best = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    raise ConvergenceError(
        "bisection could not pin the quantile to 1e-8; the requested "
        "probability is beyond the quadrature resolution",
        estimate=best,
    )
