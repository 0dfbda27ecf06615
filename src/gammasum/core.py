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

The integrand has one evaluator, _integrand_values, which takes an array
of angles; the quadrature calls it once per level and the tests probe it
at single angles. It extends to a 2 pi periodic analytic function of
phi, so the midpoint rule converges geometrically; node doubling
supplies a two-level error estimate (_refine, shared with mvgamma). Node
values within a level are summed with math.fsum so results are
deterministic and exactly rounded for a given node count.

The density rides on the same nodes. Differentiating term by term gives
F'(x) = K v sum_n b_n t(alpha+n, vx) with t the gamma density, and
t(alpha+n, y) = P(alpha+n-1, y) - P(alpha+n, y) for n >= 1. With
B(w) = prod_j (1 - c_j w)^-alpha_j = sum_n b_n w^n, pairing b_n with
P(alpha+n-1, vx) is the constant term of z B(1/z) G(z), so with b_0 = 1

    F'(x) = K v [ (1/pi) Int_0^pi Re[ prod_j (...)^-alpha_j G(z) (z - 1) ] dphi
                  + P(alpha, vx) + t(alpha, vx) ],   z = r e^(i phi).

_estimate, the evaluator behind cdf and quantile, takes this density
from the level the stop accepts; quantile's Newton steps use it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ConfigError, ConvergenceError, DomainError, PrecisionError, _integer, _real,
)
from .genfun import _gamma_tail_coefficients, _horner
from .special import gamma_pdf, reg_lower_gamma

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
            alphas = tuple(_real(a, "shapes") for a in self.alphas)
            lambdas = tuple(_real(l, "scales") for l in self.lambdas)
        except TypeError as exc:
            raise DomainError(f"parameters must be sequences: {exc}") from exc
        if len(alphas) == 0 or len(alphas) != len(lambdas):
            raise DomainError(
                "alphas and lambdas must have equal nonzero length, got "
                f"{len(alphas)} and {len(lambdas)}"
            )
        for a in alphas:
            if not a > 0.0:
                raise DomainError(f"shapes must be positive and finite, got {a!r}")
        for l in lambdas:
            if not l > 0.0:
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
            r = _real(self.r, "r", ConfigError)
            if not (0.0 < r < 1.0):
                raise ConfigError(f"r must lie in (0, 1) or be None, got {r!r}")
            object.__setattr__(self, "r", r)
        n_start = _integer(self.n_start, "n_start", ConfigError)
        n_max = _integer(self.n_max, "n_max", ConfigError)
        if n_start < 1:
            raise ConfigError(f"n_start must be >= 1, got {self.n_start!r}")
        if n_max < 2 * n_start:
            raise ConfigError("n_max must allow at least one doubling of n_start")
        object.__setattr__(self, "n_start", n_start)
        object.__setattr__(self, "n_max", n_max)
        tol = _real(self.tol, "tol", ConfigError)
        if not tol > 0.0:
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


def _integrand_values(phis, r, alphas, cs, coeffs):
    """The complex integrand prod_j (1 - c_j r^-1 e^-(i phi))^-alpha_j
    * G(alpha_total; vx, r e^(i phi)) at an array of angles phis, with
    G summed by Horner's rule from its coefficients P(alpha_total+n, vx).

    The CDF integrates its real part. The real part is taken of the whole
    product: the diagonal pairing of the two series demands it, and
    taking it factor-by-factor would break the r-invariance of the
    integral.
    """
    w = np.exp(-1j * phis) / r
    logprod = -(alphas[:, None] * np.log(1.0 - cs[:, None] * w[None, :])).sum(axis=0)
    g = _horner(coeffs, r * np.exp(1j * phis))
    return np.exp(logprod) * g


def _refinement_levels(d, x, r, cfg, density=None):
    """Yield (n, level value) for n = n_start, 2 n_start, ... up to n_max.

    A level is the midpoint rule pref * (1/n) sum_m Re f(phi_m) with
    phi_m = (m - 1/2) pi / n, summed by math.fsum in index order. When a
    one-slot list density is passed, each level puts in it, before it is
    yielded, a zero-argument callable that computes the density at x on
    the level's nodes (the pairing identity of the module docstring);
    only a caller that calls it pays for it.
    """
    vx = d.v * x
    coeffs, _ = _paired_coefficients(d, vx, 0.1 * cfg.tol)
    pref = math.exp(d.log_prefactor)
    alphas = np.asarray(d.alphas)
    cs = np.asarray(d.c)
    _log.debug(
        "levels: k=%d alpha_total=%.6g c_max=%.6g r=%.6g coeffs=%d",
        len(d.alphas), d.alpha_total, d.c_max_abs, r, len(coeffs),
    )
    for n in _doublings(cfg.n_start, cfg.n_max):
        phis = (np.arange(n) + 0.5) * (math.pi / n)
        f = _integrand_values(phis, r, alphas, cs, coeffs)
        if density is not None:
            density[0] = partial(_level_density, d, vx, r, pref, coeffs, phis, f)
        yield n, _scaled_fsum(pref, f.real.tolist(), "quadrature level") / n


def _scaled_fsum(scale, terms, what):
    """scale * math.fsum(terms), the finished sum of a route, checked once:
    where it is not a finite double (a partial sum that overflows, inf -
    inf or NaN among the terms, an overflowing product) the total shape
    is beyond double precision and PrecisionError names what."""
    try:
        total = scale * math.fsum(terms)
    except (OverflowError, ValueError):  # fsum's overflow and inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise PrecisionError(f"{what} is not finite in double precision")
    return total


def _level_density(d, vx, r, pref, coeffs, phis, f):
    """v pref [mean_m Re f_m (z_m - 1) + P(alpha, vx) + t(alpha, vx)] on
    one level's nodes z_m = r e^(i phi_m), where f holds the integrand
    values; P(alpha, vx) is coeffs[0], the n = 0 term paired with b_0 = 1."""
    z = r * np.exp(1j * phis)
    pairing = float((f * (z - 1.0)).real.mean())
    return d.v * pref * (pairing + float(coeffs[0]) + _gamma_density(d.alpha_total, vx))


def _gamma_density(a, y):
    """gamma_pdf(a, y), or infinity where the density diverges at y = 0
    or overflows next to it (shapes below 1)."""
    try:
        return gamma_pdf(a, y)
    except (DomainError, PrecisionError):
        return math.inf


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


def _estimate(p, x, cfg):
    """The evaluator behind cdf and quantile: (CdfEstimate, density) at x.

    density is a zero-argument callable, so cdf, which never calls it,
    pays nothing for it. It computes the density on the level that
    _refine accepts (see _refinement_levels); on the equal-scale path it
    is gamma_pdf(alpha_total, x / lambda) / lambda, and 0 for x <= 0. It
    steers quantile's Newton steps and is never returned by the public
    API, so it carries no certificate of its own.
    """
    x = _real(x, "x")
    d = derive_params(p)
    r = _radius(d.c_max_abs, cfg)
    if x <= 0.0:
        return CdfEstimate(0.0, 0.0, 0.0, 0, r), lambda: 0.0
    if d.c_max_abs == 0.0:
        lam = p.lambdas[0]
        val = reg_lower_gamma(d.alpha_total, x / lam)
        return CdfEstimate(val, val, 0.0, 0, r), (
            lambda: _gamma_density(d.alpha_total, x / lam) / lam
        )
    density = [None]
    est = _refine(
        _refinement_levels(d, x, r, cfg, density),
        r,
        cfg.tol,
        f"quadrature did not reach tol={cfg.tol:.3g} within n_max={cfg.n_max}",
    )
    return est, density[0]


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
    return _estimate(p, x, QuadratureConfig() if cfg is None else cfg)[0]


def _quantile(p, prob, cfg):
    """quantile's root and the CdfEstimate at it, as (x, estimate)."""
    prob = _real(prob, "prob")
    if not (0.0 < prob < 1.0):
        raise DomainError(f"quantile requires 0 < prob < 1, got {prob!r}")
    cfg = QuadratureConfig() if cfg is None else cfg
    x = math.fsum(a * l for a, l in zip(p.alphas, p.lambdas))
    lo, hi = 0.0, math.inf
    for _ in range(200):
        est, density = _estimate(p, x, cfg)
        f = est.value
        if abs(f - prob) <= 1e-8:
            return x, est
        if f < prob:
            lo = x
        else:
            hi = x
        if hi - lo <= 1e-15 * hi < math.inf:  # inf <= inf would stop at once
            break
        slope = density()
        if not (0.0 < slope < math.inf and f < 1.0):
            step = math.nan
        elif prob > 0.5:
            # Newton on log(1 - F), nearly linear in an exponential tail
            step = x + (1.0 - f) * math.log((1.0 - f) / (1.0 - prob)) / slope
        else:
            step = x + (prob - f) / slope
        cap = 2.0 * x if hi == math.inf else hi
        if lo < step < cap:
            x = step
        elif hi == math.inf:
            x = cap
        else:
            x = 0.5 * (lo + hi)
    raise ConvergenceError(
        "Newton iteration could not pin the quantile to 1e-8; the requested "
        "probability is beyond the quadrature resolution",
        estimate=x,
    )


def quantile(p, prob, cfg=None):
    """Inverse CDF: the x with |cdf(x) - prob| <= 1e-8, as a float.

    Safeguarded Newton iteration from the distribution mean. Each step
    costs one evaluation of the quadrature, which yields the CDF value
    and the density (see the module docstring). For prob > 1/2 Newton
    runs on log(1 - F), which is nearly linear in an exponential tail.
    A bracket [lo, hi], with hi infinite until some CDF value exceeds
    prob, holds every iterate: a step that leaves it, that more than
    doubles x while hi is infinite, or that comes from a density that is
    not finite and positive becomes a doubling of x (no hi yet) or a
    bisection of the bracket. The stop tests the certified CDF value;
    the density only steers. The bracket counts as collapsed once its
    width is 1e-15 of hi, so roots far below 1e-15 are still found.
    Probabilities so extreme that the quadrature cannot separate them
    from 0 or 1 collapse the bracket or use up the 200 steps, and raise
    ConvergenceError carrying the last iterate, rather than returning a
    sham root.
    """
    return _quantile(p, prob, cfg)[0]
