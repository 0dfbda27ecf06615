"""Joint CDF of a small-dimension multivariate gamma distribution.

The distribution with Laplace transform |I_p + Sigma T|^-alpha admits,
for x in the positive orthant, a p-fold coefficient-extraction integral:
with Sigma = V diag(w) V', v = (1/w_max + 1/w_min)/2 and
C = I_p - (v Sigma)^-1 (spectral norm below 1),

    F(x) = |v Sigma|^-alpha (2 pi)^-p Int_(-pi,pi)^p
               det(I_p - C Y^-1)^-alpha prod_k G(alpha; v x_k, y_k) dphi,

where y_k = r e^(i phi_k), Y = diag(y), and r is any common radius in
(|C|, 1). At C = 0 the integral factors into a product of univariate
gamma CDFs, which is how the tests pin the normalization (2 pi)^-p.

The determinant power needs a continuous branch of log det. Because
|C Y^-1| <= |C|/r < 1, the matrix I - C Y^-1 has a positive definite
Hermitian part; Gaussian elimination without pivoting keeps that
property in every Schur complement, so every pivot lies in the right
half-plane all along the path from C = 0, and the sum of the pivots'
principal logs is the branch that is 0 at C = 0. One elimination serves
every dimension; it checks each pivot at every grid point and raises
BranchTrackingError if one ever leaves the right half-plane.

The integrand has one evaluator, _grid_integrand, which takes a block
of grid points; every level of the tensor grid runs through it.

Practical dimension is p <= 3 (hard cap 4); per-axis node counts are
capped at 512, and non-convergence within that budget is reported as an
error rather than papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CdfEstimate, GammaSumParams, QuadratureConfig, derive_params
from .core import _doublings, _radius, _refine, _scaled_fsum
from .errors import (
    BranchTrackingError,
    ConfigError,
    DomainError,
    PrecisionError,
    _integer,
    _real,
)
from .genfun import _geometric_coefficients, _horner
from .qform import SymMatrix, _as_sym, _check_posdef, jacobi_eigen
from .special import reg_lower_gamma

HARD_DIM_CAP = 4
_AXIS_NODE_CAP = 512
_BLOCK = 16384  # grid points per block; bounds the working set to ~7 MB at p=3


@dataclass(frozen=True)
class MvGammaParams:
    """Shape alpha and positive definite p x p matrix parameter sigma.

    max_dim is the accepted dimension limit (default 3); it can be
    raised to the hard cap of 4 for experiments but no further.
    """

    alpha: float
    sigma: SymMatrix
    max_dim: int = 3

    def __post_init__(self):
        alpha = _real(self.alpha, "alpha")
        if not alpha > 0.0:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", _as_sym(self.sigma))
        max_dim = _integer(self.max_dim, "max_dim", DomainError)
        if not (1 <= max_dim <= HARD_DIM_CAP):
            raise DomainError(
                f"max_dim must be between 1 and {HARD_DIM_CAP}, got {self.max_dim!r}"
            )
        object.__setattr__(self, "max_dim", max_dim)
        if self.sigma.dim > max_dim:
            raise DomainError(
                f"dimension {self.sigma.dim} exceeds the limit {max_dim}"
            )

    @property
    def dim(self):
        return self.sigma.dim


@dataclass(frozen=True)
class MvDerived:
    """Reparametrized quantities of the p-variate integral.

    c_matrix = I - (v Sigma)^-1 with spectral norm
    (w_max - w_min)/(w_max + w_min) < 1 over Sigma's eigenvalues w.
    The shape alpha rides along because the integrand needs it.
    """

    alpha: float
    v: float
    c_matrix: SymMatrix
    spectral_norm_c: float
    log_prefactor: float


def existence_caveat(p):
    """Warning text when the parameters fall outside the set where the
    defining Laplace transform is known to be a distribution, else None.

    The safe set is 2 alpha a positive integer, or 2 alpha above
    floor((p - 1)/2). The formula is still evaluated outside it; the
    caveat is advisory."""
    two_alpha = 2.0 * p.alpha
    if abs(two_alpha - round(two_alpha)) <= 1e-12 and round(two_alpha) >= 1:
        return None
    if two_alpha > math.floor((p.dim - 1) / 2):
        return None
    return (
        f"2*alpha = {two_alpha:.6g} is neither a positive integer nor above "
        f"{math.floor((p.dim - 1) / 2)}; the joint distribution may not exist "
        "for this (alpha, dimension) pair"
    )


def mv_derive(p):
    """Eigendecompose sigma = V diag(w) V' with qform.jacobi_eigen (LAPACK's
    eigh); v, C's eigenvalues c, |C| and the prefactor are derive_params
    of the gamma sum with shapes (alpha,)*p and scales w, and
    C = V diag(c) V'. A spherical sigma = w I gives an exactly zero C,
    which mv_cdf turns into the closed product-of-marginals path."""
    w, vecs = jacobi_eigen(p.sigma)
    _check_posdef(w, p.sigma.dim, "sigma")
    d = derive_params(GammaSumParams((p.alpha,) * p.sigma.dim, tuple(w)))
    c = SymMatrix((vecs * d.c) @ vecs.T)
    return MvDerived(p.alpha, d.v, c, d.c_max_abs, d.log_prefactor)


def _logdet(a):
    """Continuous log det of the matrices I - C Y^-1 stacked in a, of
    shape (p, p, ...) with the stack along the trailing axes, by Gaussian
    elimination without pivoting. a is overwritten.

    A positive definite Hermitian part keeps every pivot in the right
    half-plane, which makes the sum of the pivots' principal logs the
    branch that is continuous from C = 0; a pivot with real part <= 0
    means the radius does not dominate |C| and is a branch-tracking
    failure."""
    log_abs = np.zeros(a.shape[2:])
    arg = np.zeros(a.shape[2:])
    for k in range(a.shape[0]):
        piv = a[k, k]
        if not (piv.real > 0.0).all():
            raise BranchTrackingError(
                "a pivot of I - C Y^-1 left the right half-plane; the radius "
                "does not dominate the spectral norm of C"
            )
        # Log by parts: numpy's complex log is ~5x slower than log|z| + angle
        log_abs += np.log(np.abs(piv))
        arg += np.angle(piv)
        a[k + 1 :, k + 1 :] -= a[k + 1 :, k, None] * (a[None, k, k + 1 :] / piv)
    return log_abs + 1j * arg


def _axis_coefficients(d, xs, r, tol):
    """Per-axis coefficients P(alpha+n, v x_k) of the G series at radius r.

    Each axis series is truncated once with a budget that keeps the total
    truncation effect below tol/10 after multiplication by the
    determinant bound (1 - |C|/r)^-(alpha p) and the worst-case magnitude
    1/(1 - r) of the other axes' series. They do not depend on the node
    count, so every refinement level reuses them.
    """
    p = d.c_matrix.dim
    pref = math.exp(d.log_prefactor)
    try:
        bound_det = (1.0 - d.spectral_norm_c / r) ** (-d.alpha * p)
    except OverflowError:
        raise PrecisionError(
            "the determinant bound (1 - |C|/r)^-(alpha p) of the truncation "
            "budget is not finite in double precision"
        ) from None
    bound_g = 1.0 / (1.0 - r)
    eps_axis = tol / (10.0 * p * pref * bound_det * bound_g ** (p - 1))
    return [_geometric_coefficients(d.alpha, d.v * x, r, eps_axis)[0] for x in xs]


def _grid_integrand(c, alpha, y, g):
    """The integrand det(I - C Y^-1)^-alpha prod_k G_k at m grid points.

    y is a (p, m) array whose column i holds the points y_k = r e^(i phi_k)
    of grid point i; g holds p rows of m values, row k the axis series
    G(alpha; v x_k, y_k) at those points. Complex; the real part survives
    integration."""
    gprod = g[0].copy()
    for k in range(1, len(g)):
        gprod *= g[k]
    a = c[:, :, None] / -y  # -C Y^-1, stack last
    for k in range(len(c)):
        a[k, k] += 1.0
    return np.exp(-alpha * _logdet(a)) * gprod


def _grid_value(d, coeffs, r, n):
    """One tensor-grid level: prefactor * n^-p * sum over the midpoint
    grid of the integrand, real part, blocks summed with math.fsum.
    coeffs are the axes' G-series coefficients from _axis_coefficients.
    """
    p = d.c_matrix.dim
    pref = math.exp(d.log_prefactor)
    phis = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    y_ax = r * np.exp(1j * phis)
    g_ax = [_horner(cf, y_ax) for cf in coeffs]
    shape = (n,) * p
    total_pts = n**p
    block_sums = []
    for start in range(0, total_pts, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total_pts))
        multi = np.stack(np.unravel_index(idx, shape))
        vals = _grid_integrand(
            d.c_matrix.entries, d.alpha, y_ax[multi],
            [g[i] for g, i in zip(g_ax, multi)],
        )
        block_sums.append(_scaled_fsum(1.0, vals.real.tolist(), "grid block"))
    return _scaled_fsum(pref, block_sums, "grid level") / total_pts


def mv_cdf(p, xs, cfg=None):
    """Joint CDF P{X_1 <= xs_1, ..., X_p <= xs_p}.

    Args:
        p: MvGammaParams.
        xs: length-p vector of thresholds; any nonpositive entry gives 0.
        cfg: optional QuadratureConfig; the per-axis node count doubles
            from cfg.n_start up to min(cfg.n_max, 512), which must allow
            at least one doubling.

    Returns:
        CdfEstimate whose nodes_used counts nodes per axis.

    Raises:
        ConfigError: if 2 cfg.n_start exceeds min(cfg.n_max, 512).
        ConvergenceError: when levels do not stabilize within the node
            cap (carries the last estimate).
        DomainError: if xs is not a length-p vector of finite numbers.
    """
    cfg = QuadratureConfig() if cfg is None else cfg
    n_cap = min(cfg.n_max, _AXIS_NODE_CAP)
    if 2 * cfg.n_start > n_cap:
        raise ConfigError(
            f"n_start = {cfg.n_start} allows no doubling within {n_cap} "
            "nodes per axis"
        )
    xs = tuple(_real(x, "xs") for x in np.atleast_1d(np.asarray(xs, dtype=object)))
    if len(xs) != p.dim:
        raise DomainError(f"xs must have length {p.dim}, got {len(xs)}")
    d = mv_derive(p)
    r = _radius(d.spectral_norm_c, cfg)
    if min(xs) <= 0.0:
        return CdfEstimate(0.0, 0.0, 0.0, 0, r)
    if d.spectral_norm_c == 0.0:
        val = 1.0
        for x in xs:
            val *= reg_lower_gamma(p.alpha, d.v * x)
        return CdfEstimate(val, val, 0.0, 0, r)
    coeffs = _axis_coefficients(d, xs, r, cfg.tol)
    levels = (
        (n, _grid_value(d, coeffs, r, n)) for n in _doublings(cfg.n_start, n_cap)
    )
    return _refine(
        levels,
        r,
        cfg.tol,
        f"tensor quadrature did not reach tol={cfg.tol:.3g} within "
        f"{n_cap} nodes per axis",
    )
