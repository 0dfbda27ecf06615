"""Joint CDF of a small-dimension multivariate gamma distribution.

The distribution with Laplace transform |I_p + Sigma T|^-alpha admits,
for x in the positive orthant, a p-fold coefficient-extraction integral:
with Sigma = V diag(w) V', v = (1/w_max + 1/w_min)/2 and
C = I_p - (v Sigma)^-1 (spectral norm below 1),

    F(x) = |v Sigma|^-alpha (2 pi)^-p Int_(-pi,pi)^p
               det(I_p - C Y^-1)^-alpha prod_k G(alpha; v x_k, y_k) dphi,

where y_k = r e^(i phi_k), Y = diag(y), and r is any common radius in
(|C|, 1). The normalization (2 pi)^-p is pinned empirically by a
once-per-process self-test on the C = 0 case, where the integral must
factor into a product of univariate gamma CDFs exactly.

The determinant power needs a continuous branch of log det. Because
every eigenvalue mu of C Y^-1 satisfies |mu| <= |C|/r < 1, each factor
1 - mu stays in the right half-plane and the sum of principal logs is
already continuous; the code still cross-checks that branch choice
against an independently computed determinant at every evaluation and
raises BranchTrackingError on any mismatch.

Practical dimension is p <= 3 (hard cap 4); per-axis node counts are
capped at 512, and non-convergence within that budget is reported as an
error rather than papered over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import CdfEstimate, QuadratureConfig, _doublings, _radius, _refine
from .errors import (
    BranchTrackingError,
    ConfigError,
    DomainError,
    NormalizationError,
)
from .genfun import _geometric_coefficients, _horner, g_eval
from .qform import SymMatrix, _as_sym, _check_posdef, jacobi_eigen
from .special import reg_lower_gamma

HARD_DIM_CAP = 4
_AXIS_NODE_CAP = 512
_BLOCK = 65536
_DET_MATCH_RTOL = 1e-8


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
        alpha = float(self.alpha)
        if not (alpha > 0.0) or not math.isfinite(alpha):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", _as_sym(self.sigma))
        max_dim = int(self.max_dim)
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
    """Eigendecompose sigma and build the reparametrization.

    A spherical sigma = w I produces an exactly zero C matrix, which
    mv_cdf turns into the closed product-of-marginals path."""
    dec = jacobi_eigen(p.sigma)
    _check_posdef(dec.values, p.sigma.dim, "sigma")
    w = dec.values
    wmin = float(w[0])
    wmax = float(w[-1])
    dim = p.sigma.dim
    if wmax == wmin:
        v = 1.0 / wmax
        c = SymMatrix(np.zeros((dim, dim)))
        norm = 0.0
    else:
        v = 0.5 * (1.0 / wmax + 1.0 / wmin)
        cd = 1.0 - 1.0 / (v * w)
        cm = (dec.vectors * cd) @ dec.vectors.T
        c = SymMatrix(0.5 * (cm + cm.T))
        norm = float(np.abs(cd).max())
    log_pref = -p.alpha * dim * math.log(v) - p.alpha * math.fsum(
        math.log(wi) for wi in w
    )
    return MvDerived(p.alpha, v, c, norm, log_pref)


def _logdet_factors(mu, det_direct):
    """Continuous log det(I - B) from eigenvalues mu of B, checked
    against an independently computed determinant.

    Every |mu| must be below one (guaranteed while r exceeds |C|), which
    pins each 1 - mu to the right half-plane and makes the principal-log
    sum the continuous branch; any violation or determinant mismatch is
    a branch-tracking failure."""
    mu = np.asarray(mu)
    if float(np.abs(mu).max()) >= 1.0:
        raise BranchTrackingError(
            "an eigenvalue of C Y^-1 reached the unit circle; the radius "
            "does not dominate the spectral norm of C"
        )
    logdet = np.log(1.0 - mu).sum(axis=-1)
    mismatch = np.abs(np.exp(logdet) - det_direct)
    if float(mismatch.max()) > _DET_MATCH_RTOL * float(np.abs(det_direct).max()):
        raise BranchTrackingError(
            "log-determinant branch disagrees with the pivoted determinant"
        )
    return logdet


def mv_integrand(phis, xs, d, r, tol=1e-10):
    """Pointwise integrand det(I - C Y^-1)^-alpha prod_k G(alpha; v x_k, y_k)
    at y_k = r e^(i phi_k). Complex; the real part survives integration."""
    phis = np.asarray(phis, dtype=float)
    xs = np.asarray(xs, dtype=float)
    p = d.c_matrix.dim
    if phis.shape != (p,) or xs.shape != (p,):
        raise DomainError(f"phis and xs must be length-{p} vectors")
    if not np.isfinite(phis).all() or np.abs(phis).max() > math.pi:
        raise DomainError("phis must be finite angles in [-pi, pi]")
    if not np.isfinite(xs).all() or xs.min() < 0.0:
        raise DomainError("xs must be finite and nonnegative")
    if not (d.spectral_norm_c < r < 1.0):
        raise ConfigError(f"r = {r!r} outside ({d.spectral_norm_c:.6g}, 1)")
    y = r * np.exp(1j * phis)
    b = d.c_matrix.entries / y[None, :]
    mu = np.linalg.eigvals(b)
    logdet = complex(_logdet_factors(mu, np.linalg.det(np.eye(p) - b)))
    g = 1.0 + 0.0j
    for k in range(p):
        g *= g_eval(d.alpha, d.v * xs[k], complex(y[k]), tol)
    return cmath.exp(-d.alpha * logdet) * g


def _grid_value(d, xs, r, n, tol):
    """One tensor-grid level: prefactor * n^-p * sum over the midpoint
    grid of the integrand, real part, blocks summed with math.fsum.

    Per-axis G series are truncated once at radius r with a budget that
    keeps the total truncation effect below tol/10 after multiplication
    by the determinant bound (1 - |C|/r)^-(alpha p) and the worst-case
    magnitude 1/(1 - r) of the other axes' series.
    """
    p = d.c_matrix.dim
    alpha = d.alpha
    pref = math.exp(d.log_prefactor)
    bound_det = (1.0 - d.spectral_norm_c / r) ** (-alpha * p)
    bound_g = 1.0 / (1.0 - r)
    eps_axis = tol / (10.0 * p * pref * bound_det * bound_g ** (p - 1))
    phis = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    y_ax = r * np.exp(1j * phis)
    g_ax = [
        _horner(_geometric_coefficients(alpha, d.v * x, r, eps_axis)[0], y_ax)
        for x in xs
    ]
    c = d.c_matrix.entries
    shape = (n,) * p
    total_pts = n**p
    block_sums = []
    for start in range(0, total_pts, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total_pts))
        multi = np.unravel_index(idx, shape)
        yb = y_ax[np.stack(multi, axis=1)]
        gprod = g_ax[0][multi[0]].copy()
        for k in range(1, p):
            gprod *= g_ax[k][multi[k]]
        if p == 1:
            mu = (c[0, 0] / yb[:, 0])[:, None]
            det_direct = 1.0 - mu[:, 0]
        elif p == 2:
            tr = c[0, 0] / yb[:, 0] + c[1, 1] / yb[:, 1]
            detb = (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / (yb[:, 0] * yb[:, 1])
            disc = np.sqrt(tr * tr - 4.0 * detb)
            mu = np.stack([0.5 * (tr + disc), 0.5 * (tr - disc)], axis=1)
            det_direct = 1.0 - tr + detb
        else:
            bb = c[None, :, :] / yb[:, None, :]
            mu = np.linalg.eigvals(bb)
            det_direct = np.linalg.det(np.eye(p)[None, :, :] - bb)
        logdet = _logdet_factors(mu, det_direct)
        vals = np.exp(-alpha * logdet) * gprod
        block_sums.append(math.fsum(vals.real.tolist()))
    return pref * math.fsum(block_sums) / total_pts


_NORMALIZATION_STATE = {"checked": False}


def _ensure_normalization():
    """Once per process, pin the grid normalization on a factorizable case.

    With C = 0 the integral must reproduce P(a, x_1) P(a, x_2) through
    the full quadrature path (only the leading coefficient of each axis
    series survives). A mismatch beyond 1e-8 means the constant in front
    of the grid sum is wrong, and every subsequent result would be
    silently scaled; that is promoted to NormalizationError."""
    if _NORMALIZATION_STATE["checked"]:
        if _NORMALIZATION_STATE.get("error") is not None:
            raise NormalizationError(_NORMALIZATION_STATE["error"])
        return
    a = 1.3
    xs = (0.8, 1.7)
    d = MvDerived(a, 1.0, SymMatrix(np.zeros((2, 2))), 0.0, 0.0)
    got = _grid_value(d, xs, 0.5, 32, 1e-12)
    want = reg_lower_gamma(a, xs[0]) * reg_lower_gamma(a, xs[1])
    _NORMALIZATION_STATE["checked"] = True
    if abs(got - want) > 1e-8:
        _NORMALIZATION_STATE["error"] = (
            f"grid normalization self-test failed: {got!r} vs {want!r}"
        )
        raise NormalizationError(_NORMALIZATION_STATE["error"])
    _NORMALIZATION_STATE["error"] = None


def mv_cdf(p, xs, cfg=None):
    """Joint CDF P{X_1 <= xs_1, ..., X_p <= xs_p}.

    Args:
        p: MvGammaParams.
        xs: length-p vector of thresholds; any nonpositive entry gives 0.
        cfg: optional QuadratureConfig; the per-axis node count doubles
            from cfg.n_start up to min(cfg.n_max, 512).

    Returns:
        CdfEstimate whose nodes_used counts nodes per axis.

    Raises:
        ConvergenceError: when levels do not stabilize within the node
            cap (carries the last estimate).
        NormalizationError: if the once-per-process C = 0 self-test of
            the grid constant fails.
    """
    cfg = QuadratureConfig() if cfg is None else cfg
    xs = tuple(float(x) for x in xs)
    if len(xs) != p.dim:
        raise DomainError(f"xs must have length {p.dim}, got {len(xs)}")
    if not all(math.isfinite(x) for x in xs):
        raise DomainError("xs must be finite")
    d = mv_derive(p)
    r = _radius(d.spectral_norm_c, cfg)
    if min(xs) <= 0.0:
        return CdfEstimate(0.0, 0.0, 0.0, 0, r)
    if d.spectral_norm_c == 0.0:
        val = 1.0
        for x in xs:
            val *= reg_lower_gamma(p.alpha, d.v * x)
        return CdfEstimate(val, val, 0.0, 0, r)
    _ensure_normalization()
    n_cap = min(cfg.n_max, _AXIS_NODE_CAP)
    levels = (
        (n, _grid_value(d, xs, r, n, cfg.tol))
        for n in _doublings(cfg.n_start, n_cap)
    )
    return _refine(
        levels,
        r,
        cfg.tol,
        f"tensor quadrature did not reach tol={cfg.tol:.3g} within "
        f"{n_cap} nodes per axis",
    )
