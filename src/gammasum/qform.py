"""Gaussian quadratic forms z' C z reduced to gamma sums.

With z ~ N(0, Sigma) and C symmetric positive definite, diagonalizing
M = Sigma^(1/2) C Sigma^(1/2) = V diag(mu) V' turns the form into
sum_j mu_j W_j^2 with independent standard normals W_j, i.e. a sum of
Gamma(1/2) variables scaled by 2 mu_j. The CDF at x is therefore the
gamma-sum CDF with shapes (1/2, ..., 1/2) and scales mu evaluated at
x/2 (scales folded as mu, argument halved).

Both eigensolves, of Sigma for its square root and of M for mu, go
through jacobi_eigen, which is LAPACK's symmetric solver (numpy's eigh).
"""

from __future__ import annotations

import numpy as np

from .core import GammaSumParams, QuadratureConfig, cdf
from .errors import DomainError, NotPositiveDefiniteError, _real

_POSDEF_REL = 1e-14


class SymMatrix:
    """A validated symmetric matrix.

    Accepts any square array whose asymmetry |A - A'| is at most
    1e-12 * max|A| entrywise, stores the symmetrized (A + A')/2, and
    freezes the buffer. Use .entries for the ndarray and .dim for the
    order."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"matrix must be square, got shape {a.shape}")
        if a.size == 0:
            raise DomainError("matrix must be nonempty")
        if not np.isfinite(a).all():
            raise DomainError("matrix entries must be finite")
        scale = float(np.abs(a).max())
        if scale > 0.0 and float(np.abs(a - a.T).max()) > 1e-12 * scale:
            raise DomainError("matrix is not symmetric to relative 1e-12")
        sym = 0.5 * (a + a.T)
        sym.setflags(write=False)
        self.dim = a.shape[0]
        self.entries = sym

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


def _as_sym(mat):
    return mat if isinstance(mat, SymMatrix) else SymMatrix(mat)


def jacobi_eigen(mat):
    """Ascending eigenvalues and orthonormal eigenvectors of a SymMatrix.

    This is LAPACK's symmetric eigensolver through np.linalg.eigh and
    returns its (values, vectors) pair. The name predates the switch to
    LAPACK and is kept so callers and profilers that bind it stay valid.
    """
    return np.linalg.eigh(_as_sym(mat).entries)


def _check_posdef(values, dim, what):
    wmax = float(values.max()) if values.size else 0.0
    if wmax <= 0.0 or float(values.min()) <= dim * _POSDEF_REL * wmax:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite (eigenvalue floor "
            f"{dim * _POSDEF_REL * wmax:.3g})"
        )


def qform_eigenvalues(sigma, c):
    """Ascending eigenvalues mu of Sigma^(1/2) C Sigma^(1/2).

    These are the scale weights of the chi-square mixture; both inputs
    must be symmetric positive definite."""
    sigma = _as_sym(sigma)
    c = _as_sym(c)
    if sigma.dim != c.dim:
        raise DomainError(
            f"dimension mismatch: sigma is {sigma.dim}, c is {c.dim}"
        )
    w, v = jacobi_eigen(sigma)
    _check_posdef(w, sigma.dim, "matrix")
    root = (v * np.sqrt(w)) @ v.T
    s = 0.5 * (root + root.T)
    m = s @ c.entries @ s
    mu, _ = jacobi_eigen(SymMatrix(0.5 * (m + m.T)))
    _check_posdef(mu, sigma.dim, "sigma^(1/2) c sigma^(1/2)")
    return mu


def qform_cdf(sigma, c, x, cfg=None):
    """P{z' C z <= x} for z ~ N(0, Sigma).

    Reduces to the gamma-sum CDF with shapes (1/2,)*dim and scales mu
    at the point x/2."""
    x = _real(x, "x")
    mu = qform_eigenvalues(sigma, c)
    cfg = QuadratureConfig() if cfg is None else cfg
    params = GammaSumParams((0.5,) * mu.size, tuple(mu))
    return cdf(params, 0.5 * x, cfg)
