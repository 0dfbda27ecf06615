"""Quadratic form reduction: symmetric matrices, eigensolver, CDF bridge."""

import math

import numpy as np
import pytest

from gammasum.errors import DomainError, NotPositiveDefiniteError
from gammasum.oracles import mc_qform
from gammasum.qform import SymMatrix, jacobi_eigen, qform_cdf, qform_eigenvalues
from gammasum.special import reg_lower_gamma

from helpers import random_spd

# 50-digit reference evaluations, frozen.
HILBERT3_EIGS = [
    0.002687340355773529231,
    0.12232706585390584656,
    1.4083189271236539575,
]
REF_QFORM = 0.73579039417115306031  # sigma [[2,1],[1,2]], c diag(1,3), x=10

NEAR_SINGULAR = [[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]]
INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]


def two_eigensolve_mu(sigma, cmat):
    """mu by the textbook route: Sigma's eigendecomposition, its square
    root V sqrt(w) V', then the eigenvalues of Sigma^(1/2) C Sigma^(1/2)."""
    w, v = np.linalg.eigh(sigma)
    root = (v * np.sqrt(w)) @ v.T
    m = root @ cmat @ root
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def test_sym_matrix_accepts_and_freezes():
    m = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert m.dim == 2
    assert not m.entries.flags.writeable
    # tiny asymmetry is averaged away
    eps = 1e-13
    m2 = SymMatrix([[1.0, 0.5 + eps], [0.5 - eps, 1.0]])
    assert m2.entries[0, 1] == m2.entries[1, 0]
    assert abs(m2.entries[0, 1] - 0.5) <= 1e-12


def test_sym_matrix_rejections():
    with pytest.raises(DomainError):
        SymMatrix([[1.0, 0.3], [0.0, 1.0]])  # too asymmetric
    with pytest.raises(DomainError):
        SymMatrix([[1.0, 2.0, 3.0]])  # not square
    with pytest.raises(DomainError):
        SymMatrix([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        SymMatrix(np.zeros((0, 0)))


def test_jacobi_hilbert_reference():
    h = SymMatrix(
        [[1.0, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]]
    )
    w, _ = jacobi_eigen(h)
    for got, want in zip(w, HILBERT3_EIGS):
        assert abs(got - want) <= 1e-13


def test_jacobi_random_sweep():
    rng = np.random.default_rng(83)
    for _ in range(40):
        dim = int(rng.integers(1, 7))
        a = random_spd(rng, dim, cond_max=50.0)
        a = a - 0.5 * float(a.trace() / dim) * np.eye(dim)  # mixed signs
        a = 0.5 * (a + a.T)
        w, v = jacobi_eigen(SymMatrix(a))
        scale = np.linalg.norm(a)
        # eigen equation, orthonormality, ascending order
        resid = a @ v - v * w
        assert np.abs(resid).max() <= 1e-10 * max(1.0, scale)
        assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-10
        assert (np.diff(w) >= -1e-14 * max(1.0, scale)).all()


def test_jacobi_zero_and_diagonal():
    w, _ = jacobi_eigen(SymMatrix(np.zeros((3, 3))))
    assert np.all(w == 0.0)
    w, _ = jacobi_eigen(SymMatrix(np.diag([3.0, -1.0, 2.0])))
    assert np.allclose(w, [-1.0, 2.0, 3.0], atol=0.0)


def test_qform_eigenvalues_reference():
    mu = qform_eigenvalues([[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 3.0]])
    want = [4.0 - math.sqrt(7.0), 4.0 + math.sqrt(7.0)]
    for g, w in zip(mu, want):
        assert abs(g - w) <= 1e-12


def test_qform_eigenvalues_validation():
    with pytest.raises(DomainError):
        qform_eigenvalues(np.eye(2), np.eye(3))
    with pytest.raises(NotPositiveDefiniteError):
        qform_eigenvalues([[1.0, 2.0], [2.0, 1.0]], np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        qform_eigenvalues(np.eye(2), [[0.0, 0.0], [0.0, 1.0]])


def test_qform_eigenvalues_match_two_eigensolve_reference():
    # eig(L' C L) with Sigma = L L' against eig(Sigma^(1/2) C Sigma^(1/2))
    rng = np.random.default_rng(107)
    for _ in range(40):
        dim = int(rng.integers(1, 9))
        sigma = random_spd(rng, dim, cond_max=50.0)
        cmat = random_spd(rng, dim, cond_max=50.0)
        mu = qform_eigenvalues(sigma, cmat)
        want = two_eigensolve_mu(sigma, cmat)
        assert (np.abs(mu - want) <= 1e-12 * want).all(), dim


@pytest.mark.parametrize(
    "sigma, cmat",
    [(NEAR_SINGULAR, np.eye(2)), (INDEFINITE, np.eye(2)),
     ([[1.0, 1.0], [1.0, 1.0]], np.eye(2)), (np.eye(2), INDEFINITE),
     (np.eye(2), NEAR_SINGULAR)],
    ids=["sigma-near-singular", "sigma-indefinite", "sigma-singular",
         "c-indefinite", "c-near-singular"],
)
def test_both_routes_refuse_alike(sigma, cmat):
    # the analytic and the Monte Carlo route share one reduction, so they
    # refuse the same inputs with the same error
    with pytest.raises(NotPositiveDefiniteError) as analytic:
        qform_cdf(sigma, cmat, 1.0)
    with pytest.raises(NotPositiveDefiniteError) as simulated:
        mc_qform(sigma, cmat, 1.0, 100)
    assert str(analytic.value) == str(simulated.value)


def test_sym_sqrt_rejects_indefinite():
    # Sigma^(1/2) is taken inside qform_eigenvalues; an indefinite or
    # singular Sigma has no such root and must be refused.
    with pytest.raises(NotPositiveDefiniteError):
        qform_eigenvalues([[1.0, 0.0], [0.0, -1.0]], np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        qform_eigenvalues([[1.0, 1.0], [1.0, 1.0]], np.eye(2))  # singular


def test_qform_cdf_reference_value():
    est = qform_cdf([[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 3.0]], 10.0)
    assert abs(est.value - REF_QFORM) <= 1e-10


def test_chi_square_reduction():
    for k in range(1, 7):
        for x in (0.5, 2.0, 7.5):
            est = qform_cdf(np.eye(k), np.eye(k), x)
            want = reg_lower_gamma(k / 2.0, x / 2.0)
            assert abs(est.value - want) <= 1e-10, (k, x)


def test_congruence_invariance():
    rng = np.random.default_rng(97)
    for _ in range(5):
        dim = int(rng.integers(2, 5))
        sigma = random_spd(rng, dim)
        cmat = random_spd(rng, dim)
        x = float(rng.uniform(0.5, 3.0) * dim)
        base = qform_cdf(sigma, cmat, x).value
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rotated = qform_cdf(q @ sigma @ q.T, q @ cmat @ q.T, x).value
        assert abs(base - rotated) <= 1e-9


def test_eigenvalue_product_is_determinant_product():
    # prod(mu) = det(Sigma) det(C), the identity qform_cdf's scales obey
    rng = np.random.default_rng(89)
    for _ in range(40):
        dim = int(rng.integers(1, 7))
        sigma = random_spd(rng, dim, cond_max=50.0)
        cmat = random_spd(rng, dim, cond_max=50.0)
        mu = qform_eigenvalues(sigma, cmat)
        want = np.linalg.det(sigma) * np.linalg.det(cmat)
        assert abs(np.prod(mu) - want) <= 1e-10 * want, dim


def test_scaling_laws():
    rng = np.random.default_rng(101)
    sigma = random_spd(rng, 3)
    cmat = random_spd(rng, 3)
    x = 4.0
    base = qform_cdf(sigma, cmat, x).value
    for t in (0.5, 2.0, 7.0):
        assert abs(qform_cdf(t * sigma, cmat, t * x).value - base) <= 1e-9
        assert abs(qform_cdf(sigma, t * cmat, t * x).value - base) <= 1e-9


def test_qform_monotone_and_zero():
    sigma = [[2.0, 1.0], [1.0, 2.0]]
    cmat = [[1.0, 0.0], [0.0, 3.0]]
    assert qform_cdf(sigma, cmat, 0.0).value == 0.0
    vals = [qform_cdf(sigma, cmat, float(x)).value for x in (1.0, 4.0, 9.0, 16.0)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo
