"""Multivariate gamma CDF: reparametrization, grid quadrature, guards."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammasum.mvgamma as mvgamma
from gammasum.core import GammaSumParams, QuadratureConfig, cdf
from gammasum.genfun import _geometric_coefficients, _horner, g_series
from gammasum.errors import (
    BranchTrackingError,
    ConfigError,
    ConvergenceError,
    DomainError,
)
from gammasum.mvgamma import (
    MvDerived,
    MvGammaParams,
    _axis_coefficients,
    _grid_integrand,
    _grid_value,
    _logdet,
    existence_caveat,
    mv_cdf,
    mv_derive,
)
from gammasum.oracles import mc_mvgamma
from gammasum.qform import SymMatrix
from gammasum.special import reg_lower_gamma

# 50-digit reference evaluations, frozen.
REF_MV_INTEGRAND = 1.799281809432902738 - 0.50392366775315168808j
REF_KIBBLE = 0.63203702656483023935  # alpha=1, sigma [[2,1],[1,2]], xs (3,3)

SIGMA_2 = SymMatrix([[2.0, 1.0], [1.0, 2.0]])


def test_params_validation():
    with pytest.raises(DomainError):
        MvGammaParams(0.0, SIGMA_2)
    with pytest.raises(DomainError):
        MvGammaParams(1.0, SymMatrix(np.eye(4)))  # default cap is 3
    p4 = MvGammaParams(1.0, SymMatrix(np.eye(4)), max_dim=4)
    assert p4.dim == 4
    with pytest.raises(DomainError):
        MvGammaParams(1.0, SymMatrix(np.eye(5)), max_dim=5)  # hard cap
    for bad in (3.5, math.inf, "x"):
        with pytest.raises(DomainError, match="max_dim"):
            MvGammaParams(1.0, SIGMA_2, max_dim=bad)
    p3 = MvGammaParams(1.0, SIGMA_2, max_dim=3.0)
    assert p3.max_dim == 3 and type(p3.max_dim) is int


def test_existence_caveat():
    assert existence_caveat(MvGammaParams(1.0, SIGMA_2)) is None
    assert existence_caveat(MvGammaParams(0.5, SIGMA_2)) is None
    assert existence_caveat(MvGammaParams(1.25, SIGMA_2)) is None
    warn = existence_caveat(MvGammaParams(0.3, SymMatrix(np.eye(3))))
    assert warn is not None and "0.6" in warn


def test_mv_derive_spherical_is_exact():
    d = mv_derive(MvGammaParams(1.3, SymMatrix(2.0 * np.eye(3))))
    assert d.v == 0.5
    assert np.all(d.c_matrix.entries == 0.0)
    assert d.spectral_norm_c == 0.0


def test_mv_derive_diagonal_example():
    d = mv_derive(MvGammaParams(1.0, SymMatrix(np.diag([1.0, 3.0]))))
    assert abs(d.v - 2.0 / 3.0) <= 1e-15
    want = np.diag([-0.5, 0.5])
    assert np.abs(d.c_matrix.entries - want).max() <= 1e-14
    assert abs(d.spectral_norm_c - 0.5) <= 1e-15


def test_mv_derive_correlated_example():
    # eigenvalues (1, 3): v = 2/3 and C = I - (3/2) Sigma^-1 by hand
    d = mv_derive(MvGammaParams(1.0, SIGMA_2))
    assert abs(d.v - 2.0 / 3.0) <= 1e-15
    inv = np.linalg.inv(SIGMA_2.entries)
    want = np.eye(2) - 1.5 * inv
    assert np.abs(d.c_matrix.entries - want).max() <= 1e-14
    assert abs(d.spectral_norm_c - 0.5) <= 1e-14


def test_mv_derive_norm_invariant():
    rng = np.random.default_rng(103)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        w = rng.uniform(0.5, 8.0, size=dim)
        sigma = (q * w) @ q.T
        d = mv_derive(MvGammaParams(1.0, SymMatrix(0.5 * (sigma + sigma.T))))
        want = (w.max() - w.min()) / (w.max() + w.min())
        assert abs(d.spectral_norm_c - want) <= 1e-12
        assert d.spectral_norm_c < 1.0


def test_logdet_pivot_guard():
    # a pivot with real part <= 0, first or after elimination, must raise
    for b in ([[1.2]], [[1.0]], [[0.5, 0.9], [0.9, 0.5]]):
        with pytest.raises(BranchTrackingError):
            _logdet(np.eye(len(b)) - np.array(b))
    val = _logdet(np.eye(1) - np.array([[0.5]]))
    assert abs(val - math.log(0.5)) <= 1e-15


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_logdet_matches_eigenvalue_branch(data):
    # Reference: the sum of principal logs of 1 - mu over the eigenvalues
    # mu of C Y^-1, each in the right half-plane because |mu| < 1.
    p = data.draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    g = np.array(data.draw(st.lists(unit, min_size=p * p, max_size=p * p)))
    q, _ = np.linalg.qr(g.reshape(p, p))
    w = np.array(data.draw(st.lists(st.floats(-0.95, 0.95), min_size=p, max_size=p)))
    c = (q * w) @ q.T
    norm = float(np.abs(w).max())
    r = norm + (1.0 - norm) * data.draw(st.floats(1e-3, 1.0 - 1e-3))
    phis = np.array(
        data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=p, max_size=p))
    )
    b = c / (r * np.exp(1j * phis))[None, :]
    a = np.eye(p) - b
    branch = np.log(1.0 - np.linalg.eigvals(b)).sum()
    # The eigenvalues fix the sheet; the value comes from a 30-digit
    # determinant of the same matrix, because eigenvalues with |mu| near 1
    # lose digits in 1 - mu (1.2e-12 off at 1 - mu = 5.6e-4, where the
    # elimination is within 1e-14).
    with mp.workdps(30):
        principal = complex(mp.log(mp.det(mp.matrix(a.tolist()))))
    turns = round((branch.imag - principal.imag) / (2.0 * math.pi))
    want = principal + 2j * math.pi * turns
    assert abs(branch - want) <= 1e-9
    assert abs(_logdet(a) - want) <= 1e-12


def test_logdet_is_the_continuous_branch():
    # Each factor 1 - (0.9/0.95) e^(-0.3i) has argument 1.2438, so the
    # branch continuous from C = 0 has argument 3.7315, past pi: the
    # principal log of the determinant lands on the wrong sheet.
    y = 0.95 * np.exp(0.3j) * np.ones(3)
    a = np.eye(3) - 0.9 * np.eye(3) / y[None, :]
    assert abs(np.log(np.linalg.det(a)).imag - (-2.5517)) <= 1e-4
    got = _logdet(a.copy())
    assert abs(got - 3.0 * np.log(1.0 - 0.9 / y[0])) <= 1e-14
    assert abs(got.imag - 3.7315) <= 1e-4
    # the stacked form, stack along the last axis, gives every matrix its
    # own branch
    stack = _logdet(np.stack([a, np.eye(3) - 0.5 * np.eye(3)], axis=-1))
    assert abs(stack[0] - got) <= 1e-15
    assert abs(stack[1] - 3.0 * math.log(0.5)) <= 1e-15


def _integrand_at(phis, xs, d, r, tol=1e-10):
    """The grid integrand at the one point (phi_1, ..., phi_p)."""
    y = r * np.exp(1j * np.asarray(phis, dtype=float))[:, None]
    g = np.stack([
        _horner(_geometric_coefficients(d.alpha, d.v * x, r, tol)[0], yk)
        for x, yk in zip(xs, y)
    ])
    return complex(_grid_integrand(d.c_matrix.entries, d.alpha, y, g)[0])


def test_mv_integrand_reference_value():
    d = mv_derive(MvGammaParams(1.0, SIGMA_2))
    got = _integrand_at(
        (math.pi / 3.0, -math.pi / 4.0), (2.0, 3.0), d, 0.75, tol=1e-13
    )
    assert abs(got - REF_MV_INTEGRAND) <= 1e-10


def test_mv_integrand_conjugate_symmetry():
    d = mv_derive(MvGammaParams(0.8, SIGMA_2))
    rng = np.random.default_rng(109)
    for _ in range(10):
        phis = rng.uniform(-math.pi, math.pi, size=2)
        a = _integrand_at(phis, (2.0, 1.5), d, 0.8)
        b = _integrand_at(-phis, (2.0, 1.5), d, 0.8)
        assert abs(a - b.conjugate()) <= 1e-12


def test_mv_integrand_c_zero_is_product_of_series():
    d = MvDerived(1.1, 1.0, SymMatrix(np.zeros((2, 2))), 0.0, 0.0)
    phis = (0.4, -1.1)
    got = _integrand_at(phis, (1.0, 2.0), d, 0.6, tol=1e-13)
    want = g_series(1.1, 1.0, 0.6 * cmath.exp(0.4j), tol=1e-13).value * g_series(
        1.1, 2.0, 0.6 * cmath.exp(-1.1j), tol=1e-13
    ).value
    assert abs(got - want) <= 1e-11


def test_mv_cdf_matches_independent_mixture_series():
    p = MvGammaParams(1.0, SIGMA_2)
    est = mv_cdf(p, (3.0, 3.0))
    assert abs(est.value - REF_KIBBLE) <= 1e-9
    assert est.err_estimate <= 1e-10
    assert est.nodes_used > 0


def test_mv_cdf_p1_equivalence_with_core():
    rng = np.random.default_rng(113)
    for _ in range(10):
        alpha = float(rng.uniform(0.4, 4.0))
        lam = float(rng.uniform(0.3, 5.0))
        x = float(rng.uniform(0.1, 3.0) * alpha * lam)
        got = mv_cdf(MvGammaParams(alpha, SymMatrix([[lam]])), (x,)).value
        want = cdf(GammaSumParams((alpha,), (lam,)), x).value
        assert abs(got - want) <= 1e-9


def test_mv_cdf_p1_grid_route_matches_marginal():
    # Bypass the spherical shortcut: drive the actual tensor quadrature
    # with a zero C and compare to the marginal gamma CDF.
    alpha, x = 1.7, 2.4
    d = MvDerived(alpha, 1.0, SymMatrix(np.zeros((1, 1))), 0.0, 0.0)
    got = _grid_value(d, _axis_coefficients(d, (x,), 0.5, 1e-12), 0.5, 32)
    assert abs(got - reg_lower_gamma(alpha, x)) <= 1e-9


def test_mv_cdf_factorization_through_quadrature():
    # Diagonal but non-spherical sigma: C != 0, the full grid machinery
    # runs, and the joint CDF must still factor into the marginals.
    alpha = 1.4
    sigma = SymMatrix(np.diag([1.0, 3.0]))
    est = mv_cdf(MvGammaParams(alpha, sigma), (1.2, 2.9))
    want = reg_lower_gamma(alpha, 1.2) * reg_lower_gamma(alpha, 2.9 / 3.0)
    assert est.nodes_used > 0  # shortcut not taken
    assert abs(est.value - want) <= 1e-8


def test_mv_cdf_spherical_shortcut():
    p = MvGammaParams(2.2, SymMatrix(3.0 * np.eye(3)))
    est = mv_cdf(p, (2.0, 5.0, 1.0))
    want = 1.0
    for x in (2.0, 5.0, 1.0):
        want *= reg_lower_gamma(2.2, x / 3.0)
    # x * (1/3) vs x / 3 may differ by an ulp inside reg_lower_gamma
    assert abs(est.value - want) <= 1e-15 * max(1.0, want)
    assert est.err_estimate == 0.0
    assert est.nodes_used == 0


def test_mv_cdf_permutation_equivariance():
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    sig_p = SymMatrix(perm @ SIGMA_2.entries @ perm.T)
    xs = (1.5, 3.2)
    a = mv_cdf(MvGammaParams(1.0, SIGMA_2), xs).value
    b = mv_cdf(MvGammaParams(1.0, sig_p), xs[::-1]).value
    assert abs(a - b) <= 1e-9


def test_mv_cdf_monotone_and_limits():
    p = MvGammaParams(1.0, SIGMA_2)
    assert mv_cdf(p, (0.0, 1.0)).value == 0.0
    assert mv_cdf(p, (-1.0, 1.0)).value == 0.0
    prev = -1.0
    for x1 in (0.5, 1.5, 3.0, 6.0):
        val = mv_cdf(p, (x1, 2.0)).value
        assert val >= prev - 1e-12
        prev = val
    big = mv_cdf(p, (60.0, 60.0))
    assert abs(big.value - 1.0) <= 1e-6


def test_mv_cdf_p3_runs_and_is_bounded():
    sigma = SymMatrix(
        [[2.0, 0.6, 0.3], [0.6, 1.5, 0.4], [0.3, 0.4, 1.0]]
    )
    xs = (2.0, 2.5, 1.5)
    est = mv_cdf(MvGammaParams(1.0, sigma), xs)
    assert 0.0 <= est.value <= 1.0
    assert est.err_estimate <= 1e-10
    # frozen from the eigenvalue-branch implementation
    assert abs(est.value - 0.4193941175669062) <= 1e-12
    mc = mc_mvgamma(1.0, sigma, xs, n_samples=10**6, seed=8)
    assert abs(est.value - mc.estimate) <= 4.0 * mc.std_error


def test_mv_cdf_nonconvergence_carries_estimate():
    p = MvGammaParams(1.0, SIGMA_2)
    cfg = QuadratureConfig(n_start=4, n_max=8, tol=1e-15)
    with pytest.raises(ConvergenceError) as info:
        mv_cdf(p, (3.0, 3.0), cfg)
    assert info.value.estimate is not None
    assert info.value.estimate.nodes_used == 8


def test_mv_cdf_requires_a_doubling_within_the_axis_cap():
    # the per-axis cap of 512 nodes, not n_max, bounds the doubling:
    # n_start = 1024 leaves no level to run, and 512 a single level,
    # which can never pass the two-level stop
    p = MvGammaParams(1.0, SIGMA_2)
    for n_start in (1024, 512):
        with pytest.raises(ConfigError, match="no doubling"):
            mv_cdf(p, (2.0, 3.0), QuadratureConfig(n_start=n_start, n_max=4096))
    est = mv_cdf(p, (2.0, 3.0), QuadratureConfig(n_start=256, n_max=4096))
    assert est.nodes_used == 512


def test_mv_cdf_xs_validation():
    p = MvGammaParams(1.0, SIGMA_2)
    with pytest.raises(DomainError):
        mv_cdf(p, (1.0,))
    with pytest.raises(DomainError):
        mv_cdf(p, (1.0, math.inf))


def test_mv_cdf_computes_axis_coefficients_once(monkeypatch):
    calls = []
    kernel = mvgamma._geometric_coefficients

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(mvgamma, "_geometric_coefficients", counted)
    est = mv_cdf(MvGammaParams(1.0, SIGMA_2), (3.0, 3.0))
    assert est.nodes_used >= 64  # three or more refinement levels ran
    assert len(calls) == 2
