"""Series and Monte Carlo oracles: recurrences, tail bounds, sampling."""

import math

import numpy as np
import pytest

from gammasum.core import GammaSumParams, cdf, derive_params
from gammasum.errors import DomainError, NotPositiveDefiniteError
from gammasum.oracles import (
    _gamma_variates,
    mc_cdf,
    mc_mvgamma,
    mc_qform,
    series_cdf,
    series_coefficients,
)
from gammasum.qform import qform_cdf
from gammasum.special import reg_lower_gamma

from helpers import (
    binomial_series_coefficients,
    brute_product_coefficients,
    hypoexp_cdf,
    random_params,
)

REF_CDF_MIXED = 0.29871216637449169898  # alphas (.7,1.3,2), lambdas (.5,1,4), x=6
REF_KIBBLE = 0.63203702656483023935  # alpha=1, sigma [[2,1],[1,2]], xs (3,3)
REF_QFORM = 0.73579039417115306031  # sigma [[2,1],[1,2]], c diag(1,3), x=10
# ROADMAP reproducers at x = 200; mpmath Gil-Pelaez inversion (and, for
# k = 20, the 50-digit series), tests/tools/make_references.py
REF_K20 = 0.5058814851703638968  # shapes 2, scales linspace(0.1, 10, 20)
REF_K50 = 0.98739615410037707413  # shapes 0.5, scales linspace(0.01, 10, 50)


def test_series_coefficients_match_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(50):
        alphas, lambdas = random_params(rng, k_max=4, ratio_max=12.0)
        d = derive_params(GammaSumParams(alphas, lambdas))
        got = series_coefficients(d, 25)
        want = brute_product_coefficients(d.alphas, d.c, 25)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)


def test_series_coefficients_dominated():
    # signs alternate when some c_j < 0, but |b_n| never exceeds the
    # coefficients beta_n of (1 - c_max y)^-alpha_total; the series tail
    # bound rests on exactly this.
    rng = np.random.default_rng(67)
    for _ in range(20):
        alphas, lambdas = random_params(rng)
        d = derive_params(GammaSumParams(alphas, lambdas))
        b = series_coefficients(d, 40)
        beta = binomial_series_coefficients(d.alpha_total, d.c_max_abs, 40)
        assert (np.abs(b) <= beta * (1.0 + 1e-12) + 1e-300).all()


def test_series_cdf_reference_values():
    res = series_cdf(GammaSumParams((0.7, 1.3, 2.0), (0.5, 1.0, 4.0)), 6.0)
    assert abs(res.value - REF_CDF_MIXED) <= 1e-10
    # single gamma: one term, exact
    res = series_cdf(GammaSumParams((0.5,), (1.0,)), 1.0)
    assert abs(res.value - reg_lower_gamma(0.5, 1.0)) <= 1e-15
    assert res.terms_used == 1 and res.tail_bound == 0.0


def test_series_cdf_edge_cases():
    p = GammaSumParams((1.0, 2.0), (1.0, 3.0))
    assert series_cdf(p, 0.0).value == 0.0
    assert series_cdf(p, -1.0).value == 0.0
    eq = series_cdf(GammaSumParams((1.5, 0.5), (2.0, 2.0)), 4.0)
    assert eq.value == reg_lower_gamma(2.0, 2.0)


def test_series_cdf_tail_bound_is_honest():
    rng = np.random.default_rng(71)
    for _ in range(25):
        alphas, lambdas = random_params(rng, ratio_max=8.0)
        p = GammaSumParams(alphas, lambdas)
        mean = sum(a * l for a, l in zip(alphas, lambdas))
        x = float(rng.uniform(0.2, 2.0) * mean)
        loose = series_cdf(p, x, tol=1e-5)
        tight = series_cdf(p, x, tol=1e-13)
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-15
        assert loose.tail_bound <= 1e-5


@pytest.mark.parametrize(
    "k, shape, lo, want",
    [(20, 2.0, 0.1, REF_K20), (50, 0.5, 0.01, REF_K50)],
    ids=["k20", "k50"],
)
def test_series_cdf_roadmap_reproducers(k, shape, lo, want):
    # full size: the coefficients P(alpha+n, vx) reach n ~ 1.1e4 at k = 50
    p = GammaSumParams((shape,) * k, np.linspace(lo, 10.0, k))
    res = series_cdf(p, 200.0)
    assert abs(res.value - want) <= res.tail_bound + 1e-12
    assert abs(res.value - want) <= 1e-9


def test_series_cdf_hypoexponential():
    lambdas = (1.0, 2.0)
    res = series_cdf(GammaSumParams((1.0, 1.0), lambdas), 2.0)
    assert abs(res.value - hypoexp_cdf(lambdas, 2.0)) <= 1e-10


def test_series_vs_integral_sweep():
    rng = np.random.default_rng(73)
    for _ in range(15):
        alphas, lambdas = random_params(rng, ratio_max=8.0)
        p = GammaSumParams(alphas, lambdas)
        mean = sum(a * l for a, l in zip(alphas, lambdas))
        x = float(rng.uniform(0.1, 2.5) * mean)
        a = cdf(p, x).value
        b = series_cdf(p, x, tol=1e-10)
        assert abs(a - b.value) <= 1e-8, (alphas, lambdas, x)


def test_gamma_variates_moments():
    rng = np.random.default_rng(79)
    n = 200000
    for shape in (0.5, 1.0, 2.7):
        draws = _gamma_variates(rng, shape, n)
        assert draws.min() >= 0.0
        mean_se = math.sqrt(shape / n)
        assert abs(draws.mean() - shape) <= 5.0 * mean_se
        # variance of Gamma(a) is a; Var of the variance estimator is
        # roughly (kurtosis) a (a+1) ... / n, bounded loosely below
        assert abs(draws.var() - shape) <= 10.0 * mean_se * math.sqrt(
            shape + 3.0
        )


def test_mc_cdf_deterministic_and_calibrated():
    p = GammaSumParams((0.7, 1.3, 2.0), (0.5, 1.0, 4.0))
    a = mc_cdf(p, 6.0, 100000, seed=5)
    b = mc_cdf(p, 6.0, 100000, seed=5)
    assert a.estimate == b.estimate and a.std_error == b.std_error
    c = mc_cdf(p, 6.0, 100000, seed=6)
    assert c.estimate != a.estimate
    assert abs(a.estimate - REF_CDF_MIXED) <= 4.0 * a.std_error
    assert a.n_samples == 100000 and a.seed == 5


def test_mc_cdf_chunking_is_transparent():
    # crossing the internal chunk boundary must not change the stream
    p = GammaSumParams((1.0,), (1.0,))
    small = mc_cdf(p, 1.0, 300000, seed=9)
    assert abs(small.estimate - (1.0 - math.exp(-1.0))) <= 4.0 * small.std_error


def test_mc_qform_agrees_with_analytic():
    sigma = [[2.0, 1.0], [1.0, 2.0]]
    cmat = [[1.0, 0.0], [0.0, 3.0]]
    res = mc_qform(sigma, cmat, 10.0, 200000, seed=11)
    assert abs(res.estimate - REF_QFORM) <= 4.0 * res.std_error
    est = qform_cdf(sigma, cmat, 10.0)
    assert abs(res.estimate - est.value) <= 4.0 * res.std_error


def test_mc_qform_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        mc_qform([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 1.0, 100)
    with pytest.raises(NotPositiveDefiniteError):
        mc_qform([[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]], 1.0, 100)


def test_mc_mvgamma_against_independent_mixture_value():
    res = mc_mvgamma(1.0, [[2.0, 1.0], [1.0, 2.0]], (3.0, 3.0), 200000, seed=13)
    assert abs(res.estimate - REF_KIBBLE) <= 4.0 * res.std_error


def test_mc_mvgamma_requires_half_integer_shape():
    with pytest.raises(DomainError):
        mc_mvgamma(0.8, [[1.0, 0.0], [0.0, 1.0]], (1.0, 1.0), 100)
    res = mc_mvgamma(0.5, np.eye(2), (0.8, 1.3), 100000, seed=17)
    want = reg_lower_gamma(0.5, 0.8) * reg_lower_gamma(0.5, 1.3)
    assert abs(res.estimate - want) <= 4.0 * res.std_error


def test_mc_sample_count_validation():
    p = GammaSumParams((1.0,), (1.0,))
    with pytest.raises(DomainError):
        mc_cdf(p, 1.0, 0)
