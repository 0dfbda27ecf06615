"""Core quadrature engine: reparametrization, integrand, cdf, quantile."""

import math

import numpy as np
import pytest

from gammasum.core import (
    CdfEstimate,
    GammaSumParams,
    QuadratureConfig,
    _refinement_levels,
    cdf,
    choose_r,
    derive_params,
    integrand,
    quantile,
)
from gammasum.errors import ConfigError, ConvergenceError, DomainError
from gammasum.special import reg_lower_gamma

from helpers import hypoexp_cdf, random_params

# 50-digit reference evaluations, frozen.
REF_INTEGRAND = 0.24893482364401567024  # alphas (1,1), lambdas (1,3), x=2, phi=pi/2, r=0.75
REF_CDF_TWO = 0.29754196306941830564  # alphas (1,1), lambdas (1,3), x=2
REF_CDF_MIXED = 0.29871216637449169898  # alphas (.7,1.3,2), lambdas (.5,1,4), x=6
REF_HYPOEXP = 0.3995764008937280487  # lambdas (1,2), x=2
# shapes 2, scales linspace(0.1, 10, 20), x = 200 (ROADMAP reproducer)
REF_K20 = 0.5058814851703638968


def test_params_validation():
    with pytest.raises(DomainError):
        GammaSumParams((1.0, 2.0), (1.0,))
    with pytest.raises(DomainError):
        GammaSumParams((), ())
    with pytest.raises(DomainError):
        GammaSumParams((0.0,), (1.0,))
    with pytest.raises(DomainError):
        GammaSumParams((1.0,), (-2.0,))
    with pytest.raises(DomainError):
        GammaSumParams((math.inf,), (1.0,))
    with pytest.raises(DomainError):
        GammaSumParams(("a",), (1.0,))
    p = GammaSumParams([1, 2], [3, 4])
    assert p.alphas == (1.0, 2.0) and p.lambdas == (3.0, 4.0) and p.k == 2


def test_derive_params_two_scale_example():
    d = derive_params(GammaSumParams((1.0, 1.0), (1.0, 3.0)))
    assert abs(d.v - 2.0 / 3.0) <= 1e-16
    assert abs(d.c[0] - (-0.5)) <= 1e-15
    assert abs(d.c[1] - 0.5) <= 1e-15
    assert abs(d.c_max_abs - 0.5) <= 1e-15
    assert abs(d.alpha_total - 2.0) <= 0.0


def test_derive_params_invariants():
    rng = np.random.default_rng(41)
    for _ in range(100):
        alphas, lambdas = random_params(rng)
        d = derive_params(GammaSumParams(alphas, lambdas))
        lmax, lmin = max(lambdas), min(lambdas)
        want_cmax = (lmax - lmin) / (lmax + lmin)
        assert abs(d.c_max_abs - want_cmax) <= 1e-14
        assert d.c_max_abs < 1.0
        # c_j solves 1/(v lambda_j) = 1 - c_j
        for cj, lj in zip(d.c, lambdas):
            assert abs((1.0 - cj) * d.v * lj - 1.0) <= 1e-12
        # prefactor: exp(log_prefactor) = v^-atot prod lambda_j^-alpha_j
        want = -d.alpha_total * math.log(d.v) - sum(
            a * math.log(l) for a, l in zip(alphas, lambdas)
        )
        assert abs(d.log_prefactor - want) <= 1e-10 * max(1.0, abs(want))


def test_derive_params_equal_scale_exact_zero():
    d = derive_params(GammaSumParams((0.5, 2.5, 1.0), (4.0, 4.0, 4.0)))
    assert d.c == (0.0, 0.0, 0.0)
    assert d.c_max_abs == 0.0
    assert d.v == 0.25


def test_choose_r():
    d = derive_params(GammaSumParams((1.0, 1.0), (1.0, 3.0)))
    assert choose_r(d, QuadratureConfig()) == 0.75
    assert choose_r(d, QuadratureConfig(r=0.6)) == 0.6
    with pytest.raises(ConfigError):
        choose_r(d, QuadratureConfig(r=0.4))  # below c_max = 0.5


def test_quadrature_config_validation():
    with pytest.raises(ConfigError):
        QuadratureConfig(r=1.5)
    with pytest.raises(ConfigError):
        QuadratureConfig(r=0.0)
    with pytest.raises(ConfigError):
        QuadratureConfig(n_start=64, n_max=100)
    with pytest.raises(ConfigError):
        QuadratureConfig(tol=0.0)
    cfg = QuadratureConfig()
    assert (cfg.r, cfg.n_start, cfg.n_max, cfg.tol) == (None, 16, 65536, 1e-10)


def test_integrand_reference_value():
    d = derive_params(GammaSumParams((1.0, 1.0), (1.0, 3.0)))
    got = integrand(math.pi / 2.0, 2.0, d, 0.75, tol=1e-13)
    assert abs(got - REF_INTEGRAND) <= 1e-10


def test_integrand_even_in_phi_and_edges():
    d = derive_params(GammaSumParams((0.8, 1.7), (0.5, 2.0)))
    rng = np.random.default_rng(43)
    for _ in range(20):
        phi = float(rng.uniform(0.0, math.pi))
        assert abs(integrand(phi, 3.0, d, 0.8) - integrand(-phi, 3.0, d, 0.8)) <= 1e-14
    assert integrand(1.0, 0.0, d, 0.8) == 0.0
    with pytest.raises(DomainError):
        integrand(1.0, -1.0, d, 0.8)
    with pytest.raises(ConfigError):
        integrand(1.0, 1.0, d, 0.3)  # r below c_max


def test_cdf_reference_values():
    est = cdf(GammaSumParams((1.0, 1.0), (1.0, 3.0)), 2.0)
    assert abs(est.value - REF_CDF_TWO) <= 1e-10
    est = cdf(GammaSumParams((0.7, 1.3, 2.0), (0.5, 1.0, 4.0)), 6.0)
    assert abs(est.value - REF_CDF_MIXED) <= 1e-10
    est = cdf(GammaSumParams((1.0, 1.0), (1.0, 2.0)), 2.0)
    assert abs(est.value - REF_HYPOEXP) <= 1e-10


def test_cdf_exponential_closed_form():
    p = GammaSumParams((1.0,), (1.0,))
    for x in np.linspace(0.05, 8.0, 20):
        est = cdf(p, float(x))
        assert abs(est.value - (1.0 - math.exp(-x))) <= 1e-12


def test_cdf_equal_scale_shortcut():
    p = GammaSumParams((0.7, 1.3), (2.5, 2.5))
    est = cdf(p, 5.0)
    assert est.value == reg_lower_gamma(2.0, 2.0)
    assert est.nodes_used == 0 and est.err_estimate == 0.0


def test_cdf_hypoexponential_closed_form():
    rng = np.random.default_rng(47)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        lambdas = np.sort(rng.uniform(0.3, 6.0, size=k))
        while np.min(np.diff(lambdas)) < 0.05:
            lambdas = np.sort(rng.uniform(0.3, 6.0, size=k))
        x = float(rng.uniform(0.2, 3.0) * lambdas.sum())
        est = cdf(GammaSumParams((1.0,) * k, tuple(lambdas)), x)
        assert abs(est.value - hypoexp_cdf(lambdas, x)) <= 1e-10


def test_cdf_x_nonpositive_and_validation():
    p = GammaSumParams((1.0, 2.0), (1.0, 3.0))
    assert cdf(p, 0.0).value == 0.0
    assert cdf(p, -5.0).value == 0.0
    with pytest.raises(DomainError):
        cdf(p, math.nan)


def test_cdf_r_invariance_quick():
    rng = np.random.default_rng(53)
    for _ in range(5):
        alphas, lambdas = random_params(rng, ratio_max=20.0)
        if len(alphas) == 1:
            continue
        p = GammaSumParams(alphas, lambdas)
        d = derive_params(p)
        x = float(sum(a * l for a, l in zip(alphas, lambdas)))
        c = d.c_max_abs
        vals = [
            cdf(p, x, QuadratureConfig(r=c + f * (1.0 - c))).value
            for f in (0.1, 0.5, 0.9)
        ]
        assert max(vals) - min(vals) <= 1e-8


def test_cdf_estimate_matches_refinement_levels():
    p = GammaSumParams((0.7, 1.3, 2.0), (0.5, 1.0, 4.0))
    cfg = QuadratureConfig()
    est = cdf(p, 6.0, cfg)
    d = derive_params(p)
    r = choose_r(d, cfg)
    seen = []
    for n, v in _refinement_levels(d, 6.0, r, cfg):
        seen.append((n, v))
        if len(seen) >= 2 and abs(seen[-1][1] - seen[-2][1]) <= cfg.tol:
            break
    assert est.nodes_used == seen[-1][0]
    assert est.err_estimate == abs(seen[-1][1] - seen[-2][1])
    assert est.raw_value == seen[-1][1]
    assert est.value == min(1.0, max(0.0, est.raw_value))


def test_cdf_raw_value_stays_near_unit_interval():
    rng = np.random.default_rng(59)
    cfg = QuadratureConfig()
    for _ in range(25):
        alphas, lambdas = random_params(rng, ratio_max=15.0)
        p = GammaSumParams(alphas, lambdas)
        mean = sum(a * l for a, l in zip(alphas, lambdas))
        x = float(rng.uniform(0.01, 3.0) * mean)
        est = cdf(p, x, cfg)
        assert -10.0 * cfg.tol <= est.raw_value <= 1.0 + 10.0 * cfg.tol
        assert 0.0 <= est.value <= 1.0


def test_cdf_monotone_in_x():
    p = GammaSumParams((0.6, 1.9), (1.0, 5.0))
    xs = np.linspace(0.1, 25.0, 12)
    vals = [cdf(p, float(x)).value for x in xs]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12


def test_cdf_nonconvergence_carries_estimate():
    p = GammaSumParams((1.0, 1.0), (1.0, 50.0))
    cfg = QuadratureConfig(n_start=16, n_max=32, tol=1e-14)
    with pytest.raises(ConvergenceError) as info:
        cdf(p, 30.0, cfg)
    est = info.value.estimate
    assert isinstance(est, CdfEstimate)
    assert est.nodes_used == 32
    assert est.err_estimate > 1e-14


def test_cdf_k20_reproducer_estimate_is_accurate():
    # the quadrature still misses tol within n_max, but the estimate it
    # carries is built from accurate coefficients
    p = GammaSumParams((2.0,) * 20, np.linspace(0.1, 10.0, 20))
    with pytest.raises(ConvergenceError) as info:
        cdf(p, 200.0)
    assert abs(info.value.estimate.value - REF_K20) <= 1e-9


def test_quantile_round_trip():
    p = GammaSumParams((1.0, 1.0), (1.0, 3.0))
    for prob in (0.05, 0.5, 0.9):
        xq = quantile(p, prob)
        assert abs(cdf(p, xq).value - prob) <= 1e-8
    with pytest.raises(DomainError):
        quantile(p, 0.0)
    with pytest.raises(DomainError):
        quantile(p, 1.0)
