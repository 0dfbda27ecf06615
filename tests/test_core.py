"""Core quadrature engine: reparametrization, integrand, cdf, quantile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasum import core
from gammasum.core import (
    CdfEstimate,
    GammaSumParams,
    QuadratureConfig,
    _estimate,
    _integrand_values,
    _quantile,
    _radius,
    _refinement_levels,
    cdf,
    derive_params,
    quantile,
)
from gammasum.errors import ConfigError, ConvergenceError, DomainError
from gammasum.genfun import _geometric_coefficients
from gammasum.special import gamma_pdf, reg_lower_gamma

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
    assert _radius(d.c_max_abs, QuadratureConfig()) == 0.75
    assert _radius(d.c_max_abs, QuadratureConfig(r=0.6)) == 0.6
    with pytest.raises(ConfigError):
        _radius(d.c_max_abs, QuadratureConfig(r=0.4))  # below c_max = 0.5


def test_quadrature_config_validation():
    with pytest.raises(ConfigError):
        QuadratureConfig(r=1.5)
    with pytest.raises(ConfigError):
        QuadratureConfig(r=0.0)
    with pytest.raises(ConfigError):
        QuadratureConfig(n_start=64, n_max=100)
    with pytest.raises(ConfigError):
        QuadratureConfig(tol=0.0)
    for bad in ({"n_max": math.inf}, {"n_start": math.nan}, {"n_start": 16.7},
                {"n_start": "16x"}, {"r": "x"}, {"tol": "x"}):
        with pytest.raises(ConfigError):
            QuadratureConfig(**bad)
    cfg = QuadratureConfig()
    assert (cfg.r, cfg.n_start, cfg.n_max, cfg.tol) == (None, 16, 65536, 1e-10)
    cfg = QuadratureConfig(n_start=16.0, n_max=64.0)
    assert (cfg.n_start, cfg.n_max) == (16, 64) and type(cfg.n_start) is int


def _integrand_at(phis, x, d, r):
    """The quadrature's integrand at the angles phis."""
    coeffs, _ = _geometric_coefficients(d.alpha_total, d.v * x, r, 1e-13)
    return _integrand_values(
        np.asarray(phis, dtype=float), r, np.asarray(d.alphas), np.asarray(d.c),
        coeffs,
    ).real


def test_integrand_reference_value():
    d = derive_params(GammaSumParams((1.0, 1.0), (1.0, 3.0)))
    got = _integrand_at([math.pi / 2.0], 2.0, d, 0.75)[0]
    assert abs(got - REF_INTEGRAND) <= 1e-10


def test_integrand_even_in_phi_and_edges():
    d = derive_params(GammaSumParams((0.8, 1.7), (0.5, 2.0)))
    rng = np.random.default_rng(43)
    for _ in range(20):
        phi = float(rng.uniform(0.0, math.pi))
        plus, minus = _integrand_at([phi, -phi], 3.0, d, 0.8)
        assert abs(plus - minus) <= 1e-14
    assert _integrand_at([1.0], 0.0, d, 0.8)[0] == 0.0


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
    r = _radius(d.c_max_abs, cfg)
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
    # below the double range: the bracket collapses onto 0
    with pytest.raises(ConvergenceError) as info:
        quantile(GammaSumParams((0.1,), (2.0,)), 1e-300)
    assert type(info.value.estimate) is float


def test_evaluator_density_hypoexponential():
    p = GammaSumParams((1.0, 1.0), (1.0, 3.0))
    for x in (0.05, 0.7, 2.0, 6.0, 25.0):
        density = _estimate(p, x, QuadratureConfig())[1]()
        assert abs(density - (math.exp(-x / 3.0) - math.exp(-x)) / 2.0) <= 1e-10


def test_evaluator_density_equal_scale():
    p = GammaSumParams((0.7, 1.8), (2.5, 2.5))
    for x in (0.01, 1.0, 4.0, 30.0):
        est, density = _estimate(p, x, QuadratureConfig())
        assert est.nodes_used == 0
        assert density() == gamma_pdf(2.5, x / 2.5) / 2.5
    assert _estimate(p, -1.0, QuadratureConfig())[1]() == 0.0
    # below shape 1 the density diverges at 0 and overflows next to it,
    # where the CDF itself is still computed
    for lam in (1.0, 4.0):
        p = GammaSumParams((0.01,), (lam,))
        est, density = _estimate(p, 5e-324, QuadratureConfig())
        assert est.value == reg_lower_gamma(0.01, 5e-324 / lam)
        assert density() == math.inf


def test_evaluator_density_matches_cdf_central_difference():
    p = GammaSumParams((0.7, 1.3, 2.0, 0.9, 1.6), tuple(np.geomspace(1.0, 10.0, 5)))
    cfg = QuadratureConfig(tol=1e-13)
    mean = math.fsum(a * l for a, l in zip(p.alphas, p.lambdas))
    h = 1e-3
    for x in (0.3 * mean, mean, 2.5 * mean):
        est, density = _estimate(p, x, cfg)
        assert est == cdf(p, x, cfg)
        diff = (cdf(p, x + h, cfg).value - cdf(p, x - h, cfg).value) / (2.0 * h)
        assert abs(diff - density()) <= 1e-7 * density()


def test_quantile_newton_evaluation_count(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return evaluate(*args)

    evaluate = core._estimate
    monkeypatch.setattr(core, "_estimate", counting)
    probs = np.linspace(0.02, 0.98, 9)
    rng = np.random.default_rng(11)
    for _ in range(2):
        p = GammaSumParams(rng.uniform(0.5, 3.0, 10), np.geomspace(1.0, 20.0, 10))
        for prob in probs:
            x, est = _quantile(p, prob, None)
            assert type(x) is float and calls[-1] == x
            assert est == evaluate(p, x, QuadratureConfig())[0]
            assert abs(est.value - prob) <= 1e-8
    assert len(calls) / (2 * len(probs)) <= 8.0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_quantile_inverts_cdf_and_is_monotone(data):
    k = data.draw(st.integers(1, 6))
    alphas = data.draw(st.lists(st.floats(0.3, 4.0), min_size=k, max_size=k))
    ratio = data.draw(st.floats(1.0, 10.0))
    lambdas = [1.0, ratio] + data.draw(
        st.lists(st.floats(1.0, ratio), min_size=k, max_size=k)
    )
    p = GammaSumParams(alphas, lambdas[:k])
    probs = sorted(data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4)))
    xs = [quantile(p, prob) for prob in probs]
    for prob, x in zip(probs, xs):
        assert abs(cdf(p, x).value - prob) <= 1e-8
    # each root is pinned to 1e-8 in probability, so order is only
    # guaranteed between probabilities more than 2e-8 apart
    for (p1, x1), (p2, x2) in zip(zip(probs, xs), zip(probs[1:], xs[1:])):
        assert p2 - p1 <= 2e-8 or x1 <= x2
