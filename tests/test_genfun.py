"""Generating series: the kernel, its closed-form references, bounds, edges."""

import cmath
import math

import numpy as np
import pytest

import gammasum.genfun as genfun
from gammasum.errors import ConvergenceError, DomainError
from gammasum.genfun import (
    GfunResult,
    _gamma_tail_coefficients,
    _geometric_coefficients,
    _horner,
    g_series,
)
from gammasum.special import reg_lower_gamma

from closed_forms import g_at_one, g_closed, g_closed_alt


def test_reference_value_series():
    # 50-digit reference, frozen.
    y = 0.6 * cmath.exp(1j * math.pi / 3.0)
    want = 0.97797138333347004626 + 0.32603839087929072702j
    res = g_series(0.5, 1.2, y, tol=1e-15)
    assert isinstance(res, GfunResult)
    assert abs(res.value - want) <= 1e-13
    assert res.terms_used >= 1
    assert res.tail_bound >= 0.0


def test_reference_value_at_one():
    # G at y = 1 for a = 2, x = 2 equals 1 + e^-2 exactly.
    want = 1.1353352832366126919
    assert abs(g_at_one(2.0, 2.0) - want) <= 1e-14
    assert abs(g_at_one(2.0, 2.0) - (1.0 + math.exp(-2.0))) <= 1e-15


def test_reference_value_closed_alt():
    want = 0.78693868057473315279
    got = g_closed_alt(1.0, 1.0, 0.5 + 0j)
    assert abs(got - want) <= 1e-13


def test_tail_bound_is_honest():
    # The reported bound must dominate the distance to a much tighter run.
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = float(rng.uniform(0.3, 6.0))
        x = float(rng.uniform(0.0, 15.0))
        rho = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        y = rho * cmath.exp(1j * theta)
        loose = g_series(a, x, y, tol=1e-6)
        tight = g_series(a, x, y, tol=1e-15)
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-15


def _unit_weight(n):
    return np.zeros(n.shape)


def test_tail_coefficients_match_direct_cdf():
    coeffs, bound = _gamma_tail_coefficients(1.37, 4.2, _unit_weight, 1e-300)
    assert coeffs.size > 30 and 0.0 <= bound < 1e-300
    for n in range(30):
        assert abs(coeffs[n] - reg_lower_gamma(1.37 + n, 4.2)) <= 1e-12, n
    rng = np.random.default_rng(37)
    for _ in range(100):
        a = float(rng.uniform(0.3, 6.0))
        x = float(rng.uniform(0.0, 30.0))
        coeffs, _ = _geometric_coefficients(a, x, 0.9, 1e-15)
        for n in range(min(30, coeffs.size)):
            assert abs(coeffs[n] - reg_lower_gamma(a + n, x)) <= 1e-12, (a, x, n)


def test_tail_coefficients_relative_accuracy():
    # 20-digit mpmath values, frozen (tests/tools/make_references.py).
    # At x = 1010, exp(-x) underflows; at n = 90 the coefficient sits
    # three orders below the roundoff floor of P(10, 34.5).
    cases = {
        (40.0, 1010.0): {
            0: 1.0,
            1000: 0.17644522077835822514,
            1200: 1.5181349946901832737e-12,
        },
        (10.0, 34.5): {
            78: 1.9397586501950095755e-14,
            90: 1.0212432660531124989e-19,
        },
    }
    for (a, x), want in cases.items():
        coeffs, _ = _gamma_tail_coefficients(a, x, _unit_weight, 1e-250)
        for n, ref in want.items():
            assert abs(coeffs[n] - ref) <= 1e-11 * ref, (a, x, n)


def test_tail_coefficients_termwise_identity():
    # P(a+n-1, x) - P(a+n, x) = x^(a+n-1) e^-x / Gamma(a+n)
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = float(rng.uniform(0.3, 5.0))
        x = float(rng.uniform(0.05, 20.0))
        coeffs, _ = _gamma_tail_coefficients(a, x, _unit_weight, 1e-100)
        for n in range(1, 15):
            want = math.exp(
                (a + n - 1.0) * math.log(x) - x - math.lgamma(a + n)
            )
            assert abs((coeffs[n - 1] - coeffs[n]) - want) <= 1e-12, (a, x, n)


def test_coefficient_stream_cap_decays_past_stall():
    # the coefficients keep decaying far past the roundoff floor of P(a, x),
    # so truncation at a radius just below one still stops
    coeffs, bound = _geometric_coefficients(0.75, 13.4, 0.9999995, 1e-10)
    assert 0 < coeffs.size < 120 and 0.0 <= bound < 1e-10
    assert np.all(np.diff(coeffs) <= 0.0)
    with pytest.raises(ConvergenceError):
        _gamma_tail_coefficients(1.0, 25.0, _unit_weight, 1e-15, max_terms=5)


def test_tail_coefficients_window_follows_the_weight(monkeypatch):
    # At x = 1e7 the weight alone stops the series 41 terms in, long
    # before the peak index round(x - a): the window must end near the
    # stop, so the backward sum is seeded with P(a+m, x) for a small m.
    seeds = []

    def recording(a, x):
        seeds.append(a)
        return reg_lower_gamma(a, x)

    monkeypatch.setattr(genfun, "reg_lower_gamma", recording)
    coeffs, bound = _geometric_coefficients(2.0, 1e7, 0.5, 1e-12)
    assert coeffs.size == 41 and 0.0 <= bound < 1e-12
    assert np.all(coeffs == 1.0)
    assert seeds and max(seeds) - 2.0 <= coeffs.size + 64


def test_internal_series_accepts_radii_near_one():
    # The package-private evaluator has no 1 - 1e-6 cap; the public one does.
    coeffs, bound = _geometric_coefficients(1.0, 2.0, 0.9999995, 1e-10)
    assert 0 < coeffs.size < 120 and 0.0 <= bound < 1e-10
    assert _horner(coeffs, np.array([0.9999995 + 0j]))[0].imag == 0.0
    with pytest.raises(DomainError):
        _geometric_coefficients(1.0, 2.0, 1.0, 1e-10)


def test_series_monotone_bound():
    # |G(a; x, y)| <= 1/(1 - |y|) since every coefficient is in [0, 1].
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = float(rng.uniform(0.3, 8.0))
        x = float(rng.uniform(0.0, 30.0))
        rho = float(rng.uniform(0.05, 0.9))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        y = rho * cmath.exp(1j * theta)
        res = g_series(a, x, y)
        assert abs(res.value) <= 1.0 / (1.0 - rho) + 1e-12


def test_three_route_agreement():
    rng = np.random.default_rng(19)
    for _ in range(100):
        a = float(rng.uniform(0.3, 8.0))
        x = float(rng.uniform(0.0, 30.0))
        rho = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        y = rho * cmath.exp(1j * theta)
        s = g_series(a, x, y, tol=1e-15).value
        c = g_closed(a, x, y)
        assert abs(s - c) <= 1e-9, (a, x, y)
        if a >= 1.0:
            alt = g_closed_alt(a, x, y)
            assert abs(s - alt) <= 1e-9, (a, x, y)


def test_conjugate_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = float(rng.uniform(0.3, 6.0))
        x = float(rng.uniform(0.0, 20.0))
        y = complex(rng.uniform(-0.7, 0.7), rng.uniform(0.05, 0.6))
        if abs(y) > 1.0 - 1e-6:
            continue
        lhs = g_series(a, x, y.conjugate()).value
        rhs = g_series(a, x, y).value.conjugate()
        assert abs(lhs - rhs) <= 1e-14


def test_at_one_is_series_limit():
    # the true gap is about 1e-4 * sum_n n P(a+n, x), which stays under
    # 1e-3 only for modest x; larger x would need a smaller offset
    near = g_series(2.0, 2.0, 1.0 - 1e-4, tol=1e-15).value
    assert abs(near - g_at_one(2.0, 2.0)) <= 1e-3
    rng = np.random.default_rng(29)
    for _ in range(30):
        a = float(rng.uniform(0.3, 5.0))
        x = float(rng.uniform(0.1, 4.0))
        near = g_series(a, x, 1.0 - 1e-4, tol=1e-15).value
        lim = g_at_one(a, x)
        assert abs(near - lim) <= 1e-3, (a, x)


def test_real_nonnegative_argument_gives_real_series():
    res = g_series(2.2, 3.0, 0.55)
    assert abs(res.value.imag) == 0.0
    total = sum(
        reg_lower_gamma(2.2 + n, 3.0) * 0.55**n for n in range(80)
    )
    assert abs(res.value.real - total) <= 1e-12


def test_x_zero_gives_zero():
    assert g_series(1.5, 0.0, 0.4 + 0.2j).value == 0j
    assert g_closed(1.5, 0.0, 0.4 + 0.2j) == 0j
    assert g_at_one(1.5, 0.0) == 0.0


def test_domain_validation():
    with pytest.raises(DomainError):
        g_series(1.0, 1.0, 1.0 - 1e-7)
    with pytest.raises(DomainError):
        g_series(1.0, 1.0, 0.5, tol=1e-16)
    with pytest.raises(DomainError):
        g_series(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        g_series(1.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        g_closed(1.0, 1.0, 1.0 + 1e-5 + 0j)
    with pytest.raises(DomainError):
        g_closed(1.0, 1.0, 0.99999 + 0j)
    with pytest.raises(DomainError):
        g_closed_alt(0.7, 1.0, 0.5)
    with pytest.raises(ConvergenceError):
        g_series(1.0, 25.0, 0.9999 * cmath.exp(0.3j), tol=1e-15, max_terms=5)


def test_geometric_coefficients_and_horner_match_series():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = float(rng.uniform(0.3, 5.0))
        x = float(rng.uniform(0.1, 15.0))
        r = float(rng.uniform(0.2, 0.95))
        coeffs, bound = _geometric_coefficients(a, x, r, 1e-13)
        assert bound < 1e-13
        direct_coeffs = [reg_lower_gamma(a + n, x) for n in range(coeffs.size + 400)]
        thetas = rng.uniform(-math.pi, math.pi, size=8)
        ys = r * np.exp(1j * thetas)
        direct = np.array(
            [sum(c * yv**n for n, c in enumerate(direct_coeffs)) for yv in ys]
        )
        assert np.abs(_horner(coeffs, ys) - direct).max() <= 1e-12

