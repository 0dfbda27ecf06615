"""Special-function layer: accuracy tables, identities, domain checks."""

import math

import numpy as np
import pytest

from gammasum.errors import DomainError
from gammasum.special import gamma_pdf, reg_lower_gamma

from helpers import lower_gamma_series

# 50-digit reference evaluations, frozen.
P_TABLE = [
    (2.0, 1.0, 0.26424111765711535681),
    (0.5, 1.0, 0.84270079294971486934),
    (3.0, 2.0, 0.32332358381693654053),
    (0.5, 0.35, 0.59721630575352431828),
    (7.25, 11.0, 0.9075562815072965468),
    (950.0, 900.0, 0.050427990881492953602),
    (1e4, 1e4, 0.50132980833995520038),
    (0.001, 0.002, 0.9943756646255674466),
]


def test_gamma_pdf_reference_and_edges():
    want = 0.87878257893544479409
    assert abs(gamma_pdf(0.5, 0.25) - want) <= 1e-14
    # x = 0: finite only for shape >= 1
    assert gamma_pdf(1.0, 0.0) == 1.0
    assert gamma_pdf(2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        gamma_pdf(0.5, 0.0)


def test_reg_lower_gamma_reference_values():
    for a, x, want in P_TABLE:
        got = reg_lower_gamma(a, x)
        assert abs(got - want) <= 1e-14 * abs(want), (a, x, got, want)


def test_reg_lower_gamma_against_naive_series():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        a = float(rng.uniform(0.3, 12.0))
        x = float(rng.uniform(0.0, 20.0))
        got = reg_lower_gamma(a, x)
        want = lower_gamma_series(a, x)
        assert abs(got - want) <= 1e-12


def test_reg_lower_gamma_recurrence():
    # P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1), checked across the
    # stated parameter box.
    rng = np.random.default_rng(91)
    for _ in range(400):
        a = float(rng.uniform(0.3, 20.0))
        x = float(rng.uniform(0.0, 50.0))
        lhs = reg_lower_gamma(a + 1.0, x)
        if x == 0.0:
            step = 0.0
        else:
            step = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
        rhs = reg_lower_gamma(a, x) - step
        assert abs(lhs - rhs) <= 1e-12, (a, x, lhs, rhs)


def test_reg_lower_gamma_range_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = float(rng.uniform(0.3, 30.0))
        xs = np.sort(rng.uniform(0.0, 60.0, size=5))
        vals = [reg_lower_gamma(a, float(x)) for x in xs]
        for v in vals:
            assert 0.0 <= v <= 1.0
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-15
    assert reg_lower_gamma(3.7, 0.0) == 0.0


def test_reg_lower_gamma_domain_errors():
    with pytest.raises(DomainError):
        reg_lower_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        reg_lower_gamma(1.0, -0.5)
    with pytest.raises(DomainError):
        reg_lower_gamma(math.nan, 1.0)


def test_half_integer_shapes_reduce_to_erf():
    # P(1/2 + n, y) = erf(sqrt(y)) - e^-y sum_{k=1}^{n} y^(k-1/2)/Gamma(k+1/2)
    for n in range(6):
        for y in (0.3, 1.0, 4.7):
            tail = sum(
                y ** (k - 0.5) / math.gamma(k + 0.5) for k in range(1, n + 1)
            )
            want = math.erf(math.sqrt(y)) - math.exp(-y) * tail
            got = reg_lower_gamma(0.5 + n, y)
            assert abs(got - want) <= 1e-12, (n, y)


def test_integer_shapes_reduce_to_poisson_tail():
    # P(1 + n, y) = 1 - e^-y sum_{k=0}^{n} y^k / k!
    for n in range(6):
        for y in (0.3, 1.0, 4.7):
            want = 1.0 - math.exp(-y) * sum(
                y**k / math.factorial(k) for k in range(n + 1)
            )
            got = reg_lower_gamma(1.0 + n, y)
            assert abs(got - want) <= 1e-12, (n, y)
