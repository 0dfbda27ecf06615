"""Shared reference implementations for the test suite.

Everything here is deliberately naive: series summed term by term,
coefficients built by polynomial convolution, closed forms typed in
from first principles. The point is independence from the library's
own algorithms, not speed.
"""

import math

import numpy as np


def hypoexp_cdf(lambdas, x):
    """CDF of a sum of independent exponentials with distinct scales.

    Partial fractions: F(x) = 1 - sum_i w_i e^(-x/lambda_i) with
    w_i = prod_{j != i} lambda_i / (lambda_i - lambda_j).
    """
    if x <= 0.0:
        return 0.0
    total = 1.0
    for i, li in enumerate(lambdas):
        w = 1.0
        for j, lj in enumerate(lambdas):
            if j != i:
                w *= li / (li - lj)
        total -= w * math.exp(-x / li)
    return total


def binomial_series_coefficients(alpha, c, n_terms):
    """Taylor coefficients of (1 - c y)^-alpha: rising factorial over n!."""
    out = np.empty(n_terms)
    out[0] = 1.0
    for n in range(1, n_terms):
        out[n] = out[n - 1] * c * (alpha + n - 1) / n
    return out


def brute_product_coefficients(alphas, cs, n_terms):
    """Coefficients of prod_j (1 - c_j y)^-alpha_j by direct convolution."""
    acc = np.zeros(n_terms)
    acc[0] = 1.0
    for a, c in zip(alphas, cs):
        acc = np.convolve(acc, binomial_series_coefficients(a, c, n_terms))[
            :n_terms
        ]
    return acc


def lower_gamma_series(a, x, terms=400):
    """P(a, x) summed naively from the ascending series; for modest a, x."""
    if x == 0.0:
        return 0.0
    total = 0.0
    term = 1.0 / a
    for n in range(1, terms + 1):
        total += term
        term *= x / (a + n)
    return total * math.exp(a * math.log(x) - x - math.lgamma(a))


def random_params(rng, k_max=6, ratio_max=50.0, alpha_lo=0.3, alpha_hi=4.0):
    """One random gamma-sum parameter set with a bounded scale ratio."""
    k = int(rng.integers(1, k_max + 1))
    alphas = tuple(float(a) for a in rng.uniform(alpha_lo, alpha_hi, size=k))
    ratio = float(rng.uniform(1.0, ratio_max))
    lo = float(rng.uniform(0.2, 2.0))
    lambdas = [lo, lo * ratio] if k >= 2 else [lo]
    for _ in range(k - 2):
        lambdas.append(float(rng.uniform(lo, lo * ratio)))
    return alphas, tuple(lambdas)


def random_spd(rng, dim, cond_max=10.0):
    """Random symmetric positive definite matrix with bounded conditioning."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = rng.uniform(1.0, cond_max, size=dim)
    return (q * w) @ q.T


def large_shape_sum(alpha):
    """(alphas, lambdas, x) of 60 gamma variables of shape alpha with
    scales geomspace(1, 30, 60) and x at the mean: total shape 600
    (alpha = 10) and above leaves double precision in the routes'
    prefactor times product."""
    lambdas = tuple(float(l) for l in np.geomspace(1.0, 30.0, 60))
    return (float(alpha),) * 60, lambdas, sum(alpha * l for l in lambdas)
