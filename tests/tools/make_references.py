#!/usr/bin/env python3
"""Regenerate the frozen reference constants used by the test suite.

Development-only tool: requires mpmath (not a package dependency). Every
value printed here was computed with 50-digit arithmetic and then frozen
into the tests by hand. Rerun after editing to confirm the constants.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def P(a, x):
    """Regularized lower incomplete gamma (gamma cdf with unit scale)."""
    return mp.gammainc(mp.mpf(a), 0, x, regularized=True)


def genfun(a, x, y, tol=mp.mpf("1e-40")):
    """Sum of P(a+n, x) * y^n, truncated when the geometric tail is tiny."""
    a, x, y = mp.mpf(a), mp.mpf(x), mp.mpc(y)
    total = mp.mpc(0)
    n = 0
    while True:
        coef = P(a + n, x)
        total += coef * y**n
        if coef * abs(y) ** (n + 1) / (1 - abs(y)) < tol:
            return total
        n += 1
        if n > 20000:
            raise RuntimeError("genfun reference did not converge")


def gamma_sum_cdf_series(alphas, lambdas, x, tol=mp.mpf("1e-36")):
    """Gamma-convolution cdf by the binomial-coefficient power series."""
    alphas = [mp.mpf(a) for a in alphas]
    lambdas = [mp.mpf(l) for l in lambdas]
    lmax, lmin = max(lambdas), min(lambdas)
    v = (1 / lmax + 1 / lmin) / 2
    c = [1 - 1 / (v * l) for l in lambdas]
    cmax = max(abs(cj) for cj in c)
    atot = sum(alphas)
    pref = v**-atot * mp.fprod(l**-a for a, l in zip(alphas, lambdas))
    # log-derivative recurrence for the Taylor coefficients of
    # prod_j (1 - c_j z)^{-alpha_j}: n b_n = sum_m s_m b_{n-m} with the
    # power sums s_m = sum_j alpha_j c_j^m, kept as they are produced
    b = [mp.mpf(1)]
    s = [mp.mpf(0)]
    powers = list(c)
    total = pref * b[0] * P(atot, v * x)
    beta = mp.mpf(1)  # dominating coefficients of (1 - cmax z)^{-atot}
    n = 0
    while True:
        n += 1
        s.append(mp.fdot(alphas, powers))
        powers = [p * cj for p, cj in zip(powers, c)]
        bn = mp.fdot(s[1:], b[::-1]) / n
        b.append(bn)
        total += pref * bn * P(atot + n, v * x)
        beta = beta * cmax * (atot + n - 1) / n
        q = cmax * max(1, (atot + n) / (n + 1))
        if q < 1 and pref * beta * P(atot + n + 1, v * x) / (1 - q) < tol:
            return total
        if n > 5000:
            raise RuntimeError("series reference did not converge")


def gil_pelaez_cdf(alphas, lambdas, x, t_max):
    """Gamma-convolution cdf by Gil-Pelaez inversion of the characteristic
    function prod_j (1 - i lambda_j t)^{-alpha_j}, integrated over
    (0, t_max] in half periods of e^{-itx}; shares nothing with the
    series. t_max must be where |phi(t)| has fallen below the precision
    wanted."""
    alphas = [mp.mpf(a) for a in alphas]
    lambdas = [mp.mpf(l) for l in lambdas]
    x = mp.mpf(x)

    def integrand(t):
        if t == 0:
            return mp.fsum(a * l for a, l in zip(alphas, lambdas)) - x
        log_phi = -mp.fsum(
            a * mp.log(1 - mp.mpc(0, 1) * l * t) for a, l in zip(alphas, lambdas)
        )
        return mp.im(mp.exp(log_phi - mp.mpc(0, 1) * t * x)) / t

    half = mp.pi / x
    nodes = [half * j for j in range(int(t_max / half) + 2)]
    return mp.mpf(1) / 2 - mp.quad(integrand, nodes) / mp.pi


def show(label, value):
    if isinstance(value, mp.mpc):
        print(f"{label} = {mp.nstr(value.real, 20)} {mp.nstr(value.imag, 20)}j")
    else:
        print(f"{label} = {mp.nstr(mp.mpf(value), 20)}")


print("# special function references")
show("loggamma(1e-3)", mp.loggamma("0.001"))
show("loggamma(0.1)", mp.loggamma("0.1"))
show("loggamma(0.5)", mp.loggamma("0.5"))
show("loggamma(1.5)", mp.loggamma("1.5"))
show("loggamma(11)", mp.loggamma(11))
show("loggamma(123.456)", mp.loggamma("123.456"))
show("loggamma(1e4)", mp.loggamma(10000))
show("gamma_pdf(0.5,0.25)", mp.exp(mp.mpf("-0.25")) * mp.mpf("0.25") ** mp.mpf("-0.5") / mp.sqrt(mp.pi))
show("P(2,1)", P(2, 1))
show("P(0.5,1)", P("0.5", 1))
show("P(3,2)", P(3, 2))
show("P(0.5, 0.35)", P("0.5", "0.35"))
show("P(7.25, 11.0)", P("7.25", 11))
show("P(950.0, 900.0)", P(950, 900))
show("P(1e4, 1e4)", P(10000, 10000))
show("P(0.001, 0.002)", P("0.001", "0.002"))
show("erf(1)", mp.erf(1))
print()

print("# complex continuation references")
z = mp.mpc(0, 1)
show("P(2, i) = 1-exp(-z)(1+z)", 1 - mp.exp(-z) * (1 + z))
show("cpow(1+1j, -0.5)", mp.mpc(1, 1) ** mp.mpf("-0.5"))
show("P(1.6, 2+1.5j)", mp.gammainc(mp.mpf("1.6"), 0, mp.mpc(2, "1.5"), regularized=True))
print()

print("# generating function references")
y = mp.mpf("0.6") * mp.exp(mp.mpc(0, 1) * mp.pi / 3)
show("genfun(0.5, 1.2, 0.6*exp(i*pi/3))", genfun("0.5", "1.2", y))
show("genfun_at_one(2,2) = 2*2*g2(2)+(1)*P(2,2)", 2 * (2 * mp.exp(-2)) + (1 + 2 - 2) * P(2, 2))
show("same thing, 1+exp(-2)", 1 + mp.exp(-2))
show("genfun(1,1,0.5) = 2*(1-exp(-1/2))", 2 * (1 - mp.exp(mp.mpf("-0.5"))))
print()

print("# core integrand reference: alphas=(1,1), lambdas=(1,3), x=2, phi=pi/2, r=3/4")
v = mp.mpf(2) / 3
c1, c2 = mp.mpf(-1) / 2, mp.mpf(1) / 2
r = mp.mpf(3) / 4
phi = mp.pi / 2
w = mp.exp(mp.mpc(0, -1) * phi) / r
prod = (1 - c1 * w) ** mp.mpf(-1) * (1 - c2 * w) ** mp.mpf(-1)
gval = genfun(2, v * 2, r * mp.exp(mp.mpc(0, 1) * phi))
show("integrand", (prod * gval).real)
print()

print("# cdf references")
show("hypoexp lambdas=(1,2) at x=2", 1 - 2 * mp.exp(-1) + mp.exp(-2))
show(
    "cdf alphas=(0.7,1.3,2.0) lambdas=(0.5,1,4) x=6",
    gamma_sum_cdf_series(["0.7", "1.3", "2.0"], ["0.5", "1", "4"], 6),
)
show(
    "cdf alphas=(1,1) lambdas=(1,3) x=2",
    gamma_sum_cdf_series([1, 1], [1, 3], 2),
)
print()

print("# Hilbert 3x3 eigenvalues (ascending)")
H = mp.matrix([[mp.mpf(1) / (i + j + 1) for j in range(3)] for i in range(3)])
eigs = sorted(mp.eigsy(H, eigvals_only=True))
for i, e in enumerate(eigs):
    show(f"hilbert3_eig[{i}]", e)
print()

print("# qform: Sigma=[[2,1],[1,2]], C=diag(1,3): eigen of S C S, trace 8 det 9")
show("eig_lo = 4-sqrt(7)", 4 - mp.sqrt(7))
show("eig_hi = 4+sqrt(7)", 4 + mp.sqrt(7))
print()

print("# mv integrand reference: p=2 Sigma=[[2,1],[1,2]] alpha=1 xs=(2,3)")
print("#   phis=(pi/3,-pi/4), r=0.75;  C=[[0,1/2],[1/2,0]]")
y1 = mp.mpf("0.75") * mp.exp(mp.mpc(0, 1) * mp.pi / 3)
y2 = mp.mpf("0.75") * mp.exp(mp.mpc(0, -1) * mp.pi / 4)
detval = 1 - mp.mpf("0.25") / (y1 * y2)
val = detval ** mp.mpf(-1) * genfun(1, mp.mpf(4) / 3, y1) * genfun(1, 2, y2)
show("mv_integrand", val)
print()

print("# Kibble bivariate gamma cdf: shape=1, evaluated at (1.5,1.5)")
print("# Construction x_k = sum_i Z_ik^2 / 2 with corr(Z_i1,Z_i2)=r gives a")
print("# Kibble pair with rho = r^2 and scale sigma_kk, so the mv cdf for")
print("# Sigma=[[2,1],[1,2]] (r=1/2, scale 2), alpha=1, xs=(3,3) equals")
print("# kibble(alpha=1, rho=1/4) at (3/2, 3/2).")


def kibble_cdf(alpha, rho, x1, x2, tol=mp.mpf("1e-36")):
    alpha, rho, x1, x2 = (mp.mpf(str(t)) for t in (alpha, rho, x1, x2))
    total = mp.mpf(0)
    coef = mp.mpf(1)  # rho^n (alpha)_n / n!
    n = 0
    while True:
        term = coef * P(alpha + n, x1 / (1 - rho)) * P(alpha + n, x2 / (1 - rho))
        total += term
        # coefficients sum to (1-rho)^(-alpha); bound remaining mass
        if n > 4 and coef * rho / (1 - rho) < tol:
            break
        coef = coef * rho * (alpha + n) / (n + 1)
        n += 1
        if n > 100000:
            raise RuntimeError("kibble did not converge")
    return (1 - rho) ** alpha * total


show("kibble(1, 0.25, 1.5, 1.5)", kibble_cdf(1, "0.25", "1.5", "1.5"))
print()

print("# quadratic-form cdf reference via half-shape gamma sum")
print("# Sigma=[[2,1],[1,2]], C=diag(1,3), x=10: scales 4+-sqrt(7), alphas=1/2")
show(
    "qform_cdf",
    gamma_sum_cdf_series(
        ["0.5", "0.5"], [4 - mp.sqrt(7), 4 + mp.sqrt(7)], 5
    ),
)
print()

print("# gamma CDF coefficients P(a+n, x) at points where exp(-x) underflows")
print("# or the coefficient sits below the roundoff floor of P(a, x)")
for a, x, ns in ((40, 1010, (0, 1000, 1200)), (10, "34.5", (78, 90))):
    for n in ns:
        show(f"P({a}+{n}, {x})", P(a + n, mp.mpf(x)))
print()

print("# ROADMAP reproducers at x = 200, scales exactly np.linspace's doubles")
k20 = ([2] * 20, [mp.mpf(float(l)) for l in np.linspace(0.1, 10.0, 20)])
k50 = (["0.5"] * 50, [mp.mpf(float(l)) for l in np.linspace(0.01, 10.0, 50)])
mp.mp.dps = 30
show("k=20 shapes 2, Gil-Pelaez", gil_pelaez_cdf(*k20, 200, 3))
show("k=50 shapes 0.5, Gil-Pelaez (takes minutes)", gil_pelaez_cdf(*k50, 200, 12))
mp.mp.dps = 50
show("k=20 shapes 2, series", gamma_sum_cdf_series(*k20, 200))
