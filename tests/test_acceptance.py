"""Acceptance suite: nine go/no-go checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines on passing runs as well.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from gammasum import (
    GammaSumParams,
    QuadratureConfig,
    MvGammaParams,
    cdf,
    g_series,
    mc_cdf,
    mc_mvgamma,
    mc_qform,
    mv_cdf,
    qform_cdf,
    reg_lower_gamma,
    series_cdf,
)
from gammasum.core import _radius, _refinement_levels, derive_params
from gammasum.mvgamma import MvDerived, _axis_coefficients, _grid_value
from gammasum.qform import SymMatrix

from closed_forms import g_at_one, g_closed, g_closed_alt
from helpers import hypoexp_cdf, lower_gamma_series, random_params, random_spd


def _verdict(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num} ({label}): {status} | {detail}")
    assert passed, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_closed_form_golden_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(6):
        for y in (0.3, 1.0, 4.7):
            poisson = math.fsum(
                y**k / math.factorial(k) for k in range(n + 1)
            )
            integer_form = 1.0 - math.exp(-y) * poisson
            worst = max(worst, abs(reg_lower_gamma(1.0 + n, y) - integer_form))
            tail = math.fsum(
                y ** (k - 0.5) / math.gamma(k + 0.5) for k in range(1, n + 1)
            )
            half_form = math.erf(math.sqrt(y)) - math.exp(-y) * tail
            worst = max(worst, abs(reg_lower_gamma(0.5 + n, y) - half_form))
    dt = time.perf_counter() - t0
    _verdict(
        1,
        "closed-form golden suite",
        worst <= 1e-12 and dt < 1.0,
        f"max abs err {worst:.3e} over 36 cases in {dt:.2f}s",
    )


def test_criterion_2_generating_function_routes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.3, 8.0))
        x = float(rng.uniform(0.0, 30.0))
        rho = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        y = rho * complex(math.cos(theta), math.sin(theta))
        ref = g_series(a, x, y, tol=1e-13).value
        worst = max(worst, abs(g_closed(a, x, y) - ref))
        if a >= 1.0:
            worst = max(worst, abs(g_closed_alt(a, x, y) - ref))
    # the 1e-3 boundary tolerance encodes modest x: the true gap scales
    # as 1e-4 * sum_n n P(a+n, x) and crosses 1e-3 near x = 4
    edge = abs(
        g_series(2.0, 2.0, complex(1.0 - 1e-4, 0.0), tol=1e-13).value
        - g_at_one(2.0, 2.0)
    )
    for _ in range(10):
        a = float(rng.uniform(0.3, 8.0))
        x = float(rng.uniform(0.0, 4.0))
        near = g_series(a, x, complex(1.0 - 1e-4, 0.0), tol=1e-13).value
        edge = max(edge, abs(near - g_at_one(a, x)))
    dt = time.perf_counter() - t0
    _verdict(
        2,
        "generating-function route agreement",
        worst <= 1e-9 and edge <= 1e-3 and dt < 5.0,
        f"route spread {worst:.3e}, boundary gap {edge:.3e} in {dt:.2f}s",
    )


def test_criterion_3_exact_reductions():
    t0 = time.perf_counter()
    lam = 1.7
    expo = GammaSumParams((1.0,), (lam,))
    worst_e = 0.0
    for x in np.linspace(0.05, 12.0, 20):
        ref = -math.expm1(-x / lam)
        worst_e = max(worst_e, abs(cdf(expo, float(x)).value - ref))
    equal = GammaSumParams((0.4, 1.1, 2.0), (2.5, 2.5, 2.5))
    worst_eq = 0.0
    for x in (2.5, 8.75, 22.5):
        ref = lower_gamma_series(3.5, x / 2.5)
        worst_eq = max(worst_eq, abs(cdf(equal, x).value - ref))
    tight = QuadratureConfig(tol=1e-12)
    worst_h = 0.0
    for lambdas in ((1.0, 3.0), (0.5, 1.3, 2.9)):
        p = GammaSumParams((1.0,) * len(lambdas), lambdas)
        for x in np.linspace(0.1, 15.0, 12):
            ref = hypoexp_cdf(lambdas, float(x))
            worst_h = max(worst_h, abs(cdf(p, float(x), tight).value - ref))
    dt = time.perf_counter() - t0
    ok = worst_e <= 1e-12 and worst_eq <= 1e-10 and worst_h <= 1e-10
    _verdict(
        3,
        "exact reductions",
        ok and dt < 5.0,
        f"exponential {worst_e:.3e}, equal-scale {worst_eq:.3e}, "
        f"hypoexponential {worst_h:.3e} in {dt:.2f}s",
    )


def test_criterion_4_contour_radius_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        alphas, lambdas = random_params(rng, k_max=6, ratio_max=50.0)
        p = GammaSumParams(alphas, lambdas)
        mean = math.fsum(a * l for a, l in zip(alphas, lambdas))
        x = mean * float(rng.uniform(0.5, 1.5))
        c = derive_params(p).c_max_abs
        vals = []
        for f in (0.25, 0.5, 0.85):
            r = c + f * (1.0 - c)
            vals.append(cdf(p, x, QuadratureConfig(r=r, tol=1e-9)).value)
        worst = max(worst, max(vals) - min(vals))
    dt = time.perf_counter() - t0
    _verdict(
        4,
        "contour-radius invariance",
        worst <= 1e-8 and dt < 30.0,
        f"max pairwise spread {worst:.3e} over 20 sets x 3 radii in {dt:.1f}s",
    )


def test_criterion_5_dual_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_series = 0.0
    worst_z = 0.0
    compared = 0
    for _ in range(10):
        alphas, lambdas = random_params(rng, ratio_max=8.0)
        p = GammaSumParams(alphas, lambdas)
        mean = math.fsum(a * l for a, l in zip(alphas, lambdas))
        x = mean * float(rng.uniform(0.6, 1.4))
        est = cdf(p, x)
        sr = series_cdf(p, x, tol=1e-10)
        if sr.tail_bound <= 1e-10:
            worst_series = max(worst_series, abs(est.value - sr.value))
            compared += 1
        mc = mc_cdf(p, x, n_samples=10**6, seed=int(rng.integers(2**31)))
        z = abs(est.value - mc.estimate) / mc.std_error
        worst_z = max(worst_z, z)
    dt = time.perf_counter() - t0
    ok = compared >= 1 and worst_series <= 1e-8 and worst_z <= 4.0
    _verdict(
        5,
        "dual-oracle agreement",
        ok and dt < 120.0,
        f"series diff {worst_series:.3e} on {compared}/10 sets, "
        f"max |z| {worst_z:.2f} vs 1e6-sample Monte Carlo in {dt:.1f}s",
    )


def test_criterion_6_quadratic_form():
    t0 = time.perf_counter()
    worst_chi = 0.0
    for k in range(1, 7):
        eye = np.eye(k)
        for x in (0.8, 2.0, 5.5):
            ref = reg_lower_gamma(0.5 * k, 0.5 * x)
            worst_chi = max(worst_chi, abs(qform_cdf(eye, eye, x).value - ref))
    rng = np.random.default_rng(6)
    worst_prop = 0.0
    for dim in (2, 3, 4):
        sigma = random_spd(rng, dim)
        cmat = random_spd(rng, dim)
        x = float(np.trace(sigma @ cmat)) * float(rng.uniform(0.5, 1.2))
        base = qform_cdf(sigma, cmat, x).value
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rot = qform_cdf(q @ sigma @ q.T, q @ cmat @ q.T, x).value
        worst_prop = max(worst_prop, abs(rot - base))
        t = 3.7
        worst_prop = max(
            worst_prop, abs(qform_cdf(t * sigma, cmat, t * x).value - base)
        )
        worst_prop = max(
            worst_prop, abs(qform_cdf(sigma, t * cmat, t * x).value - base)
        )
    sigma2 = np.array([[2.0, 1.0], [1.0, 2.0]])
    diag13 = np.diag([1.0, 3.0])
    est = qform_cdf(sigma2, diag13, 10.0).value
    mc = mc_qform(sigma2, diag13, 10.0, n_samples=10**6, seed=66)
    z = abs(est - mc.estimate) / mc.std_error
    dt = time.perf_counter() - t0
    ok = worst_chi <= 1e-10 and worst_prop <= 1e-9 and z <= 4.0
    _verdict(
        6,
        "quadratic form",
        ok and dt < 60.0,
        f"chi-square err {worst_chi:.3e}, invariance spread {worst_prop:.3e}, "
        f"anisotropic |z| {z:.2f} in {dt:.1f}s",
    )


def test_criterion_7_spectral_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for _ in range(5):
        alphas, lambdas = random_params(rng, ratio_max=4.0)
        while len(alphas) < 2:
            alphas, lambdas = random_params(rng, ratio_max=4.0)
        p = GammaSumParams(alphas, lambdas)
        x = 0.9 * math.fsum(a * l for a, l in zip(alphas, lambdas))
        cfg = QuadratureConfig(n_start=16, n_max=8192, tol=1e-13)
        d = derive_params(p)
        r = _radius(d.c_max_abs, cfg)
        vals = [v for _, v in _refinement_levels(d, x, r, cfg)]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        reached = False
        prev = None
        for dd in diffs:
            if dd <= 1e-12:
                reached = True
                break
            if prev is not None:
                worst_ratio = max(worst_ratio, dd / prev)
            prev = dd
        assert reached, f"no level pair within 1e-12 for {p}"
    dt = time.perf_counter() - t0
    _verdict(
        7,
        "spectral convergence",
        worst_ratio < 0.9 and dt < 10.0,
        f"worst per-doubling decay ratio {worst_ratio:.3e} before the "
        f"1e-12 floor, 5 sets in {dt:.1f}s",
    )


def test_criterion_8_multivariate_factorization_and_calibration():
    t0 = time.perf_counter()
    worst_p1 = 0.0
    for a, s, x in ((0.7, 2.0, 1.5), (1.6, 0.8, 2.0), (3.2, 1.0, 4.0)):
        uni = cdf(GammaSumParams((a,), (s,)), x).value
        joint = mv_cdf(MvGammaParams(a, [[s]]), (x,)).value
        worst_p1 = max(worst_p1, abs(joint - uni))
    d1 = MvDerived(1.7, 1.0, SymMatrix(np.zeros((1, 1))), 0.0, 0.0)
    grid1 = _grid_value(d1, _axis_coefficients(d1, (2.4,), 0.5, 1e-12), 0.5, 64)
    worst_p1 = max(worst_p1, abs(grid1 - reg_lower_gamma(1.7, 2.4)))
    d2 = MvDerived(0.9, 1.0, SymMatrix(np.zeros((2, 2))), 0.0, 0.0)
    grid2 = _grid_value(
        d2, _axis_coefficients(d2, (1.1, 2.6), 0.45, 1e-12), 0.45, 48
    )
    ref2 = reg_lower_gamma(0.9, 1.1) * reg_lower_gamma(0.9, 2.6)
    worst_fac = abs(grid2 - ref2)
    diag = MvGammaParams(1.4, [[1.0, 0.0], [0.0, 3.0]])
    est_diag = mv_cdf(diag, (1.2, 2.9))
    ref_diag = reg_lower_gamma(1.4, 1.2) * reg_lower_gamma(1.4, 2.9 / 3.0)
    worst_fac = max(worst_fac, abs(est_diag.value - ref_diag))
    assert est_diag.nodes_used > 0
    sigma2 = [[2.0, 1.0], [1.0, 2.0]]
    est = mv_cdf(MvGammaParams(1.0, sigma2), (3.0, 3.0)).value
    mc = mc_mvgamma(1.0, sigma2, (3.0, 3.0), n_samples=10**6, seed=8)
    z = abs(est - mc.estimate) / mc.std_error
    dt = time.perf_counter() - t0
    ok = worst_p1 <= 1e-9 and worst_fac <= 1e-8 and z <= 4.0
    _verdict(
        8,
        "multivariate factorization and calibration",
        ok and dt < 180.0,
        f"p=1 gap {worst_p1:.3e}, factorization gap {worst_fac:.3e}, "
        f"Wishart-diagonal |z| {z:.2f} in {dt:.1f}s",
    )


def test_criterion_9_cli_determinism_and_batch(tmp_path):
    t0 = time.perf_counter()
    argv = [
        sys.executable, "-m", "gammasum", "gamma-sum",
        "--alphas", "0.8", "1.2", "--lambdas", "1", "2.5", "--x", "3",
    ]
    out_a = subprocess.run(argv, capture_output=True, timeout=120).stdout
    out_b = subprocess.run(argv, capture_output=True, timeout=120).stdout
    identical = out_a == out_b and len(out_a) > 0

    bad = {
        20: "this line is not json {",
        50: json.dumps(
            {"command": "gamma-sum",
             "params": {"alphas": [1.0], "lambdas": [-1.0], "x": 1.0}}
        ),
        80: json.dumps({"command": "frobnicate"}),
    }
    xs = iter(np.linspace(0.1, 14.0, 97))
    lines = []
    for i in range(100):
        if i in bad:
            lines.append(bad[i])
        else:
            lines.append(json.dumps(
                {"command": "gamma-sum",
                 "params": {"alphas": [0.8, 1.2], "lambdas": [1.0, 2.5],
                            "x": float(next(xs))}}
            ))
    path = tmp_path / "sweep.jsonl"
    path.write_text("\n".join(lines) + "\n")

    from io import StringIO
    from gammasum.cli import run

    buf = StringIO()
    code = run(["batch", str(path)], out=buf)
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    isolated = (
        code == 2
        and len(records) == 100
        and all("error" in records[i] for i in bad)
        and all("cdf" in rec for i, rec in enumerate(records) if i not in bad)
    )
    sweep = [rec["cdf"] for i, rec in enumerate(records) if i not in bad]
    monotone = all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))
    dt = time.perf_counter() - t0
    _verdict(
        9,
        "cli determinism and batch isolation",
        identical and isolated and monotone and dt < 30.0,
        f"byte-identical output, 100 records with {len(bad)} isolated "
        f"errors, monotone sweep in {dt:.1f}s",
    )
