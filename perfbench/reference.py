"""Reference values for the benchmark, built without any gammasum code.

Every function returns ``(value, bound)`` where ``bound`` is an upper
bound on the absolute error of ``value`` (truncation plus a rounding
allowance). The benchmark counts a converged gammasum result as wrong
when it lies further than ``tol + bound`` from ``value``.

- Gamma sums and quadratic forms: Moschopoulos' positive-term series
  (Ann. Inst. Statist. Math. 37, 1985). With the smallest scale l1 and
  c_j = 1 - l1/l_j in [0, 1), the sum is the mixture
  sum_k w_k Gamma(a + k, l1) whose weights w_k >= 0 sum to one and
  follow the log-derivative recurrence. No term is negative, so there
  is no cancellation and the float rounding stays relative; P comes from
  ``scipy.special.gammainc`` and the sum from ``math.fsum``.
- Bivariate gamma (p = 2): Kibble's series in the squared correlation.
- Trivariate gamma (p = 3, 2 alpha an integer): seeded Monte Carlo of
  the diagonal of a Wishart matrix, bound 5 standard errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

EPS = 2.220446049250313e-16
MAX_TERMS = 60000
# P(a, x) from scipy carries a relative error of a few hundred ulps at
# worst over the arguments used here; charged once per evaluation.
GAMMAINC_REL = 1e-13
MC_SIGMAS = 5.0

# 20-digit mpmath values, the same constants the test suite freezes.
FROZEN = {
    "cdf_k3_x6": 0.29871216637449169898,  # alphas (.7,1.3,2), lambdas (.5,1,4)
    "kibble_1_quarter_1.5": 0.63203702656483023935,  # alpha 1, rho 1/4, (1.5, 1.5)
    "qform_2x2_x10": 0.73579039417115306031,  # sigma [[2,1],[1,2]], c diag(1,3)
}


def _mixture_weights(alphas, lambdas, y, tol):
    """Weights w_k of the gamma mixture, scaled to avoid overflow.

    Returns (w, log_scale, n): the true weight of term k is
    w[k] * exp(log_scale), for k < n. Terms are added until the weight
    mass not yet covered, times P(rho + n, y), is below ``tol``.
    """
    l1 = min(lambdas)
    c = np.array([1.0 - l1 / l for l in lambdas])
    a = np.array(alphas, dtype=float)
    rho = math.fsum(alphas)
    log_scale = math.fsum(aj * math.log(l1 / l) for aj, l in zip(alphas, lambdas))
    w = np.zeros(1024)
    w[0] = 1.0
    # g[i] = sum_j alpha_j c_j^i, so that n w_n = sum_i g_i w_(n-i)
    g = np.zeros(1024)
    cp = np.ones_like(c)
    mass = math.exp(log_scale) if log_scale > -745.0 else 0.0
    n = 1
    while n < MAX_TERMS:
        if n >= w.size:
            w = np.concatenate([w, np.zeros(w.size)])
            g = np.concatenate([g, np.zeros(g.size)])
        cp = cp * c
        g[n] = float(a @ cp)
        w[n] = float(g[1 : n + 1] @ w[n - 1 :: -1]) / n
        if w[n] > 1e250:
            w[: n + 1] *= 1e-250
            log_scale += 250.0 * math.log(10.0)
        if w[n] > 0.0 and log_scale + math.log(w[n]) > -745.0:
            mass += math.exp(log_scale + math.log(w[n]))
        n += 1
        if n % 32 == 0 and max(1.0 - mass, 0.0) * gammainc(rho + n, y) < tol:
            break
    return w[:n], log_scale, n


def gamma_sum_cdf(alphas, lambdas, x, tol=1e-15):
    """P(sum_j lambdas[j] G_j <= x) with G_j ~ Gamma(alphas[j], 1)."""
    if x <= 0.0:
        return 0.0, 0.0
    alphas = [float(a) for a in alphas]
    lambdas = [float(l) for l in lambdas]
    rho = math.fsum(alphas)
    y = x / min(lambdas)
    w, log_scale, n = _mixture_weights(alphas, lambdas, y, tol)
    p = gammainc(rho + np.arange(n + 1), y)
    with np.errstate(under="ignore"):
        weights = w * np.exp(log_scale)
    value = math.fsum((weights * p[:n]).tolist())
    covered = math.fsum(weights.tolist())
    # the weights past n sum to 1 - covered and multiply P values <= p[n]
    tail = p[n] * max(1.0 - covered, 0.0)
    # every term is positive, so rounding stays relative: n steps of the
    # recurrence and the sums, plus scipy's error in P
    rounding = (8.0 * n * EPS + GAMMAINC_REL) * (value + p[n])
    return value + 0.5 * tail, 0.5 * tail + rounding


def qform_cdf(sigma, c, x):
    """P(z' C z <= x), z ~ N(0, sigma): a gamma sum with shapes 1/2 and
    scales 2 mu, mu the eigenvalues of L' C L for sigma = L L'."""
    sigma = np.asarray(sigma, dtype=float)
    c = np.asarray(c, dtype=float)
    low = np.linalg.cholesky(sigma)
    m = low.T @ c @ low
    mu = np.linalg.eigvalsh(0.5 * (m + m.T))
    value, bound = gamma_sum_cdf([0.5] * len(mu), [2.0 * u for u in mu], x)
    # eigenvalue error |d mu| <= dim eps |M|; the CDF moves by at most
    # about dim * max |d mu / mu| (the density times x stays below one)
    dim = len(mu)
    rel_mu = 16.0 * dim * EPS * float(np.abs(mu).max()) / float(mu.min())
    return value, bound + dim * rel_mu


def kibble_cdf(alpha, sigma, xs):
    """Joint CDF of the bivariate gamma with Laplace transform
    |I + sigma T|^-alpha: Kibble's series with rho = s12^2 / (s11 s22),

    F = sum_n w_n P(alpha + n, y1) P(alpha + n, y2),
    w_n = (1 - rho)^alpha rho^n (alpha)_n / n!,  y_k = x_k / (s_kk (1 - rho)).

    The weights sum to one; past N their ratio is at most
    q = rho (alpha + N) / (N + 1), which bounds the tail geometrically.
    """
    sigma = np.asarray(sigma, dtype=float)
    s11, s22, s12 = sigma[0, 0], sigma[1, 1], sigma[0, 1]
    rho = s12 * s12 / (s11 * s22)
    y1 = xs[0] / (s11 * (1.0 - rho))
    y2 = xs[1] / (s22 * (1.0 - rho))
    w = [(1.0 - rho) ** alpha]
    n = 0
    while True:
        q = rho * (alpha + n + 1.0) / (n + 2.0)
        w_next = w[-1] * rho * (alpha + n) / (n + 1.0)
        if q < 1.0 and w_next / (1.0 - q) < 1e-17:
            break
        w.append(w_next)
        n += 1
    tail = w_next / (1.0 - q)
    k = alpha + np.arange(len(w), dtype=float)
    terms = np.asarray(w) * gammainc(k, y1) * gammainc(k, y2)
    value = math.fsum(terms.tolist())
    rounding = (4.0 * len(w) * EPS + 2.0 * GAMMAINC_REL) * value
    return value, tail + rounding


def wishart_mc_cdf(alpha, sigma, xs, seed, n_samples=2_000_000):
    """Joint CDF of x_k = (1/2) sum_i Z_ik^2, Z_i ~ N(0, sigma), i < 2 alpha,
    by seeded Monte Carlo; bound is MC_SIGMAS standard errors."""
    df = int(round(2.0 * alpha))
    if df < 1 or abs(2.0 * alpha - df) > 1e-12:
        raise ValueError(f"2 alpha must be a positive integer, got alpha={alpha!r}")
    sigma = np.asarray(sigma, dtype=float)
    low = np.linalg.cholesky(sigma)
    lim = 2.0 * np.asarray(xs, dtype=float)
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 250_000
    for start in range(0, n_samples, chunk):
        m = min(chunk, n_samples - start)
        acc = np.zeros((m, sigma.shape[0]))
        for _ in range(df):
            z = rng.standard_normal((m, sigma.shape[0])) @ low.T
            acc += z * z
        hits += int(np.count_nonzero((acc <= lim).all(axis=1)))
    f = hits / n_samples
    se = math.sqrt(max(f * (1.0 - f), 1.0 / n_samples) / n_samples)
    return f, MC_SIGMAS * se


def validate():
    """Check the reference routes against the frozen mpmath constants.

    Returns a list of failure messages; empty when all agree within the
    bound each route reports (plus 1e-15)."""
    checks = [
        ("cdf_k3_x6", gamma_sum_cdf((0.7, 1.3, 2.0), (0.5, 1.0, 4.0), 6.0)),
        ("kibble_1_quarter_1.5",
         kibble_cdf(1.0, [[2.0, 1.0], [1.0, 2.0]], (3.0, 3.0))),
        ("qform_2x2_x10",
         qform_cdf([[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 3.0]], 10.0)),
    ]
    bad = []
    for name, (value, bound) in checks:
        want = FROZEN[name]
        if not abs(value - want) <= bound + 1e-15 or bound > 1e-11:
            bad.append(f"{name}: {value!r} vs {want!r} (bound {bound:.2e})")
    return bad


if __name__ == "__main__":
    failures = validate()
    for line in failures:
        print(line)
    print("reference ok" if not failures else "reference FAILED")
    raise SystemExit(1 if failures else 0)
