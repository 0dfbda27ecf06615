"""Seeded inputs, call execution and verdicts for the four workloads.

A workload is an endless stream of call items built from the seed in
blocks of fixed composition: the seed draws the parameters inside each
stratum, never how many calls of each kind a block holds, so the cost
mix of a run barely moves between seeds. Items are plain JSON. The
stream opens with WARMUP items that are run before any timing; item 0
is also the call whose result ends ``setup_s``.

This module is imported by the parent (generation, verdicts) and by the
worker (``run_item``); only ``run_item`` touches gammasum.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math

import numpy as np

TOL = 1e-10  # the library default, used by every integral call
QUANTILE_TOL = 1e-8  # quantile() promises |cdf(q) - prob| <= 1e-8
MC_SIGMAS = 5.0
CLI_MC_SAMPLES = 20000
WARMUP = 4

# the two false-convergence / non-convergence reproducers of the roadmap,
# at full size
REPRO_K50 = {"op": "cdf", "alphas": [0.5] * 50,
             "lambdas": np.linspace(0.01, 10.0, 50).tolist(), "x": 200.0,
             "tag": "repro_k50"}
REPRO_K20 = {"op": "cdf", "alphas": [2.0] * 20,
             "lambdas": np.linspace(0.1, 10.0, 20).tolist(), "x": 200.0,
             "tag": "repro_k20"}


# ---------------------------------------------------------------- inputs

def _strata(rng, n):
    """n stratified uniforms on (0, 1), one per equal-width cell, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return u


def _design(rng, n, dims):
    """n points of a Latin hypercube in (0, 1)^dims whose cells are paired
    by fixed permutations i -> m i mod n, so only the position inside
    each cell depends on the seed. Rows are in cell order."""
    cols = []
    mult = 1
    for _ in range(dims):
        while math.gcd(mult, n) != 1:
            mult += 2
        cells = (np.arange(n) * mult) % n
        cols.append((cells + rng.random(n)) / n)
        mult += 4
    return np.stack(cols, axis=1)


def _log_uniform(u, lo, hi):
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _gamma_params(rng, k, ratio, shape_lo=0.3, shape_hi=4.0):
    """Shapes log-uniform, one per stratum of [shape_lo, shape_hi]; scales
    from lo to lo * ratio with the inner ones stratified in between."""
    alphas = [_log_uniform(u, shape_lo, shape_hi) for u in _strata(rng, k)]
    lo = _log_uniform(rng.random(), 0.2, 5.0)
    lambdas = [lo, lo * ratio] + [
        lo * _log_uniform(u, 1.0, ratio) for u in _strata(rng, k - 2)
    ]
    return alphas, lambdas


def _x_near_mean(alphas, lambdas, u):
    """An evaluation point between mean - 2 sd and mean + 2.5 sd (kept > 0)."""
    mean = math.fsum(a * l for a, l in zip(alphas, lambdas))
    sd = math.sqrt(math.fsum(a * l * l for a, l in zip(alphas, lambdas)))
    return max(mean + sd * (-2.0 + 4.5 * u), 0.05 * mean)


def _spd(rng, dim, cond):
    """Random SPD matrix with eigenvalues spanning exactly [s, s * cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = _log_uniform(rng.random(), 0.5, 2.0)
    w = s * np.exp(rng.random(dim) * math.log(cond))
    w[0], w[-1] = s, s * cond
    m = (q * w) @ q.T
    return (0.5 * (m + m.T)).tolist()


def _cdf_item(rng, k, ratio, u, tag):
    alphas, lambdas = _gamma_params(rng, k, ratio)
    return {"op": "cdf", "alphas": alphas, "lambdas": lambdas,
            "x": _x_near_mean(alphas, lambdas, u), "tag": tag}


def _qform_item(rng, dim, u, u_sigma, u_c):
    sigma = _spd(rng, dim, _log_uniform(u_sigma, 1.5, 10.0))
    c = _spd(rng, dim, _log_uniform(u_c, 1.5, 10.0))
    m = np.asarray(sigma) @ np.asarray(c)
    mean = float(np.trace(m))
    sd = math.sqrt(2.0 * float(np.trace(m @ m)))
    x = max(mean + sd * (-2.0 + 4.5 * u), 0.05 * mean)
    return {"op": "qform", "sigma": sigma, "c": c, "x": x, "tag": f"qform_d{dim}"}


def _hard_items(key):
    """Two k = 20 sums with scale ratio 20..100 and two k = 50 sums with
    ratio 2..4, from a generator keyed by ``key`` alone."""
    hard = np.random.default_rng([key, 99])
    return [_cdf_item(hard, k, _log_uniform(r, lo, hi), u, f"hard_k{k}")
            for k, lo, hi in ((20, 20.0, 100.0), (50, 2.0, 4.0))
            for r, u in _design(hard, 2, 2)]


def _mixed_block(rng, seed, index):
    """200 independent one-shot calls: 136 gamma sums (k = 2, 3, 5, 10,
    scale ratio up to 10), 60 quadratic forms (order 2..8) and 4 hard
    calls (2 %, k = 20 and 50).

    A hard call costs up to 25 times an ordinary one, so the hard calls
    come from a generator keyed by the block index alone: block i holds
    the same hard calls at every seed, and their cost does not move with
    it. The seed orders the other 196 calls."""
    items = []
    for k in (2, 3, 5, 10):
        for r, u in _design(rng, 34, 2):
            items.append(_cdf_item(rng, k, _log_uniform(r, 1.0, 10.0), u, f"k{k}"))
    for i, (u, us, uc) in enumerate(_design(rng, 60, 3)):
        items.append(_qform_item(rng, 2 + i % 7, u, us, uc))
    items = [items[i] for i in rng.permutation(len(items))]
    # fixed places, so that where a timed run ends inside a block does not
    # decide with the seed how many of these slow calls it holds
    for place, item in zip((49, 99, 149, 199), _hard_items(index)):
        items.insert(place, item)
    return items


# (k, scale ratio, sweep points, quantile calls) per set and block. The
# weights put p50 in the middle of the k = 5 sweeps (50 % of the calls)
# and p90 inside the k = 10 quantiles (13 %), away from the steps
# between groups. A 20 s run holds about 8 blocks, so the ascending
# sweeps of the block it ends in shift its cost mix little
SWEEP_SETS = ((3, 5.0, 15, 1), (3, 5.0, 15, 1), (5, 10.0, 30, 1), (5, 10.0, 30, 1),
              (10, 20.0, 5, 8), (10, 20.0, 5, 8))


def _sweep_sets(seed):
    """Shapes at the centres of k log-spaced cells of [0.5, 2], scales
    log-spaced from lo to lo * ratio; the first set of each k pairs them
    in ascending order, the second in descending order. Only lo comes
    from the seed, and the CDF is invariant to it, so the sets cost the
    same at every seed while the sweep points and probabilities vary."""
    rng = np.random.default_rng([seed, 7])
    sets = []
    for i, (k, ratio, _, _) in enumerate(SWEEP_SETS):
        u = (np.arange(k) + 0.5) / k
        shapes = [_log_uniform(c, 0.5, 2.0) for c in (u if i % 2 == 0 else u[::-1])]
        lo = _log_uniform(rng.random(), 0.2, 5.0)
        scales = [lo * _log_uniform(c, 1.0, ratio) for c in (np.arange(k) / (k - 1))]
        sets.append((shapes, scales))
    return sets


def _sweep_block(rng, seed, index):
    """Per parameter set: a dense ascending x-sweep over mean - 3 sd .. + 4 sd
    and quantile calls at stratified probabilities in [0.02, 0.98].

    The block interleaves the twelve groups (sweep and quantiles of each
    set) evenly, each in its own order, so that the part of a block
    where a timed run ends holds every group in its share."""
    keyed = []
    sets = _sweep_sets(seed)
    for i, ((alphas, lambdas), (k, _, n_points, n_quantiles)) in enumerate(zip(sets, SWEEP_SETS)):
        mean = math.fsum(a * l for a, l in zip(alphas, lambdas))
        sd = math.sqrt(math.fsum(a * l * l for a, l in zip(alphas, lambdas)))
        u = np.sort(_strata(rng, n_points))
        for j, x in enumerate(mean + sd * (-3.0 + 7.0 * u)):
            keyed.append(((j + 0.5) / n_points, {
                "op": "cdf", "alphas": alphas, "lambdas": lambdas,
                "x": max(float(x), 0.02 * mean), "tag": f"sweep_k{k}_{i}"}))
        for j, pr in enumerate(0.02 + 0.96 * _strata(rng, n_quantiles)):
            keyed.append(((j + 0.5) / n_quantiles, {
                "op": "quantile", "alphas": alphas, "lambdas": lambdas,
                "prob": float(pr), "tag": f"quantile_k{k}_{i}"}))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def _mv_item(rng, dim, cond, alpha, u):
    sigma = _spd(rng, dim, cond)
    diag = np.diag(np.asarray(sigma))
    # thresholds around the marginal means alpha * sigma_kk
    xs = (alpha * diag * np.exp(-0.7 + 1.4 * rng.random(dim)) * (0.6 + 0.8 * u)).tolist()
    return {"op": "mv", "alpha": alpha, "sigma": sigma, "xs": xs,
            "tag": f"mv_p{dim}"}


# (calls per block, condition range) of the bivariate strata. The weights
# put p50 inside the 32/64-node group, and p90 in the middle of the
# trivariate group (19 % of calls), whose cost comes in three tiers by alpha
MV_BANDS = ((26, 1.2, 2.0), (12, 2.0, 6.0))
MV_TRIVARIATE = 9


def _mv_block(rng, seed, index):
    """38 bivariate calls over condition 1.2..6 in two bands, alpha
    0.3..3, and nine trivariate calls (condition 1.05..1.3, 2 alpha in
    {1, 2, 3})."""
    items = []
    for n, lo, hi in MV_BANDS:
        for c, a, u in _design(rng, n, 3):
            items.append(_mv_item(rng, 2, _log_uniform(c, lo, hi),
                                  _log_uniform(a, 0.3, 3.0), u))
    for i, (c, u) in enumerate(_design(rng, MV_TRIVARIATE, 2)):
        alpha = 0.5 * (1 + i % 3)
        items.append(_mv_item(rng, 3, 1.05 + 0.25 * c, alpha, u))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def _fmt(v):
    return repr(float(v))


def _cli_record(item, route):
    """argv for gammasum.cli.run equivalent to a library call item."""
    op = item["op"]
    if op in ("cdf", "quantile"):
        argv = ["gamma-sum" if op == "cdf" else "quantile", "--alphas"]
        argv += [_fmt(a) for a in item["alphas"]] + ["--lambdas"]
        argv += [_fmt(l) for l in item["lambdas"]]
        argv += ["--x", _fmt(item["x"])] if op == "cdf" else ["--prob", _fmt(item["prob"])]
    elif op == "qform":
        argv = ["qform", "--sigma", repr(item["sigma"]), "--c", repr(item["c"]),
                "--x", _fmt(item["x"])]
    else:
        argv = ["mvgamma", "--alpha", _fmt(item["alpha"]), "--sigma",
                repr(item["sigma"]), "--xs"] + [_fmt(x) for x in item["xs"]]
    if route != "integral":
        argv += ["--method", route]
    if route == "mc":
        argv += ["--n-samples", str(CLI_MC_SAMPLES), "--seed", "0"]
    return argv


MALFORMED = (
    ["gamma-sum", "--alphas", "-0.5", "1.0", "--lambdas", "1.0", "2.0", "--x", "1.0"],
    ["gamma-sum", "--alphas", "1.0", "2.0", "--lambdas", "1.0", "--x", "1.0"],
    ["qform", "--sigma", "[[1, 2], [2, 1]]", "--c", "I2", "--x", "1.0"],
    ["qform", "--sigma", "[[2, 1], [0, 2]]", "--c", "I2", "--x", "1.0"],
    ["quantile", "--alphas", "1.0", "--lambdas", "2.0", "--prob", "1.5"],
    ["mvgamma", "--alpha", "1.0", "--sigma", "I2", "--xs", "1.0"],
    ["mvgamma", "--alpha", "1.0", "--sigma", "diag:", "--xs", "1.0", "1.0"],
)


def _cli_block(rng, seed, index):
    """100 records: gamma-sum 30 integral / 12 series / 8 mc, 10 quantile,
    qform 15 integral / 5 mc, 15 mvgamma p=2, 5 malformed."""
    items = []
    plan = [("cdf", "integral", 30), ("cdf", "series", 12), ("cdf", "mc", 8),
            ("quantile", "integral", 10), ("qform", "integral", 15),
            ("qform", "mc", 5), ("mv", "integral", 15)]
    for op, route, n in plan:
        for i, (u, v, w) in enumerate(_design(rng, n, 3)):
            if route == "mc":
                # x between mean - 0.9 sd and mean + 1.4 sd: further out, a
                # run of 20000 draws holds too few hits for its standard error
                u = 0.25 + 0.5 * u
            if op == "cdf":
                ref = _cdf_item(rng, 2 + i % 3, _log_uniform(v, 1.0, 10.0), u, "")
            elif op == "quantile":
                al, la = _gamma_params(rng, 2 + i % 2, _log_uniform(v, 1.0, 10.0))
                ref = {"op": "quantile", "alphas": al, "lambdas": la,
                       "prob": float(0.05 + 0.9 * u)}
            elif op == "qform":
                ref = _qform_item(rng, 2 + i % 3, u, v, w)
            else:
                ref = _mv_item(rng, 2, _log_uniform(v, 1.2, 5.0),
                               _log_uniform(w, 0.3, 3.0), u)
            items.append({"op": "cli", "argv": _cli_record(ref, route), "route": route,
                          "ref": ref, "tag": f"cli_{ref['op']}_{route}"})
    for j in rng.permutation(len(MALFORMED))[:5]:
        items.append({"op": "cli", "argv": list(MALFORMED[j]), "route": "malformed",
                      "ref": None, "tag": "cli_malformed"})
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def _warmup(workload, rng):
    """Light calls of each kind the workload makes; item 0 is cheap."""
    if workload == "gamma_sum_mixed":
        # a hard k = 20 call is the largest allocation of the workload;
        # making one before timing fixes the heap layout peak RSS depends on
        return [_cdf_item(rng, 2, 3.0, 0.5, "warm"), _cdf_item(rng, 5, 10.0, 0.5, "warm"),
                _qform_item(rng, 3, 0.5, 0.5, 0.5), dict(_hard_items(10**6)[0], tag="warm")]
    if workload == "shared_params_sweep":
        al, la = _gamma_params(rng, 3, 4.0, 0.5, 2.0)
        mean = math.fsum(a * l for a, l in zip(al, la))
        return [{"op": "cdf", "alphas": al, "lambdas": la, "x": mean, "tag": "warm"},
                {"op": "quantile", "alphas": al, "lambdas": la, "prob": 0.3, "tag": "warm"},
                {"op": "cdf", "alphas": al, "lambdas": la, "x": 0.5 * mean, "tag": "warm"},
                {"op": "quantile", "alphas": al, "lambdas": la, "prob": 0.7, "tag": "warm"}]
    if workload == "mvgamma_grid":
        return [_mv_item(rng, 2, 1.5, 1.0, 0.5), _mv_item(rng, 2, 4.0, 0.7, 0.5),
                _mv_item(rng, 3, 1.1, 0.5, 0.5), _mv_item(rng, 2, 2.0, 2.0, 0.5)]
    base = _cli_block(rng, None, 0)
    ok = [it for it in base if it["route"] == "integral" and it["ref"]["op"] == "cdf"]
    return ok[:WARMUP]


# a k = 2 sum at scale ratio 72 that converges 5.5e-10 from the truth
K2_RATIO72 = {"op": "cdf", "alphas": [3.7590484593757347, 0.3683864134747139],
              "lambdas": [0.32870560838157703, 23.71445333392922],
              "x": 19.286878508667883, "tag": "defect_k2_ratio72"}


def known_defects(workload):
    """Fixed calls that fail at the seed, each outside the ranges the
    workload draws from; the traced run counts how many still fail.

    The timed streams leave these ranges out so that no timed call fails
    at the seed; this probe keeps the defects in view."""
    if workload == "gamma_sum_mixed":
        rng = np.random.default_rng([5, 97])
        k50_ratio15 = _cdf_item(rng, 50, 15.0, rng.random(), "defect_k50_ratio15")
        return [dict(REPRO_K50), dict(REPRO_K20), dict(K2_RATIO72), k50_ratio15,
                _cdf_item(np.random.default_rng([1, 98]), 50, 400.0, 0.5,
                          "defect_k50_ratio400")]
    if workload == "mvgamma_grid":
        # bivariate calls at condition 16 that hit the 512-node cap
        out = []
        for key in (2, 12):
            rng = np.random.default_rng([key, 98])
            item = _mv_item(rng, 2, 16.0, _log_uniform(rng.random(), 0.3, 3.0), rng.random())
            out.append(dict(item, tag=f"defect_mv_p2_cond16_{key}"))
        return out
    if workload == "cli_jobs":
        return [{"op": "cli", "argv": _cli_record(item, "integral"), "route": "integral",
                 "ref": item, "tag": f"cli_{item['tag']}"}
                for item in (K2_RATIO72, REPRO_K50)]
    return []


BLOCKS = {
    "gamma_sum_mixed": _mixed_block,
    "shared_params_sweep": _sweep_block,
    "mvgamma_grid": _mv_block,
    "cli_jobs": _cli_block,
}
WORKLOADS = tuple(BLOCKS)


def stream(workload, seed):
    """The endless item stream: WARMUP warm-up items, then seeded blocks.

    Blocks are made as they are reached, so the workload process holds
    one block at a time."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    yield from _warmup(workload, rng)
    for index in itertools.count():
        yield from BLOCKS[workload](rng, seed, index)


def items(workload, seed, start, stop):
    """Items start..stop-1 of the stream."""
    return list(itertools.islice(stream(workload, seed), start, stop))


def block_size(workload):
    return len(BLOCKS[workload](np.random.default_rng(0), 0, 0))


# ------------------------------------------------------------- execution

def run_item(gs, item):
    """Call gammasum for one item; return a JSON-ready outcome.

    status is "ok" (a result), "raised" (a gammasum error), or "crash"
    (any other exception). ``nodes`` is the public node/term/sample
    count of the result or of the estimate a ConvergenceError carries.
    """
    op = item["op"]
    try:
        if op == "cli":
            return _run_cli(gs, item)
        if op == "cdf":
            est = gs.cdf(gs.GammaSumParams(item["alphas"], item["lambdas"]), item["x"])
        elif op == "qform":
            est = gs.qform_cdf(np.asarray(item["sigma"]), np.asarray(item["c"]), item["x"])
        elif op == "mv":
            p = gs.MvGammaParams(item["alpha"], np.asarray(item["sigma"]))
            est = gs.mv_cdf(p, item["xs"])
        elif op == "quantile":
            q = gs.quantile(gs.GammaSumParams(item["alphas"], item["lambdas"]), item["prob"])
            return {"status": "ok", "value": float(q), "nodes": None}
        else:
            raise ValueError(f"unknown op {op!r}")
        return {"status": "ok", "value": float(est.value), "nodes": int(est.nodes_used)}
    except gs.GammaSumError as exc:
        est = getattr(exc, "estimate", None)
        nodes = getattr(est, "nodes_used", None)
        return {"status": "raised", "error": type(exc).__name__, "value": None,
                "nodes": None if nodes is None else int(nodes)}
    except Exception as exc:  # noqa: BLE001 - a crash is a verdict, not an abort
        return {"status": "crash", "error": f"{type(exc).__name__}: {exc}",
                "value": None, "nodes": None}


def _run_cli(gs, item):
    buf = io.StringIO()
    code = gs.cli.run(item["argv"], out=buf)
    try:
        rec = json.loads(buf.getvalue())
    except ValueError:
        rec = {}
    value = rec.get("cdf", rec.get("quantile"))
    return {"status": "ok", "code": int(code), "value": value,
            "err_estimate": rec.get("err_estimate"), "converged": rec.get("converged"),
            "error_type": rec.get("error_type"), "nodes": rec.get("nodes_used")}


# --------------------------------------------------------------- verdicts

def reference_request(item, outcome):
    """The (kind, args) whose reference value judges this outcome, or None."""
    if item["op"] == "cli":
        if item["ref"] is None or outcome.get("value") is None:
            return None
        return reference_request(item["ref"], outcome)
    op = item["op"]
    if op == "cdf":
        return ("gamma_sum", (item["alphas"], item["lambdas"], item["x"]))
    if op == "quantile":
        if outcome.get("value") is None:
            return None
        return ("gamma_sum", (item["alphas"], item["lambdas"], outcome["value"]))
    if op == "qform":
        return ("qform", (item["sigma"], item["c"], item["x"]))
    if len(item["xs"]) == 2:
        return ("kibble", (item["alpha"], item["sigma"], item["xs"]))
    return ("wishart_mc", (item["alpha"], item["sigma"], item["xs"]))


def compute_reference(kind, args):
    # imported here so that the workload process never loads scipy
    import reference

    if kind == "gamma_sum":
        return reference.gamma_sum_cdf(*args)
    if kind == "qform":
        return reference.qform_cdf(*args)
    if kind == "kibble":
        return reference.kibble_cdf(*args)
    # the Monte Carlo seed is a function of the inputs alone
    seed = int.from_bytes(hashlib.sha256(repr(args).encode()).digest()[:8], "little")
    return reference.wishart_mc_cdf(*args, seed=seed, n_samples=500_000)


def verdict(item, outcome, ref):
    """One of "ok", "raised", "wrong", "crash".

    "wrong" means a converged-looking value further than the allowed
    error plus the reference's own bound from the reference."""
    if outcome["status"] == "crash":
        return "crash"
    if item["op"] == "cli":
        return _cli_verdict(item, outcome, ref)
    if outcome["status"] == "raised":
        return "raised"
    return _judge_value(item, outcome["value"], ref, 0.0)


def _judge_value(item, got, ref, slack):
    value, bound = ref
    if item["op"] == "quantile":
        miss = abs(value - item["prob"]) - QUANTILE_TOL
    else:
        miss = abs(got - value)
    return "ok" if miss <= TOL + bound + slack else "wrong"


def _cli_verdict(item, outcome, ref):
    code = outcome["code"]
    if item["route"] == "malformed":
        if code == 2 and outcome["error_type"] == "validation":
            return "ok"
        return "wrong" if code == 0 else "raised"
    if code == 1:
        return "crash"
    if code != 0 or outcome["value"] is None:
        return "raised"
    # the CLI prints 15 significant digits
    if item["route"] == "mc":
        value, bound = ref
        allowed = MC_SIGMAS * float(outcome["err_estimate"]) + bound + 1e-15
        return "ok" if abs(outcome["value"] - value) <= allowed else "wrong"
    return _judge_value(item["ref"], outcome["value"], ref, 1e-15)
