"""Spans around calls into gammasum's public functions.

``Tracer.install`` replaces each traced function at every module
attribute that binds it (``gammasum.cdf``, ``gammasum.core.cdf``,
``gammasum.qform.cdf``, ``gammasum.cli.cdf``, ...), so a call from one
layer into another becomes a child span. Spans stay in memory; the
worker writes them out when the pass ends. Each span also keeps the
public count its result carries (nodes, terms, samples), from which the
machine-independent per-layer counts are derived.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs that are spanned, named module.function
TRACED = (
    ("core", "cdf"), ("core", "quantile"), ("core", "derive_params"),
    ("special", "reg_lower_gamma"),
    ("qform", "jacobi_eigen"), ("qform", "qform_cdf"),
    ("mvgamma", "mv_cdf"), ("mvgamma", "mv_derive"),
    ("oracles", "series_cdf"), ("oracles", "mc_cdf"),
    ("oracles", "mc_qform"), ("oracles", "mc_mvgamma"),
    ("cli", "run"),
)


class Tracer:
    """Records spans as tuples (name, start, end, parent, call_id, info)."""

    def __init__(self):
        self.spans = []
        self.call_id = 0
        self._stack = []
        self._undo = []

    def install(self, package="gammasum"):
        targets = {}
        for mod_name, fn_name in TRACED:
            module = sys.modules.get(f"{package}.{mod_name}")
            if module is not None:  # gammasum.cli is imported only when used
                fn = getattr(module, fn_name)
                targets[id(fn)] = (fn, self._wrap(fn, f"{mod_name}.{fn_name}"))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _public_count(name, args, kwargs, result, None)
                return result
            except Exception as exc:
                info = _public_count(name, args, kwargs, None, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call_id, info)

        traced.__wrapped__ = fn
        return traced


def _public_count(name, args, kwargs, result, exc):
    """The count a traced call's public result carries, or None.

    cdf and mv_cdf: (nodes_used, n_start, dim, raised); series_cdf:
    terms_used; mc_*: n_samples. A ConvergenceError's estimate stands in
    for the result it could not return."""
    if exc is not None:
        result = getattr(exc, "estimate", None)
    if name in ("core.cdf", "mvgamma.mv_cdf"):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        if cfg is None:
            cfg = sys.modules["gammasum.core"].QuadratureConfig()
        n_start = cfg.n_start
        dim = args[0].dim if name == "mvgamma.mv_cdf" else 1
        nodes = getattr(result, "nodes_used", 0) or 0
        return (int(nodes), n_start, dim, exc is not None)
    if name == "oracles.series_cdf" and result is not None:
        return (int(result.terms_used),)
    if name.startswith("oracles.mc_") and result is not None:
        return (int(result.n_samples),)
    return None


def self_times(spans):
    """Per span index: duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def levels(nodes, n_start):
    """Node counts of the levels a doubling schedule evaluated to reach nodes."""
    out = []
    n = n_start
    while 0 < n <= nodes:
        out.append(n)
        n *= 2
    return out


def layer_metrics(spans):
    """Per-layer totals and ratios from one traced pass.

    Returns {metric name: value} and the set of metrics whose layer did
    not run (reported as 0)."""
    own = self_times(spans)
    calls = {}
    self_s = {}
    errors = {}
    for (name, _, _, _, _, info), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if info is not None and len(info) == 4 and info[3]:
            errors[name] = errors.get(name, 0) + 1

    nodes_eval = nodes_final = level_count = 0
    grid_points = grid_final = 0
    series_terms = mc_samples = 0
    quantile_cdf_calls = 0
    for name, _, _, parent, _, info in spans:
        if name == "core.cdf" and info is not None:
            lv = levels(info[0], info[1])
            nodes_eval += sum(lv)
            nodes_final += lv[-1] if lv else 0
            level_count += len(lv)
            if parent >= 0 and spans[parent][0] == "core.quantile":
                quantile_cdf_calls += 1
        elif name == "mvgamma.mv_cdf" and info is not None:
            lv = levels(info[0], info[1])
            grid_points += sum(n ** info[2] for n in lv)
            grid_final += lv[-1] ** info[2] if lv else 0
        elif name == "oracles.series_cdf" and info is not None:
            series_terms += info[0]
        elif name.startswith("oracles.mc_") and info is not None:
            mc_samples += info[0]

    def ratio(num, den):
        return num / den if den else 0.0

    n_cdf = calls.get("core.cdf", 0)
    mc_self = sum((v for k, v in self_s.items() if k.startswith("oracles.mc_")), 0.0)
    mc = tuple(f"oracles.{fn}" for _, fn in TRACED if fn.startswith("mc_"))
    # metric: (value, the spans that must have run for it to be present)
    table = {
        "core.cdf.calls": (n_cdf, ("core.cdf",)),
        "core.cdf.self_s": (self_s.get("core.cdf", 0.0), ("core.cdf",)),
        "core.cdf.errors": (errors.get("core.cdf", 0), ("core.cdf",)),
        "core.nodes_evaluated": (nodes_eval, ("core.cdf",)),
        "core.node_yield": (ratio(nodes_final, nodes_eval), ("core.cdf",)),
        "core.levels_per_eval": (ratio(level_count, n_cdf), ("core.cdf",)),
        "core.us_per_node":
            (ratio(1e6 * self_s.get("core.cdf", 0.0), nodes_eval), ("core.cdf",)),
        "core.derive_params.self_s":
            (self_s.get("core.derive_params", 0.0), ("core.derive_params",)),
        "core.quantile.cdf_calls_per_quantile":
            (ratio(quantile_cdf_calls, calls.get("core.quantile", 0)), ("core.quantile",)),
        "special.reg_lower_gamma.calls":
            (calls.get("special.reg_lower_gamma", 0), ("special.reg_lower_gamma",)),
        "special.reg_lower_gamma.self_s":
            (self_s.get("special.reg_lower_gamma", 0.0), ("special.reg_lower_gamma",)),
        "qform.jacobi_eigen.calls":
            (calls.get("qform.jacobi_eigen", 0), ("qform.jacobi_eigen",)),
        "qform.jacobi_eigen.self_s":
            (self_s.get("qform.jacobi_eigen", 0.0), ("qform.jacobi_eigen",)),
        "qform.qform_cdf.self_s":
            (self_s.get("qform.qform_cdf", 0.0), ("qform.qform_cdf",)),
        "mvgamma.mv_cdf.self_s":
            (self_s.get("mvgamma.mv_cdf", 0.0), ("mvgamma.mv_cdf",)),
        "mvgamma.mv_cdf.errors": (errors.get("mvgamma.mv_cdf", 0), ("mvgamma.mv_cdf",)),
        "mvgamma.grid_points": (grid_points, ("mvgamma.mv_cdf",)),
        "mvgamma.grid_yield": (ratio(grid_final, grid_points), ("mvgamma.mv_cdf",)),
        "mvgamma.us_per_grid_point":
            (ratio(1e6 * self_s.get("mvgamma.mv_cdf", 0.0), grid_points),
             ("mvgamma.mv_cdf",)),
        "mvgamma.mv_derive.self_s":
            (self_s.get("mvgamma.mv_derive", 0.0), ("mvgamma.mv_derive",)),
        "oracles.series_cdf.self_s":
            (self_s.get("oracles.series_cdf", 0.0), ("oracles.series_cdf",)),
        "oracles.series_terms": (series_terms, ("oracles.series_cdf",)),
        "oracles.mc.self_s": (mc_self, mc),
        "oracles.mc_samples_per_s": (ratio(mc_samples, mc_self), mc),
        "cli.run.calls": (calls.get("cli.run", 0), ("cli.run",)),
        "cli.run.self_s": (self_s.get("cli.run", 0.0), ("cli.run",)),
    }
    metrics = {key: value for key, (value, _) in table.items()}
    absent = {key for key, (_, src) in table.items() if not any(s in calls for s in src)}
    return metrics, absent
