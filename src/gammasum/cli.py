"""Command-line front end: parse, dispatch, emit machine-readable results.

Single commands (gamma-sum, qform, mvgamma, quantile) funnel into the
same job executor as the line-delimited batch mode, so an interactive
invocation and the equivalent batch record produce byte-identical
output. Each of these commands is one entry of a command table: its
params, its input parser and its routes by method (integral, series,
mc). The interactive flags come from the same table: every flag is
declared once, in _FLAGS, and the argparse tree is built once per
process. One executor checks a job's params and quadrature settings,
dispatches it to the route and builds its record, for every command
and method alike. A number must be finite, and a JSON boolean is not
one. Results are JSON by default with a stable key set:

    {command, input_echo, cdf | quantile, err_estimate, converged,
     r_used, nodes_used, warnings}

Probabilities are printed with 15 significant digits. Fields that do
not apply to a route are null rather than omitted (a series result has
no contour radius; a Monte Carlo result reports samples as its node
count and the standard error as its error estimate).

Exit codes: 0 success, 2 input validation error, 3 numerical
non-convergence (the partial result is still printed with
"converged": false) or a result beyond double precision (an error
record of type "precision"), 1 internal error. A batch run prints one
record per input line, never aborts on a bad record, and exits with
the most severe per-record code under the ordering 2 > 1 > 3 > 0.

Set GAMMASUM_LOG=DEBUG (or any logging level name) for diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import GammaSumParams, QuadratureConfig, _quantile, cdf
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NotPositiveDefiniteError,
    PrecisionError,
    _integer,
    _real,
)
from .mvgamma import MvGammaParams, existence_caveat, mv_cdf
from .oracles import mc_cdf, mc_mvgamma, mc_qform, series_cdf
from .qform import SymMatrix, qform_cdf

_FORMATS = ("json", "csv", "plain")
_QUAD_KEYS = ("r", "tol", "n_start", "n_max")

_log = logging.getLogger("gammasum.cli")


@dataclass
class JobSpec:
    """One unit of work: a command, its payload, quadrature overrides,
    and the output format. Batch lines parse into this shape; the
    interactive flags build the identical structure."""

    command: str
    params: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    output_format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise DomainError(
                f"unknown command {self.command!r}; expected one of {_COMMANDS}"
            )
        if not isinstance(self.params, dict):
            raise DomainError("params must be an object")
        if not isinstance(self.quadrature, dict):
            raise DomainError("quadrature must be an object")
        extra = set(self.quadrature) - set(_QUAD_KEYS)
        if extra:
            raise DomainError(f"unknown quadrature keys: {sorted(extra)}")
        if self.output_format not in _FORMATS:
            raise DomainError(
                f"unknown output_format {self.output_format!r}; "
                f"expected one of {_FORMATS}"
            )

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise DomainError("batch record must be a JSON object")
        unknown = set(obj) - {"command", "params", "quadrature", "output_format"}
        if unknown:
            raise DomainError(f"unknown JobSpec keys: {sorted(unknown)}")
        if "command" not in obj:
            raise DomainError("batch record is missing 'command'")
        return cls(
            command=obj["command"],
            params=obj.get("params", {}),
            quadrature=obj.get("quadrature", {}),
            output_format=obj.get("output_format", "json"),
        )


def _fmt15(v):
    """Round a float to 15 significant digits for printing; None for
    missing or non-finite values, integers passed through."""
    if v is None or isinstance(v, int):  # bool is an int
        return v
    v = float(v)
    if not math.isfinite(v):
        return None
    return float(f"{v:.15g}")


def _parse_floats(value, name):
    """Accept a list of numbers or a comma/space separated string."""
    if isinstance(value, str):
        parts = [p for p in re.split(r"[,\s]+", value.strip()) if p]
        return tuple(_real(p, name) for p in parts)
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            if isinstance(item, str):
                out.extend(_parse_floats(item, name))
            else:
                out.append(_real(item, name))
        return tuple(out)
    return (_real(value, name),)


def _parse_matrix(value, name):
    """Accept a dense row-major array, the shorthand I<k> for the k x k
    identity, or diag:a,b,... for a diagonal matrix."""
    if isinstance(value, str):
        text = value.strip()
        m = re.fullmatch(r"I(\d+)", text)
        if m:
            k = int(m.group(1))
            if k < 1:
                raise DomainError(f"{name}: identity order must be >= 1")
            return np.eye(k)
        if text.startswith("diag:"):
            diag = _parse_floats(text[5:], name)
            if not diag:
                raise DomainError(f"{name}: diag shorthand needs entries")
            return np.diag(diag)
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(
                f"{name} must be I<k>, diag:a,b,..., or a JSON array: {exc}"
            ) from exc
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} is not a numeric array: {exc}") from exc
    if a.ndim != 2:
        raise DomainError(f"{name} must be two-dimensional, got shape {a.shape}")
    return a


def _quad_config(overrides):
    """QuadratureConfig from quadrature overrides, which it validates;
    r may be 'auto', the automatic radius."""
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    r = kwargs.get("r")
    if isinstance(r, str) and r.strip().lower() == "auto":
        del kwargs["r"]
    return QuadratureConfig(**kwargs)


def _matrix_echo(a):
    return [[_fmt15(x) for x in row] for row in np.asarray(a, dtype=float)]


def _error_record(command, echo, kind, message):
    return {
        "command": command,
        "input_echo": echo,
        "error": str(message),
        "error_type": kind,
    }


def _parse_gamma_sum(p, point="x"):
    """Gamma-sum model from params: ((GammaSumParams, point value), echo,
    warnings). The quantile command reads its probability as the point."""
    alphas = _parse_floats(p["alphas"], "alphas")
    lambdas = _parse_floats(p["lambdas"], "lambdas")
    at = _real(p[point], point)
    params = GammaSumParams(alphas, lambdas)
    echo = {
        "alphas": [_fmt15(a) for a in params.alphas],
        "lambdas": [_fmt15(l) for l in params.lambdas],
        point: _fmt15(at),
    }
    return (params, at), echo, []


def _parse_qform(p):
    sigma = _parse_matrix(p["sigma"], "sigma")
    cmat = _parse_matrix(p["c"], "c")
    x = _real(p["x"], "x")
    echo = {"sigma": _matrix_echo(sigma), "c": _matrix_echo(cmat), "x": _fmt15(x)}
    return (sigma, cmat, x), echo, []


def _parse_mvgamma(p):
    alpha = _real(p["alpha"], "alpha")
    sigma = _parse_matrix(p["sigma"], "sigma")
    xs = _parse_floats(p["xs"], "xs")
    params = MvGammaParams(alpha, SymMatrix(sigma), p.get("max_dim", 3))
    echo = {
        "alpha": _fmt15(alpha),
        "sigma": _matrix_echo(sigma),
        "xs": [_fmt15(x) for x in xs],
    }
    caveat = existence_caveat(params)
    return (params, xs), echo, [] if caveat is None else [caveat]


# Routes map (model, QuadratureConfig, (n_samples, seed) or None) to
# (value, err_estimate, r_used, nodes_used). They look the library
# functions up as module globals at call time, so a wrapper bound to
# this module's attribute (a tracer, a test double) sees every call.

def _quadrature(est):
    return est.value, est.err_estimate, est.r_used, est.nodes_used


def _sampled(res):
    return res.estimate, res.std_error, None, res.n_samples


def _series_route(model, cfg, mc):
    res = series_cdf(*model, cfg.tol)
    return res.value, res.tail_bound, None, res.terms_used


def _quantile_route(model, cfg, mc):
    params, prob = model
    xq, est = _quantile(params, prob, cfg)
    return xq, abs(est.value - prob), est.r_used, est.nodes_used


@dataclass(frozen=True)
class _Command:
    """One command: its help line, its params, the parser that validates
    them into (model, input_echo, warnings), and its routes by method
    name. Missing required params are reported in the order given here,
    and the command's flags are declared in it."""

    help: str
    required: tuple
    parse: object
    routes: dict
    optional: tuple = ("method", "n_samples", "seed")
    key: str = "cdf"


_TABLE = {
    "gamma-sum": _Command(
        "CDF of sum_j lambda_j Gamma(alpha_j)",
        ("alphas", "lambdas", "x"),
        _parse_gamma_sum,
        {
            "integral": lambda m, cfg, mc: _quadrature(cdf(*m, cfg)),
            "series": _series_route,
            "mc": lambda m, cfg, mc: _sampled(mc_cdf(*m, *mc)),
        },
    ),
    "qform": _Command(
        "CDF of z' C z for z ~ N(0, Sigma)",
        ("sigma", "c", "x"),
        _parse_qform,
        {
            "integral": lambda m, cfg, mc: _quadrature(qform_cdf(*m, cfg)),
            "mc": lambda m, cfg, mc: _sampled(mc_qform(*m, *mc)),
        },
    ),
    "mvgamma": _Command(
        "joint CDF of a multivariate gamma",
        ("alpha", "sigma", "xs"),
        _parse_mvgamma,
        {
            "integral": lambda m, cfg, mc: _quadrature(mv_cdf(*m, cfg)),
            "mc": lambda m, cfg, mc: _sampled(
                mc_mvgamma(m[0].alpha, m[0].sigma, m[1], *mc)
            ),
        },
        optional=("method", "max_dim", "n_samples", "seed"),
    ),
    "quantile": _Command(
        "inverse CDF of the gamma sum",
        ("alphas", "lambdas", "prob"),
        lambda p: _parse_gamma_sum(p, "prob"),
        {"integral": _quantile_route},
        optional=(),
        key="quantile",
    ),
}
_COMMANDS = tuple(_TABLE)


def _run_command(job):
    """Validate a job's params, run the selected route, build its record.

    A ConvergenceError that carries a quadrature estimate becomes a
    record with "converged": false and exit code 3; a quantile has no
    partial result, so its non-convergence stays an error."""
    cmd = _TABLE[job.command]
    p = job.params
    extra = set(p) - set(cmd.required + cmd.optional)
    if extra:
        raise DomainError(f"unknown {job.command} params: {sorted(extra)}")
    for key in cmd.required:
        if key not in p:
            raise DomainError(f"{job.command} requires {key!r}")
    model, echo, warnings = cmd.parse(p)
    method = p.get("method", "integral")
    if "method" in cmd.optional:
        echo["method"] = method
    if not isinstance(method, str) or method not in cmd.routes:
        raise DomainError(f"unknown {job.command} method {method!r}")
    mc = None
    if method == "mc":
        mc = (_integer(p.get("n_samples", 1000000), "n_samples", DomainError),
              _integer(p.get("seed", 0), "seed", DomainError))
        echo["n_samples"], echo["seed"] = mc
    cfg = _quad_config(job.quadrature)
    converged = True
    try:
        value, err, r_used, nodes = cmd.routes[method](model, cfg, mc)
    except ConvergenceError as exc:
        if exc.estimate is None or cmd.key != "cdf":
            raise
        value, err, r_used, nodes = _quadrature(exc.estimate)
        warnings = warnings + [str(exc)]
        converged = False
    record = {
        "command": job.command,
        "input_echo": echo,
        cmd.key: _fmt15(value),
        "err_estimate": _fmt15(err),
        "converged": converged,
        "r_used": _fmt15(r_used),
        "nodes_used": nodes,
        "warnings": warnings,
    }
    return record, 0 if converged else 3


def _execute_job(job):
    """Run one JobSpec; map exceptions to (error record, exit code)."""
    try:
        return _run_command(job)
    except (DomainError, ConfigError, NotPositiveDefiniteError) as exc:
        return _error_record(job.command, job.params, "validation", exc), 2
    except ConvergenceError as exc:
        return _error_record(job.command, job.params, "non-convergence", exc), 3
    except PrecisionError as exc:
        return _error_record(job.command, job.params, "precision", exc), 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary, report not crash
        _log.exception("internal error in %s", job.command)
        return _error_record(job.command, job.params, "internal", exc), 1


def _emit(record, fmt, out):
    if fmt == "json":
        out.write(json.dumps(record, ensure_ascii=True) + "\n")
        return
    # csv and plain print nested values as JSON text
    flat = {
        key: json.dumps(value) if isinstance(value, (dict, list)) else value
        for key, value in record.items()
    }
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(flat)
        writer.writerow(flat.values())
        return
    for key, value in flat.items():
        out.write(f"{key} = {value}\n")
    out.write("\n")


def _parse_line(line):
    """The JSON value of one batch line. Bytes that are not UTF-8 arrive
    as lone surrogates (surrogateescape); they, malformed JSON and
    nesting too deep to decode raise ValueError."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("batch line is not valid UTF-8") from None
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nesting too deep to decode") from None


def _run_batch(path, out):
    """Execute a line-delimited JobSpec stream with per-line isolation."""
    if path == "-":
        text = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
    else:
        try:
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                text = fh.read()
        except OSError as exc:
            _emit(_error_record("batch", {"input": path}, "validation", exc),
                  "json", out)
            return 2
    codes = [0]
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            job = JobSpec.from_dict(_parse_line(line))
        except ValueError as exc:  # _parse_line or DomainError
            _emit(_error_record("batch", {"line": line[:200]}, "validation",
                                exc), "json", out)
            codes.append(2)
            continue
        record, code = _execute_job(job)
        _emit(record, job.output_format, out)
        codes.append(code)
    for severe in (2, 1, 3):
        if severe in codes:
            return severe
    return 0


# The argparse keywords of each flag, declared once and shared by every
# command that takes it; param n_max is flag --n-max. Types and defaults
# shape job.params, which error records echo and the golden file pins.
_FLAGS = {
    "alphas": {"nargs": "+", "help": "shape values"},
    "lambdas": {"nargs": "+", "help": "scale values"},
    "x": {"type": float, "help": "evaluation point"},
    "prob": {"type": float, "help": "probability in (0, 1)"},
    "sigma": {"help": "matrix: I<k>, diag:a,b,..., or JSON rows"},
    "c": {"help": "matrix, same syntax"},
    "alpha": {"type": float, "help": "shape value"},
    "xs": {"nargs": "+", "help": "thresholds"},
    "method": {"default": "integral", "help": "route (default integral)"},
    "max_dim": {"type": int, "default": 3, "help": "dimension limit (hard cap 4)"},
    "n_samples": {"type": int,
                  "help": "Monte Carlo sample count (default 1000000)"},
    "seed": {"type": int, "help": "Monte Carlo seed (default 0)"},
    "r": {"default": "auto", "help": "contour radius in (c_max, 1), or 'auto'"},
    "tol": {"type": float, "help": "quadrature tolerance (default 1e-10)"},
    "n_start": {"type": int, "help": "initial node count (default 16)"},
    "n_max": {"type": int, "help": "node cap (default 65536)"},
    "format": {"choices": _FORMATS, "default": "json",
               "help": "output format (default json)"},
}


def _build_parser():
    """The argparse tree: one subcommand per _TABLE entry, flagged with
    its required params, its optional params, the quadrature keys and
    --format, in that order; then batch."""
    parser = argparse.ArgumentParser(
        prog="gammasum",
        description=(
            "CDFs of gamma-variable sums, Gaussian quadratic forms, and "
            "small-dimension multivariate gamma distributions."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _TABLE.items():
        sub = subs.add_parser(name, help=cmd.help)
        for key in (*cmd.required, *cmd.optional, *_QUAD_KEYS, "format"):
            kwargs = dict(_FLAGS[key], required=key in cmd.required)
            if key == "method":
                kwargs["choices"] = tuple(cmd.routes)
            sub.add_argument("--" + key.replace("_", "-"), **kwargs)
    bt = subs.add_parser("batch", help="run line-delimited JobSpec records")
    bt.add_argument("input", help="path to a JSONL file, or - for stdin")
    return parser


_PARSER = _build_parser()


def _job_from_args(args):
    """JobSpec from parsed flags: quadrature flags and --format split off,
    every other flag set becomes a param, in the order the flags are
    declared (which is the order error records echo them in)."""
    params = {k: v for k, v in vars(args).items() if v is not None}
    command = params.pop("command")
    output_format = params.pop("format", "json")
    quad = {k: params.pop(k) for k in _QUAD_KEYS if k in params}
    return JobSpec(command, params, quad, output_format)


def run(argv=None, out=None):
    """Entry point returning the process exit code (see module docstring)."""
    level = os.environ.get("GAMMASUM_LOG")
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(name)s %(levelname)s %(message)s",
        )
    out = sys.stdout if out is None else out
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "batch":
        return _run_batch(args.input, out)
    try:
        job = _job_from_args(args)
    except DomainError as exc:
        _emit(_error_record(args.command, {}, "validation", exc), "json", out)
        return 2
    record, code = _execute_job(job)
    _emit(record, job.output_format, out)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
