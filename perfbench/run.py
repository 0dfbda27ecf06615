#!/usr/bin/env python3
"""Correctness-gated benchmark of gammasum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see perfbench/WORKLOADS.md):
gamma_sum_mixed, shared_params_sweep, mvgamma_grid, cli_jobs.

--trace 0 spawns five fresh interpreters to time set-up, then one
closed-loop caller in a fresh interpreter for S seconds, checks every
result against perfbench/reference.py and prints the end-to-end
metrics, its times scaled to a reference machine speed (speed.py).
--trace 1 runs one fixed pass three times in fresh interpreters
(untraced, traced, traced), requires identical results and counts from
all three, runs the workload's known-defect calls once and prints the
per-layer metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CACHE = os.path.join(ROOT, ".perfbench_cache")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the thread pinning above

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_RUNS = 5
# calibration chunks timed on each side of a set-up measurement
SETUP_CHUNKS = 3
# every process of a run must have ended within this many seconds
RUN_LIMIT = 170.0
DEADLINE = time.monotonic() + RUN_LIMIT
COUNT_METRICS = (
    "core.cdf.calls", "core.cdf.errors", "core.nodes_evaluated", "core.node_yield",
    "core.levels_per_eval", "core.quantile.cdf_calls_per_quantile",
    "special.reg_lower_gamma.calls", "qform.jacobi_eigen.calls",
    "mvgamma.mv_cdf.errors", "mvgamma.grid_points", "mvgamma.grid_yield",
    "oracles.series_terms", "cli.run.calls",
)
# unit by the last part of a per-layer metric's name; the rest are counts
UNITS = {"self_s": "s", "import_s": "s", "first_call_s": "s", "us_per_node": "us",
         "us_per_grid_point": "us", "mc_samples_per_s": "1/s", "node_yield": "ratio",
         "grid_yield": "ratio", "overhead_share": "ratio", "fail_share": "ratio",
         "wrong_share": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("GAMMASUM_LOG", None)
    return env


def remaining():
    return max(DEADLINE - time.monotonic(), 0.0)


def wait(proc):
    try:
        return proc.wait(timeout=remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"run exceeded {RUN_LIMIT:.0f} s") from None


def next_line(proc, to_eof=False):
    """proc's next stdout line (b"" at EOF), or every line up to EOF when
    to_eof; None if the run's time limit passes first. Reading the pipe,
    not polling the process, keeps the measured times unquantized."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while sel.select(timeout=remaining()):
            line = proc.stdout.readline()
            if not (to_eof and line):
                return line
    return None


def spawn_worker(args, workdir, mode, amount):
    """Start a worker; return (seconds from spawn to its first result, proc)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), os.path.join(workdir, "setup.json"),
           os.path.join(workdir, f"out-{mode}.json"), mode, str(amount)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    ready = next_line(proc)
    t1 = time.perf_counter()
    if ready != b"ready\n":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ({mode}) did not report its first result")
    return t1 - t0, proc


def run_worker(args, workdir, mode, amount=0):
    setup_s, proc = spawn_worker(args, workdir, mode, amount)
    proc.stdout.close()
    if wait(proc) != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    with open(os.path.join(workdir, f"out-{mode}.json"), encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def cli_setup(workdir, item):
    """Wall time of a cold `python -m gammasum batch` on a one-record file."""
    ref = item["ref"]
    record = {"command": "gamma-sum",
              "params": {"alphas": ref["alphas"], "lambdas": ref["lambdas"], "x": ref["x"]}}
    path = os.path.join(workdir, "one.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gammasum", "batch", path],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    eof = next_line(proc, to_eof=True)
    t1 = time.perf_counter()
    proc.stdout.close()
    code = wait(proc)
    if eof is None or code != 0:
        raise BenchError(f"cold batch run exited with code {code}")
    return t1 - t0


class References:
    """Reference values keyed by request, cached per workload and seed."""

    def __init__(self, workload, seed):
        self.path = os.path.join(CACHE, f"refs-{workload}-{seed}.json")
        self.table = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                self.table = json.load(fh)
        self.dirty = False

    def get(self, request):
        key = hashlib.sha256(json.dumps(request).encode()).hexdigest()
        if key not in self.table:
            self.table[key] = list(wl.compute_reference(*request))
            self.dirty = True
        return self.table[key]

    def save(self):
        if self.dirty:
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.table, fh)
            os.replace(tmp, self.path)


def judge(items, outcomes, refs):
    """Verdict per call, in order."""
    out = []
    for item, outcome in zip(items, outcomes):
        request = wl.reference_request(item, outcome)
        ref = None if request is None else refs.get(request)
        out.append(wl.verdict(item, outcome, ref))
    return out


def describe(item, outcome, refs):
    request = wl.reference_request(item, outcome)
    ref = "-" if request is None else f"{refs.get(request)[0]:.12g}"
    got = outcome.get("value")
    got = "-" if got is None else f"{got:.12g}"
    what = outcome.get("error") or outcome.get("error_type") or ""
    return f"{item.get('tag', item['op'])}: got {got} ref {ref} {what}".rstrip()


def summarize_failures(items, outcomes, verdicts, refs, limit=12):
    lines = collections.Counter(
        f"  {v:6s} {describe(item, outcome, refs)}"
        for item, outcome, v in zip(items, outcomes, verdicts) if v != "ok")
    return [f"{line}  (x{n})" if n > 1 else line for line, n in lines.most_common(limit)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_setup(measure):
    """One set-up time, scaled to the reference speed by the median of
    calibration chunks run just before and just after it."""
    before = [speed.chunk_time() for _ in range(SETUP_CHUNKS)]
    raw = measure()
    after = [speed.chunk_time() for _ in range(SETUP_CHUNKS)]
    return raw, raw * speed.NOMINAL_S / statistics.median(before + after)


def timed_run(args, workdir, first, refs):
    if args.workload == "cli_jobs":
        setups = [scaled_setup(lambda: cli_setup(workdir, first)) for _ in range(SETUP_RUNS)]
    else:
        setups = [scaled_setup(lambda: run_worker(args, workdir, "setup")[0])
                  for _ in range(SETUP_RUNS)]
    _, res = run_worker(args, workdir, "timed", args.seconds)
    outcomes = res["outcomes"]
    n = len(outcomes)
    walked = wl.items(args.workload, args.seed, wl.WARMUP, wl.WARMUP + n)
    verdicts = judge(walked, outcomes, refs)
    n_fail = sum(v != "ok" for v in verdicts)
    n_wrong = sum(v == "wrong" for v in verdicts)
    raw_s = np.asarray(res["times"])
    local = np.asarray(speed.local_chunk_times(res["marks"], res["chunk_s"], n))
    times_ms = 1000.0 * raw_s * speed.NOMINAL_S / local
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "evals_per_s": metric(1000.0 * n / float(times_ms.sum()), "1/s"),
        "latency_ms_p50": metric(float(np.percentile(times_ms, 50)), "ms"),
        "latency_ms_p90": metric(float(np.percentile(times_ms, 90)), "ms"),
        "ok_share": metric(1.0 - n_fail / n, "ratio"),
        "honest_share": metric(1.0 - n_wrong / n, "ratio"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {n} calls in "
          f"{res['elapsed']:.2f} s, one closed-loop caller")
    for name, m in metrics.items():
        print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
    print(f"  latency samples  {n}")
    print(f"  setup samples    {', '.join(f'{s:.3f}' for _, s in setups)} s "
          f"(raw {', '.join(f'{r:.3f}' for r, _ in setups)} s)")
    print(f"  unscaled: {n / float(raw_s.sum()):.6g} calls/s, p50 "
          f"{1000.0 * float(np.percentile(raw_s, 50)):.6g} ms, p90 "
          f"{1000.0 * float(np.percentile(raw_s, 90)):.6g} ms; {len(res['chunk_s'])} "
          f"calibration chunks, median {1000.0 * statistics.median(res['chunk_s']):.3f} ms "
          f"(reference {1000.0 * speed.NOMINAL_S:.3f} ms)")
    print(f"  fail_share {n_fail / n:.6g} ({n_fail}), wrong_share {n_wrong / n:.6g} ({n_wrong})")
    for line in summarize_failures(walked, outcomes, verdicts, refs):
        print(line)
    crashes = sum(v == "crash" for v in verdicts)
    return {"correct": crashes == 0, "attempted": n, "failed": n_fail, "metrics": metrics}


def src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src", "gammasum")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def traced_run(args, workdir, refs):
    n = wl.block_size(args.workload)
    _, plain = run_worker(args, workdir, "pass", n)
    _, first = run_worker(args, workdir, "traced", n)
    os.replace(os.path.join(workdir, "out-traced.json"),
               os.path.join(CACHE, f"spans-{args.workload}-{args.seed}.json"))
    _, second = run_worker(args, workdir, "traced", n)
    work = wl.items(args.workload, args.seed, wl.WARMUP, wl.WARMUP + n)
    verdicts = [judge(work, r["outcomes"], refs) for r in (plain, first, second)]
    problems = []
    if not (verdicts[0] == verdicts[1] == verdicts[2]):
        problems.append("reference verdicts differ between runs of one seed")
    if not (plain["outcomes"] == first["outcomes"] == second["outcomes"]):
        problems.append("results or public counts differ between runs of one seed")
    spans = [[tuple(s) for s in r["spans"]] for r in (first, second)]
    (m1, absent), (m2, _) = (tracing.layer_metrics(s) for s in spans)
    for key in COUNT_METRICS:
        if m1[key] != m2[key]:
            problems.append(f"count {key} differs: {m1[key]} vs {m2[key]}")

    probe = wl.known_defects(args.workload)
    probe_verdicts = []
    if probe:
        _, res = run_worker(args, workdir, "probe", len(probe))
        probe_verdicts = judge(probe, res["outcomes"], refs)
    else:
        absent.add("known_defects.failing")
    m1["known_defects.failing"] = sum(x != "ok" for x in probe_verdicts)

    v = verdicts[1]
    m1["calls.fail_share"] = sum(x != "ok" for x in v) / n
    m1["calls.wrong_share"] = sum(x == "wrong" for x in v) / n
    m1["setup.import_s"] = first["import_s"]
    m1["setup.first_call_s"] = first["first_call_s"]
    m1["package.src_lines"] = src_lines()
    m1["trace.overhead_share"] = first["elapsed"] / plain["elapsed"] - 1.0
    metrics = {}
    for key, value in m1.items():
        unit = UNITS.get(key.rsplit(".", 1)[-1], "count")
        metrics[key] = metric(value, unit)
    print(f"workload {args.workload} seed {args.seed}: traced pass of {n} calls, "
          f"{plain['elapsed']:.2f} s untraced, {first['elapsed']:.2f} s traced")
    for key, m in metrics.items():
        flag = "  (absent: layer not exercised)" if key in absent else ""
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}{flag}")
    if absent:
        print("absent: " + ", ".join(sorted(absent)))
    for line in summarize_failures(work, first["outcomes"], v, refs):
        print(line)
    if probe:
        print(f"known defects, outside the workload's ranges: "
              f"{m1['known_defects.failing']} of {len(probe)} still fail")
        for line in summarize_failures(probe, res["outcomes"], probe_verdicts, refs):
            print(line)
    for line in problems:
        print(f"reproducibility check failed: {line}")
    crashes = sum(x == "crash" for x in v)
    return {"correct": crashes == 0 and not problems, "attempted": n,
            "failed": sum(x != "ok" for x in v), "metrics": metrics}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gammasum", "__init__.py")):
        print("error: run from a checkout holding src/gammasum", file=sys.stderr)
        return 2
    bad = reference.validate()
    if bad:
        print("error: reference module disagrees with the frozen mpmath values: "
              + "; ".join(bad), file=sys.stderr)
        return 3
    first = wl.items(args.workload, args.seed, 0, 1)[0]
    os.makedirs(CACHE, exist_ok=True)
    workdir = os.path.join(CACHE, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    refs = References(args.workload, args.seed)
    try:
        with open(os.path.join(workdir, "setup.json"), "w", encoding="utf-8") as fh:
            json.dump(first, fh)
        if args.trace:
            result = traced_run(args, workdir, refs)
        else:
            result = timed_run(args, workdir, first, refs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        refs.save()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
