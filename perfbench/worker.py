"""One workload process: import gammasum, run calls, write outcomes.

Started by run.py, never by hand:

    worker.py WORKLOAD SEED SETUP_JSON OUT_JSON MODE AMOUNT

It imports gammasum, runs the call in SETUP_JSON (item 0 of the stream)
and prints "ready" as soon as that first result exists, so the parent
can time set-up. In mode "setup" it then exits. Otherwise it runs the
other warm-up items of the seeded stream and then:

- mode "timed": one closed-loop caller walks the stream for AMOUNT
  seconds, timing every call, with a calibration chunk (speed.py) after
  every speed.CAL_EVERY seconds of calls;
- mode "pass" / "traced": the first AMOUNT items after warm-up, once,
  untraced or with spans;
- mode "probe": the workload's known-defect calls, once, untraced.

OUT_JSON receives the outcomes, per-call times and the peak RSS.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time


def main(argv):
    workload, seed, setup_path, out_path, mode, amount = argv
    t_start = time.perf_counter()
    with open(setup_path, encoding="utf-8") as fh:
        first = json.load(fh)
    import gammasum as gs

    if workload == "cli_jobs":
        import gammasum.cli  # noqa: F401 - binds gs.cli

    t_import = time.perf_counter()
    from workloads import WARMUP, known_defects, run_item, stream

    run_item(gs, first)
    t_first = time.perf_counter()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import speed

    if mode == "probe":
        items = iter(known_defects(workload))
    else:
        items = stream(workload, int(seed))
        next(items)
        for _ in range(WARMUP - 1):
            run_item(gs, next(items))

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    times = []
    marks = []
    chunk_s = []
    since_chunk = 0.0
    clock = time.perf_counter
    t0 = clock()
    timed = mode == "timed"
    deadline = t0 + float(amount) if timed else math.inf
    count = math.inf if timed else int(amount)
    for i, item in enumerate(items):
        if i >= count:
            break
        if tracer is not None:
            tracer.call_id = i
        a = clock()
        outcomes.append(run_item(gs, item))
        b = clock()
        times.append(b - a)
        since_chunk += b - a
        if timed and since_chunk >= speed.CAL_EVERY:
            marks.append(len(times))
            chunk_s.append(speed.chunk_time())
            since_chunk = 0.0
        if b >= deadline:
            break
    elapsed = clock() - t0
    if tracer is not None:
        tracer.uninstall()

    result = {
        "outcomes": outcomes,
        "times": times,
        "marks": marks,
        "chunk_s": chunk_s,
        "elapsed": elapsed,
        "import_s": t_import - t_start,
        "first_call_s": t_first - t_import,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": None if tracer is None else tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
