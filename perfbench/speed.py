"""Machine-speed calibration for the timed figures.

The host's speed drifts by 20 % and more between runs, and within a run
from one second to the next, so raw timings of identical work spread by
about 0.2 (IQR over median) across 20 s runs. ``chunk`` is a fixed piece
of plain-Python and small-numpy float work that uses no gammasum code.
The timed loop runs one after every CAL_EVERY seconds of calls, and the
parent scales each call's time by NOMINAL_S over the local chunk time:
the figures are then times on a machine where a chunk takes NOMINAL_S.
Chunks interleaved this finely follow the drift; scaled 20 s runs of
identical work spread by about 0.02 instead of 0.2.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# seconds of calls between two calibration chunks
CAL_EVERY = 0.015
# chunk time of the reference speed (the median of a 2.1 GHz Xeon vCPU)
NOMINAL_S = 0.0042
# chunks on each side of a call whose median gives its local chunk time
SMOOTH = 2

_X = np.linspace(0.1, 3.0, 64)


def chunk():
    """The calibration work: 12000 scalar math steps, 30 small numpy ops."""
    s = 0.0
    for i in range(12000):
        s += math.exp(-i * 1e-4) * math.sin(i) / (1.0 + i)
    for i in range(30):
        s += float((np.exp(-_X * (1 + i % 5)) * np.cos(_X)).sum())
    return s


def chunk_time():
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def local_chunk_times(marks, chunk_s, n_calls):
    """Chunk time in force for each of n_calls calls.

    ``marks[j]`` is the number of calls made before chunk j ran, and
    ``chunk_s[j]`` its time. A call takes the median of the chunk that
    follows it and the SMOOTH chunks on either side of that one, so that
    one interrupted chunk does not move it."""
    if not chunk_s:
        raise ValueError("no calibration chunk ran")
    smooth = [statistics.median(chunk_s[max(j - SMOOTH, 0):j + SMOOTH + 1])
              for j in range(len(chunk_s))]
    out = []
    j = 0
    for i in range(n_calls):
        while j < len(marks) - 1 and marks[j] <= i:
            j += 1
        out.append(smooth[j])
    return out
