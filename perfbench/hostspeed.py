"""Host-speed reference: a fixed task timed between filter steps.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-30% within minutes as other tenants load it, and that drift moves every
time the benchmark reads. So the times it reports are scaled to a nominal
host speed:

    reported = measured * REF_NOMINAL_S / reference

where `reference` is the median duration of the task below, timed in the same
process close to the measured interval: after every `lmbp_step` call, and
around every set-up probe. The task is the elementwise exponential of a 2 MB
table into a 2 MB buffer, more than the per-core L2 cache holds, and then of
a 400 KB table that the first pass has evicted, so its cache state does not
depend on what the program left behind. While one seed of `desk` (1 run) and
of `dense` was run again and again over minutes on a 2-core Xeon VM, the step
time scaled by this task varied 3-6% (sd of its log) where the raw one varied
12-15%. Tasks on small cache-hot tables or on Python objects tracked the host
worse, and an object task ran up to four times slower after steps that left a
large heap. The task lives in the benchmark, so a change to the program moves
the measured time and not the reference. Raw times go to the run's record.

    python3 perfbench/hostspeed.py      # prints reference durations
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median of reference_seconds() on a 2-core Intel Xeon VM (the baseline
# machine) at its usual speed. Any constant works: it cancels in comparisons.
REF_NOMINAL_S = 0.00080

_RNG = np.random.default_rng(20210911)
_TABLES = [_RNG.random((2560, 100)), _RNG.random((500, 100))]
_BUFFERS = [np.empty_like(table) for table in _TABLES]


def _task() -> float:
    acc = 0.0
    for table, buf in zip(_TABLES, _BUFFERS):
        np.multiply(table, -0.5, out=buf)
        np.exp(buf, out=buf)
        acc += float(buf.sum())
    return acc


def reference_seconds() -> float:
    """Duration of one run of the reference task, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _task()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def rolling_factors(ref_samples, half_window: int) -> np.ndarray:
    """Per-sample scale REF_NOMINAL_S / (median of the references within
    `half_window` samples on either side)."""
    ref = np.asarray(ref_samples, dtype=float)
    n = ref.size
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - half_window), min(n, i + half_window + 1)
        out[i] = REF_NOMINAL_S / float(np.median(ref[lo:hi]))
    return out


if __name__ == "__main__":
    samples = [reference_seconds() for _ in range(2000)]
    print(f"reference task: median {statistics.median(samples) * 1e3:.4f} ms, "
          f"min {min(samples) * 1e3:.4f} ms over {len(samples)} runs "
          f"(REF_NOMINAL_S = {REF_NOMINAL_S * 1e3:.4f} ms)")
