"""Replayable microbenchmark of `SensorModel.likelihood_cells`, the kernel
behind the intensity side's `new_components`.

    python3 microbench/likelihood_cells.py --workload desk
    python3 microbench/likelihood_cells.py --workload dense --src ../other/src

One instance of the perfbench workload (or of the config file given by
`--config`) runs at `run.seed = 1000`, what perfbench calls instance 0 of
seed 1, through `lmbp.cli.run_experiment`, with every `likelihood_cells`
call of its steps captured in memory: the arguments and copies of the cells
returned. Nothing is written but the run's own CSVs, into a temporary
directory. The captured calls are then replayed: the first pass must
return the cells the steps got, bit for bit, and each of `PASSES` timed
passes replays every call once.

Printed: the call count, the median over passes of the mean time per call
(with the quartiles), and a sha256 digest of all cells, which must match
between checkouts whose cells are meant to be identical. Each pass's time is
scaled to a nominal host speed by perfbench's reference task
(`perfbench/hostspeed.py`), timed just before and after the pass, since the
shared host's speed drifts more between runs than the kernel's changes; the
raw times are kept in the record. `--src` picks the
`lmbp` source tree, so one copy of this script times two checkouts; the
last line of output is one JSON record.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"
SEED = 1000
PASSES = 7
REFS = 15   # reference runs before and after each pass


def capture(config):
    """Run `config` and return its `likelihood_cells` calls as
    (sensor, args, cells) triples, the arguments and cells copied."""
    import numpy as np
    import lmbp.cli
    from lmbp.models import SensorModel

    calls = []
    original = SensorModel.likelihood_cells

    def spy(self, frame, rho, theta, *floor):
        args = (list(frame), rho.copy(), theta.copy(), *(np.copy(f) for f in floor))
        cells = original(self, frame, rho, theta, *floor)
        calls.append((self, args, tuple(a.copy() for a in cells)))
        return cells

    SensorModel.likelihood_cells = spy
    try:
        lmbp.cli.run_experiment(config, quiet=True)
    finally:
        SensorModel.likelihood_cells = original
    return calls


def replay(calls):
    """The cells of every captured call, evaluated again."""
    return [sensor.likelihood_cells(*args) for sensor, args, _ in calls]


def digest(cells) -> str:
    """sha256 of every call's (row, col, value) arrays, in call order."""
    h = hashlib.sha256()
    for arrays in cells:
        for a in arrays:
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    return h.hexdigest()


def check_replay(calls) -> list:
    """Replay once; raise unless every call returns the cells the step got."""
    got = replay(calls)
    for k, ((_, _, want), cells) in enumerate(zip(calls, got)):
        if not all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(cells, want)):
            raise AssertionError(f"call {k}: the replay's cells differ from the step's")
    return got


def time_passes(calls, passes: int) -> tuple[list[float], list[float]]:
    """Mean seconds per call of each pass over all calls, host-scaled and raw."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from hostspeed import REF_NOMINAL_S, reference_seconds

    scaled, raw = [], []
    for _ in range(passes):
        gc.collect()
        refs = [reference_seconds() for _ in range(REFS)]
        gc.disable()
        try:
            start = time.perf_counter()
            replay(calls)
            raw.append((time.perf_counter() - start) / max(len(calls), 1))
        finally:
            gc.enable()
        refs += [reference_seconds() for _ in range(REFS)]
        scaled.append(raw[-1] * REF_NOMINAL_S / statistics.median(refs))
    return scaled, raw


def load_config(path: Path, out_dir: str):
    """The config file at `path` at `run.seed = SEED`, writing into `out_dir`."""
    from lmbp.config import build_run_config, parse_config_text

    values = parse_config_text(path.read_text())
    values.update({"run.seed": str(SEED), "run.out_dir": out_dir})
    return build_run_config(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=["desk", "dense"])
    which.add_argument("--config", type=Path, help="a config file to run instead")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the lmbp source tree to time (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    with tempfile.TemporaryDirectory(prefix="microbench-") as out_dir:
        config = args.config or WORKLOADS / f"{args.workload}.cfg"
        calls = capture(load_config(config, out_dir))
    cells = check_replay(calls)
    per_call, raw = time_passes(calls, PASSES)
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    record = {
        "stage": "models.likelihood_cells",
        "workload": args.workload or str(args.config),
        "seed": SEED,
        "src": str(args.src.resolve()),
        "calls": len(calls),
        "cells": int(sum(c[0].size for c in cells)),
        "passes": PASSES,
        "per_call_ms_p50": median * 1e3,
        "per_call_ms_q1": q1 * 1e3,
        "per_call_ms_q3": q3 * 1e3,
        "per_call_ms_passes": [s * 1e3 for s in per_call],
        "raw_per_call_ms_p50": statistics.median(raw) * 1e3,
        "raw_per_call_ms_passes": [s * 1e3 for s in raw],
        "sha256": digest(cells),
    }
    print(f"{record['workload']}: {len(calls)} calls, {record['cells']} cells, "
          f"{record['per_call_ms_p50']:.4f} ms per call (median of {PASSES} passes, "
          f"IQR {record['per_call_ms_q1']:.4f}-{record['per_call_ms_q3']:.4f}, host-scaled; "
          f"raw {record['raw_per_call_ms_p50']:.4f})")
    print(f"sha256 {record['sha256']}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
