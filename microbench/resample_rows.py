"""Replayable microbenchmark of `resample_rows`, the systematic resampling
of a step's tracks and of its intensity.

    python3 microbench/resample_rows.py --workload dense
    python3 microbench/resample_rows.py --workload desk --src ../other/src

One instance of the perfbench workload (or of the config file given by
`--config`) runs at `run.seed = 1000`, what perfbench calls instance 0 of
seed 1, through `lmbp.cli.run_experiment`, with every `resample_rows` call
that `lmbp.update` makes captured in memory: copies of the weight rows, the
count, the state of the generator at the call, and copies of the indices
and weights returned. A call from `update_phd` is the intensity pass; any
other is the track pass. Nothing is written but the run's own CSVs, into a
temporary directory. The captured calls are then replayed, each from a
generator set to the state captured at that call: the first pass must
return the indices and weights the steps got, bit for bit, and each of
`PASSES` timed passes replays every call once.

Printed: the steps, the calls and rows of each pass, the median over passes
of each pass's time per step (with the quartiles), and a sha256 digest of
all indices and weights, which must match between checkouts whose draws are
meant to be identical. Each pass's time is scaled to a nominal host speed by
perfbench's reference task (`perfbench/hostspeed.py`), timed just before and
after the pass, since the shared host's speed drifts more between runs than
the kernel's changes; the raw times are kept in the record. `--src` picks
the `lmbp` source tree, so one copy of this script times two checkouts; the
last line of output is one JSON record.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
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
KINDS = ("track", "phd")


def capture(config):
    """Run `config` and return its step count and its `resample_rows` calls
    as (kind, rows, count, generator, draws) records, the rows, the
    generator and the draws copied."""
    import lmbp.cli
    import lmbp.update

    calls, steps = [], [0]
    original, step = lmbp.update.resample_rows, lmbp.cli.lmbp_step

    def spy(rows, count, rng):
        kind = "phd" if sys._getframe(1).f_code.co_name == "update_phd" else "track"
        record = (kind, [w.copy() for w in rows], count, copy.deepcopy(rng))
        draws = original(rows, count, rng)
        calls.append(record + ([(idx.copy(), weight) for idx, weight in draws],))
        return draws

    def counted(*args, **kwargs):
        steps[0] += 1
        return step(*args, **kwargs)

    lmbp.update.resample_rows, lmbp.cli.lmbp_step = spy, counted
    try:
        lmbp.cli.run_experiment(config, quiet=True)
    finally:
        lmbp.update.resample_rows, lmbp.cli.lmbp_step = original, step
    return steps[0], calls


def generators(calls) -> list:
    """A fresh copy of each call's captured generator, for one pass."""
    return [copy.deepcopy(rng) for _, _, _, rng, _ in calls]


def replay(calls, rngs) -> list:
    """The draws of every captured call, each from its generator in `rngs`."""
    from lmbp.rfs import resample_rows

    return [resample_rows(rows, count, rng) for (_, rows, count, _, _), rng in zip(calls, rngs)]


def digest(draws) -> str:
    """sha256 of every call's indices and weights, in call order."""
    h = hashlib.sha256()
    for call in draws:
        for idx, weight in call:
            h.update(idx.dtype.str.encode())
            h.update(idx.tobytes())
            h.update(float(weight).hex().encode())
    return h.hexdigest()


def check_replay(calls) -> list:
    """Replay once; raise unless every call returns the draws the step got."""
    got = replay(calls, generators(calls))
    for k, ((*_, want), draws) in enumerate(zip(calls, got)):
        if len(draws) != len(want) or not all(
                a.dtype == b.dtype and a.tobytes() == b.tobytes() and x == y
                for (a, x), (b, y) in zip(draws, want)):
            raise AssertionError(f"call {k}: the replay's draws differ from the step's")
    return got


def time_passes(calls, steps: int, passes: int) -> dict:
    """Seconds per step of each pass, per kind of call, host-scaled and raw."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from hostspeed import REF_NOMINAL_S, reference_seconds

    by_kind = [[call for call in calls if call[0] == kind] for kind in KINDS]
    out = {(kind, scale): [] for kind in KINDS for scale in ("scaled", "raw")}
    for _ in range(passes):
        gc.collect()
        refs = [reference_seconds() for _ in range(REFS)]
        raw = []
        for chosen in by_kind:
            rngs = generators(chosen)
            gc.disable()
            try:
                start = time.perf_counter()
                replay(chosen, rngs)
                raw.append((time.perf_counter() - start) / max(steps, 1))
            finally:
                gc.enable()
        refs += [reference_seconds() for _ in range(REFS)]
        scale = REF_NOMINAL_S / statistics.median(refs)
        for kind, seconds in zip(KINDS, raw):
            out[kind, "raw"].append(seconds)
            out[kind, "scaled"].append(seconds * scale)
    return out


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
        steps, calls = capture(load_config(config, out_dir))
    draws = check_replay(calls)
    times = time_passes(calls, steps, PASSES)
    record = {
        "stage": "rfs.resample_rows",
        "workload": args.workload or str(args.config),
        "seed": SEED,
        "src": str(args.src.resolve()),
        "steps": steps,
        "passes": PASSES,
    }
    for kind in KINDS:
        scaled = times[kind, "scaled"]
        q1, median, q3 = statistics.quantiles(scaled, n=4, method="inclusive")
        mine = [call for call in calls if call[0] == kind]
        record.update({
            f"{kind}_calls": len(mine),
            f"{kind}_rows": sum(len(rows) for _, rows, *_ in mine),
            f"{kind}_per_step_ms_p50": median * 1e3,
            f"{kind}_per_step_ms_q1": q1 * 1e3,
            f"{kind}_per_step_ms_q3": q3 * 1e3,
            f"{kind}_per_step_ms_passes": [s * 1e3 for s in scaled],
            f"raw_{kind}_per_step_ms_p50": statistics.median(times[kind, "raw"]) * 1e3,
            f"raw_{kind}_per_step_ms_passes": [s * 1e3 for s in times[kind, "raw"]],
        })
    record["sha256"] = digest(draws)
    for kind in KINDS:
        print(f"{record['workload']} {kind} pass: {record[f'{kind}_calls']} calls, "
              f"{record[f'{kind}_rows']} rows over {steps} steps, "
              f"{record[f'{kind}_per_step_ms_p50']:.4f} ms per step (median of {PASSES} "
              f"passes, IQR {record[f'{kind}_per_step_ms_q1']:.4f}-"
              f"{record[f'{kind}_per_step_ms_q3']:.4f}, host-scaled; "
              f"raw {record[f'raw_{kind}_per_step_ms_p50']:.4f})")
    print(f"sha256 {record['sha256']}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
