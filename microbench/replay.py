"""Capture-and-replay runner of the stage microbenchmarks under `microbench/`.

A stage script names its target, the function `vars(owner)[attr]` that the
step calls, and builds its record from the captured calls; `main` does the
rest, for every stage the same way:

- **Capture.** One instance of the perfbench workload (or of the config file
  given by `--config`) runs at `run.seed = 1000`, what perfbench calls
  instance 0 of seed 1, through `lmbp.cli.run_experiment`, with the target
  swapped for a spy that records, per call, the caller's function name,
  deep copies of the arguments (a generator's state included) and a deep
  copy of the result. Nothing is written but the run's own CSVs, into a
  temporary directory.
- **Check.** A first replay must return what the steps got, bit for bit.
  Each output is compared and fed to a sha256 as it is replayed, and then
  dropped. The digest must match between checkouts whose outputs are meant
  to be identical.
- **Timed passes.** Each of `PASSES` passes replays every call once, each
  from a fresh copy of its generator arguments, with its other arguments
  reused and its output kept until the pass ends. Each pass's time is
  scaled to a nominal host speed by perfbench's reference task
  (`perfbench/hostspeed.py`), timed just before and after the pass, since
  the shared host's speed drifts more between runs than the stage's
  changes; the raw times are kept in the record.

`--src` picks the `lmbp` source tree, so one copy of a script times two
checkouts; the last line of output is one JSON record. The BLAS and OpenMP
pools are pinned to one thread, as in perfbench.
"""

import argparse
import copy
import gc
import hashlib
import json
import os
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"
SEED = 1000
PASSES = 7
REFS = 15   # reference runs before and after each pass
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def time_passes(function, groups: dict) -> dict:
    """Time `PASSES` passes over each `{prefix: (calls, per)}` group of
    captured calls in turn; the record fields of each, in ms per `per`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from hostspeed import REF_NOMINAL_S, reference_seconds

    raw = {prefix: [] for prefix in groups}
    scaled = {prefix: [] for prefix in groups}
    for _ in range(PASSES):
        gc.collect()
        refs = [reference_seconds() for _ in range(REFS)]
        for prefix, (calls, per) in groups.items():
            arglists = [fresh(args) for _, args, _ in calls]
            gc.disable()
            try:
                start = time.perf_counter()
                replay(function, arglists)
                raw[prefix].append((time.perf_counter() - start) / max(per, 1))
            finally:
                gc.enable()
        refs += [reference_seconds() for _ in range(REFS)]
        for prefix in groups:
            scaled[prefix].append(raw[prefix][-1] * REF_NOMINAL_S / statistics.median(refs))
    fields = {"passes": PASSES}
    for prefix in groups:
        q1, median, q3 = statistics.quantiles(scaled[prefix], n=4, method="inclusive")
        fields.update({
            f"{prefix}_p50": median * 1e3,
            f"{prefix}_q1": q1 * 1e3,
            f"{prefix}_q3": q3 * 1e3,
            f"{prefix}_passes": [s * 1e3 for s in scaled[prefix]],
            f"raw_{prefix}_p50": statistics.median(raw[prefix]) * 1e3,
            f"raw_{prefix}_passes": [s * 1e3 for s in raw[prefix]],
        })
    return fields


def summary(fields: dict, prefix: str, unit: str) -> str:
    """The printed median, quartiles and raw median of one timed group."""
    return (f"{fields[f'{prefix}_p50']:.4f} ms per {unit} (median of {PASSES} passes, "
            f"IQR {fields[f'{prefix}_q1']:.4f}-{fields[f'{prefix}_q3']:.4f}, host-scaled; "
            f"raw {fields[f'raw_{prefix}_p50']:.4f})")


def capture(config, owner, attr: str) -> tuple[int, list]:
    """Run `config` and return its step count and the calls of
    `vars(owner)[attr]` as (caller, args, output) triples."""
    import lmbp.cli

    calls, steps = [], [0]
    original, step = vars(owner)[attr], lmbp.cli.lmbp_step

    def spy(*args):
        caller, copied = sys._getframe(1).f_code.co_name, copy.deepcopy(args)
        output = original(*args)
        calls.append((caller, copied, copy.deepcopy(output)))
        return output

    def counted(*args, **kwargs):
        steps[0] += 1
        return step(*args, **kwargs)

    setattr(owner, attr, spy)
    lmbp.cli.lmbp_step = counted
    try:
        lmbp.cli.run_experiment(config, quiet=True)
    finally:
        setattr(owner, attr, original)
        lmbp.cli.lmbp_step = step
    return steps[0], calls


def fresh(args: tuple) -> tuple:
    """`args` with a new copy of each generator, for one replay."""
    import numpy as np

    return tuple(copy.deepcopy(a) if isinstance(a, np.random.Generator) else a for a in args)


def replay(function, arglists: list) -> list:
    """The output of `function` on each of `arglists`."""
    return [function(*args) for args in arglists]


def leaves(value):
    """The bytes that identify `value`, through nested tuples and lists: a
    float's `float.hex()`, an int's decimal digits, an array's `dtype.str`
    and its bytes."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    elif isinstance(value, float):   # before tobytes: np.float64 has it too
        yield float(value).hex().encode()
    elif isinstance(value, int):     # a label's birth time and index
        yield str(value).encode()
    else:
        yield value.dtype.str.encode()
        yield value.tobytes()


def digest(outputs) -> str:
    """sha256 of every output's leaves, in call order; `outputs` may be a
    generator, which is read one output at a time."""
    h = hashlib.sha256()
    for output in outputs:
        for chunk in leaves(output):
            h.update(chunk)
    return h.hexdigest()


def check_replay(function, calls: list) -> str:
    """Replay once and return the digest of the outputs; raise unless every
    call returns what the step got. No output is kept past its check."""
    def checked():
        for k, (caller, args, want) in enumerate(calls):
            output = function(*fresh(args))
            if list(leaves(output)) != list(leaves(want)):
                raise AssertionError(f"call {k} (from {caller}): the replay's output "
                                     "differs from the step's")
            yield output

    return digest(checked())


def main(doc: str, stage: str, owner: str, attr: str, record, argv=None) -> int:
    """Capture, check and time the calls of `attr` of `owner` (a name that
    `pkgutil.resolve_name` takes) and print the record. `record(run)` gives
    the stage's record fields and printed lines; `run` has the `workload`
    name, the `steps`, the `calls` (each with the step's output, which the
    replay matched) and `timed(groups)`, which is `time_passes` on the
    target."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=["desk", "dense"])
    which.add_argument("--config", type=Path, help="a config file to run instead")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the lmbp source tree to time (default: this checkout's)")
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))   # before numpy is imported
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from lmbp.config import build_run_config, parse_config_text

    owner = pkgutil.resolve_name(owner)
    values = parse_config_text((args.config or WORKLOADS / f"{args.workload}.cfg").read_text())
    with tempfile.TemporaryDirectory(prefix="microbench-") as out_dir:
        values.update({"run.seed": str(SEED), "run.out_dir": out_dir})
        steps, calls = capture(build_run_config(values), owner, attr)
    function = vars(owner)[attr]
    sha256 = check_replay(function, calls)
    run = SimpleNamespace(workload=args.workload or str(args.config), steps=steps, calls=calls,
                          timed=lambda groups: time_passes(function, groups))
    fields, lines = record(run)
    out = {"stage": stage, "workload": run.workload, "seed": SEED, "src": str(src),
           **fields, "sha256": sha256}
    print(*lines, f"sha256 {out['sha256']}", json.dumps(out), sep="\n")
    return 0
