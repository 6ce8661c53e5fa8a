"""Benchmark of the lmbp LMB/P filter, driven from outside through its public API.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports `lmbp` from `src/` and exits
with code 2, printing no result, when that is missing.

Load model: a closed loop in one process. Scan k+1 starts only when step k
returns, and Monte-Carlo runs follow one another, as in `lmbp run`. BLAS and
OpenMP are pinned to one thread before numpy is imported, and the benchmark
starts no threads; it starts processes only for the set-up probes, one at a
time.

A run of a workload executes instances of it: instance i is the workload's
config with `run.seed = seed * 1000 + i`, passed to `lmbp.cli.run_experiment`
with a temporary output directory. A run with --trace 0 executes
floor(seconds / instance_s) instances, at least one, where instance_s is the
run budget per instance; so the inputs depend only on seed and seconds.

--trace 0 (end to end) reports
  wall_s        median wall time of one `run_experiment` call
  step_ms_p50   median latency of one `lmbp_step` call, over all instances
  step_ms_p90   90th percentile of the same samples
  setup_s       median, over set-up probes, of process start to built RunConfig
  peak_rss_mb   peak resident set of this process
  mospa         mean MOSPA over steps, runs and instances; deterministic for
                a seed
and prints fail_ratio, which `failed` / `attempted` carry in the result.
The four times are scaled to a nominal host speed by a reference task timed
next to them (see hostspeed.py), because the shared host's speed drifts more
than their bounds: each step by the median of the references after the
STEP_WINDOW steps on either side of it, the rest of an instance (simulation,
estimation, OSPA, CSV output) by the median of its references, each set-up
probe by references timed just before and after it. The raw times are kept
in the record.

--trace 1 (per layer) runs instance 0 untraced, then again with span and
count wrappers installed (see tracing.py), and reports self time and counts
per module, plus `trace.overhead_ratio` and `trace.coverage`.

Every `lmbp_step` result is checked from outside (checks.py); a failed check
or an exception fails the Monte-Carlo run. The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. A fuller record, with the machine, digests of each instance's
output CSVs and the problems found, goes to `.bench_build/perfbench/`.
"""

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
SETUP_REFS = 15      # reference runs before and after each set-up probe
STEP_WINDOW = 10
PROBE_TIMEOUT_S = 60


@dataclasses.dataclass(frozen=True)
class Workload:
    config: Path
    instance_s: float    # run budget per instance: a little over one instance's wall_s

    def instances(self, seconds: float) -> int:
        """Instances per run: as many as fill `seconds`, at least one."""
        return max(1, int(seconds // self.instance_s))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "desk": Workload(HERE / "workloads" / "desk.cfg", 8.5),
    "dense": Workload(HERE / "workloads" / "dense.cfg", 11.5),
}

END_TO_END_UNITS = {"wall_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB", "mospa": "pos_unit"}


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(config_path: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to a built RunConfig, per
    probe, raw and scaled to the nominal host speed."""
    from hostspeed import REF_NOMINAL_S, reference_seconds
    probe = HERE / "setup_probe.py"
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        refs = [reference_seconds() for _ in range(SETUP_REFS)]
        started = time.perf_counter()
        done = subprocess.run([sys.executable, str(probe), str(config_path)],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds = float(done.stdout.strip().splitlines()[-1]) - started
        refs += [reference_seconds() for _ in range(SETUP_REFS)]
        raw.append(seconds)
        scaled.append(seconds * REF_NOMINAL_S / statistics.median(refs))
    return raw, scaled


@dataclasses.dataclass
class Instance:
    seed: int
    wall_s: float        # raw, without the time spent on checks and references
    step_s: list
    ref_s: list          # reference task after each step
    track_counts: list
    runs: int
    failed_runs: int
    mospa: float
    digests: dict
    problems: list


def run_instance(config, seed: int, tracer=None) -> Instance:
    """One `run_experiment` call on a fresh output directory, checked from outside.

    With a tracer, its wrappers are installed for this call only.
    """
    import numpy as np
    import lmbp.cli
    from checks import StepProbe, output_digests

    RESULTS.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    raw = {**config.raw, "run.seed": str(seed), "run.out_dir": str(out_dir)}
    config = dataclasses.replace(config, seed=seed, out_dir=str(out_dir), raw=raw)
    summary, error = None, None
    if tracer is not None:
        tracer.install()
    probe = StepProbe(lmbp.cli.lmbp_step)
    lmbp.cli.lmbp_step = probe
    started = time.perf_counter()
    try:
        summary = lmbp.cli.run_experiment(config, quiet=True)
    except Exception as exc:  # noqa: BLE001 - a failed run is reported, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - started - probe.outside_seconds
        lmbp.cli.lmbp_step = probe.step
        if tracer is not None:
            tracer.uninstall()
    try:
        problems = list(probe.problems)
        expected_steps = config.mc_runs * config.scenario.total_steps
        if error is None and len(probe.samples) != expected_steps:
            error = f"{len(probe.samples)} steps, expected {expected_steps}"
        if error is None and not np.all(np.isfinite(summary.mospa)):
            error = "MOSPA curve is not finite"
        if error is None:
            failed = len(probe.failed_runs)
            digests = output_digests(out_dir)
            mospa = float(np.mean(summary.mospa))
        else:
            # run_experiment removes every output of a failed experiment, so
            # the whole experiment counts as failed
            problems.append(error)
            failed, digests, mospa = config.mc_runs, {}, float("nan")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Instance(seed, wall, probe.samples, probe.ref_samples, probe.track_counts,
                    config.mc_runs,
                    failed, mospa, digests, problems)


def end_to_end(workload: Workload, config, seed: int,
               seconds: float) -> tuple[dict, list, dict]:
    import numpy as np

    from hostspeed import rolling_factors

    setup_raw, setup = measure_setup(workload.config)
    instances = [run_instance(config, instance_seed(seed, i))
                 for i in range(workload.instances(seconds))]
    steps, walls = [], []
    for inst in instances:
        step_s = np.asarray(inst.step_s)
        factors = rolling_factors(inst.ref_s, STEP_WINDOW)
        steps.append(step_s * factors)
        rest = inst.wall_s - step_s.sum()
        walls.append(float(steps[-1].sum() + rest * np.median(factors)))
    steps_ms = np.concatenate(steps) * 1e3
    raw_ms = np.concatenate([inst.step_s for inst in instances]) * 1e3
    metrics = {
        "wall_s": statistics.median(walls),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mospa": statistics.fmean(inst.mospa for inst in instances),
    }
    ref_ms = np.concatenate([inst.ref_s for inst in instances]) * 1e3
    samples = {"step_samples": int(steps_ms.size),
               "raw_wall_s": statistics.median(inst.wall_s for inst in instances),
               "raw_step_ms_p50": float(np.percentile(raw_ms, 50)),
               "raw_step_ms_p90": float(np.percentile(raw_ms, 90)),
               "raw_setup_s": statistics.median(setup_raw),
               "reference_ms_p50": float(np.median(ref_ms)),
               "setup_probes_s": setup, "instance_walls_s": walls}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, instances, samples


def per_layer(config, seed: int, label: str) -> tuple[dict, list, dict]:
    from tracing import Tracer, leftover_wrappers, layer_metrics

    plain = run_instance(config, instance_seed(seed, 0))
    tracer = Tracer(config.thresholds.gamma_c)
    traced = run_instance(config, instance_seed(seed, 0), tracer)
    leftovers = leftover_wrappers()
    if leftovers:
        traced.problems.append(f"wrappers left installed: {', '.join(leftovers)}")
        traced.failed_runs = traced.runs
    if plain.digests != traced.digests:
        traced.problems.append("traced outputs differ from untraced outputs")
        traced.failed_runs = traced.runs
    span_file = RESULTS / f"{label}-spans.csv"
    tracer.spans.write_csv(span_file)
    metrics = layer_metrics(tracer, traced.wall_s, plain.wall_s, traced.track_counts)
    samples = {"spans": len(tracer.spans.names), "span_file": str(span_file.relative_to(ROOT)),
               "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    return metrics, [plain, traced], samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lmbp" / "__init__.py").is_file():
        print(f"error: no lmbp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lmbp

    workload = WORKLOADS[args.workload]
    config = lmbp.load_run_config(workload.config)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, instances, samples = per_layer(config, args.seed, label)
    else:
        metrics, instances, samples = end_to_end(workload, config, args.seed, args.seconds)
    attempted = sum(inst.runs for inst in instances)
    failed = sum(inst.failed_runs for inst in instances)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": os.path.relpath(workload.config, ROOT),
        "machine": machine_record(),
        "metrics": metrics_json,
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "samples": samples,
        "instances": [{"seed": inst.seed, "wall_s": inst.wall_s, "mospa": inst.mospa,
                       "runs": inst.runs, "failed_runs": inst.failed_runs,
                       "digests": inst.digests, "problems": inst.problems}
                      for inst in instances],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_file = RESULTS / f"{label}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {label}: {len(instances)} instance(s), seeds "
          f"{', '.join(str(inst.seed) for inst in instances)}")
    m = record["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS/OpenMP threads 1")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<48} {shown} {unit}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>16.6g} 1   ({failed} of {attempted} runs)")
    for key, value in samples.items():
        print(f"  [{key}] {value}")
    for inst in instances:
        print(f"  instance seed {inst.seed}: " + ", ".join(
            f"{kind} {digest[:16]}" for kind, digest in inst.digests.items()))
        for problem in inst.problems:
            print(f"  FAILED: {problem}")
    print(f"  record: {result_file.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
