"""Monte-Carlo benchmark driver.

`lmbp run <config>` executes the configured number of runs, writes per-run
estimate and truth CSVs, the aggregate per-step mean OSPA curve, and a
summary with mean step runtime and mean track count. A fixed seed makes
every CSV byte-identical across executions; timing lives only in the
summary text file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, RunConfig, build_run_config, parse_config_text
from .estimation import detect_and_estimate, write_estimates_csv
from .metrics import mospa_curve, ospa
from .rfs import FilterState
from .simulate import generate_frames, generate_truth, write_truth_csv
from .update import lmbp_step


@dataclasses.dataclass
class RunSummary:
    mospa: np.ndarray
    mean_step_seconds: float
    mean_track_count: float
    out_dir: Path
    files: list[Path]


def initial_state(config: RunConfig, rng: np.random.Generator) -> FilterState:
    """Empty label set plus the initial intensity: a birth draw with no previous frame."""
    draw = dataclasses.replace(config.birth, mean_births=config.initial_phd_mass,
                               particle_budget=config.settings.phd_particles)
    scenario = config.scenario
    return FilterState((), draw.sample_phd((), scenario.motion, scenario.sensor, rng), 0)


def execute_run(config: RunConfig, master: np.random.SeedSequence):
    """One Monte-Carlo run: truth, frames, filtering, per-step OSPA."""
    truth_seq, filter_seq = master.spawn(2)
    rng_truth = np.random.default_rng(truth_seq)
    rng_filter = np.random.default_rng(filter_seq)
    scenario = config.scenario
    truth = generate_truth(scenario, rng_truth)
    frames = generate_frames(truth, scenario.sensor, rng_truth)

    state = initial_state(config, rng_filter)
    models = config.models
    prev_frame: Sequence = ()
    ospa_values = []
    estimates_log = []
    track_counts = []
    step_seconds = []
    for k in range(1, scenario.total_steps + 1):
        frame = frames[k - 1]
        started = time.perf_counter()
        state = lmbp_step(state, frame, models, config.thresholds, rng_filter,
                          prev_frame=prev_frame, settings=config.settings)
        estimates = detect_and_estimate(state, config.thresholds.gamma_d)
        step_seconds.append(time.perf_counter() - started)
        prev_frame = frame
        estimates_log.append((k, estimates))
        track_counts.append(len(state.block.labels))
        positions = np.array([e.state[:2] for e in estimates]).reshape(-1, 2)
        ospa_values.append(ospa(truth.alive_positions(k), positions, config.ospa))
    return truth, estimates_log, ospa_values, track_counts, step_seconds


def run_experiment(config: RunConfig, quiet: bool = False) -> RunSummary:
    """Execute all runs, write outputs, and aggregate the MOSPA curve.

    Partial outputs are removed if any run fails.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    master = np.random.SeedSequence(config.seed)
    run_seqs = master.spawn(config.mc_runs)

    try:
        all_ospa = []
        all_track_counts = []
        all_step_seconds = []
        for r in range(config.mc_runs):
            truth, estimates_log, ospa_values, track_counts, step_seconds = execute_run(
                config, run_seqs[r])
            all_ospa.append(ospa_values)
            all_track_counts.extend(track_counts)
            all_step_seconds.extend(step_seconds)

            est_path = out_dir / f"estimates_r{r:03d}.csv"
            with est_path.open("w") as fh:
                write_estimates_csv(fh, estimates_log)
            written.append(est_path)
            truth_path = out_dir / f"truth_r{r:03d}.csv"
            with truth_path.open("w") as fh:
                write_truth_csv(fh, truth)
            written.append(truth_path)
            if not quiet:
                mean_run = float(np.mean(ospa_values))
                print(f"run {r:3d}: mean OSPA {mean_run:7.3f}, "
                      f"mean step {np.mean(step_seconds) * 1e3:7.1f} ms")

        curve = mospa_curve(all_ospa)
        mospa_path = out_dir / "mospa.csv"
        with mospa_path.open("w") as fh:
            fh.write("k,mospa\n")
            for k, value in enumerate(curve, start=1):
                fh.write(f"{k},{value:.17g}\n")
        written.append(mospa_path)

        summary = RunSummary(
            mospa=curve,
            mean_step_seconds=float(np.mean(all_step_seconds)),
            mean_track_count=float(np.mean(all_track_counts)),
            out_dir=out_dir,
            files=list(written),
        )
        summary_path = out_dir / "summary.txt"
        with summary_path.open("w") as fh:
            fh.write("# run summary\n")
            for key, value in config.raw.items():
                fh.write(f"{key} = {value}\n")
            fh.write(f"mean_step_seconds = {summary.mean_step_seconds:.6f}\n")
            fh.write(f"mean_track_count = {summary.mean_track_count:.6f}\n")
        summary.files.append(summary_path)
        return summary
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lmbp", description="Particle multi-object tracking benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the Monte-Carlo experiment in a config file")
    runp.add_argument("config", help="path to a key = value run configuration")
    runp.add_argument("--seed", type=int, help="override run.seed")
    runp.add_argument("--runs", type=int, help="override run.mc_runs")
    runp.add_argument("--out", help="override run.out_dir")
    runp.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        values = parse_config_text(Path(args.config).read_text())
        flags = {"run.seed": args.seed, "run.mc_runs": args.runs, "run.out_dir": args.out}
        values.update({key: str(value) for key, value in flags.items() if value is not None})
        config = build_run_config(values)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        summary = run_experiment(config, quiet=args.quiet)
    except Exception as exc:  # noqa: BLE001 - abort with nonzero exit on any failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wrote {len(summary.files)} files to {summary.out_dir}")
        print(f"mean step: {summary.mean_step_seconds * 1e3:.1f} ms, "
              f"mean tracks: {summary.mean_track_count:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
