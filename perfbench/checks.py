"""Output checks made from outside the filter, and digests of its CSV outputs.

`StepProbe` replaces the `lmbp_step` name that `lmbp.cli` calls. It times each
call with one `perf_counter` pair, then checks the returned `FilterState`
and times the host-speed reference task (hostspeed.py), both outside the
timed interval. A failed check marks the Monte-Carlo run it
happened in as failed; filtering goes on, so later runs still proceed.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from lmbp.rfs import PDF_TOL, FilterState

from hostspeed import reference_seconds


def state_problems(prev: FilterState, frame, state: FilterState) -> list[str]:
    """Invariants of one step's output; an empty list means the state passed."""
    problems = []
    k = prev.time + 1
    if state.time != k:
        problems.append(f"state time {state.time}, expected {k}")
    labels = [t.label for t in state.tracks]
    if any(a >= b for a, b in zip(labels, labels[1:])):
        problems.append("labels are not unique and sorted")
    for track in state.tracks:
        lab = track.label
        if not 0.0 <= track.existence <= 1.0:
            problems.append(f"label {lab}: existence {track.existence} outside [0, 1]")
        pdf = track.pdf
        if track.existence > 0.0:
            if len(pdf) == 0:
                problems.append(f"label {lab}: positive existence with an empty pdf")
            elif abs(pdf.total_weight - 1.0) > PDF_TOL:
                problems.append(f"label {lab}: pdf weight {pdf.total_weight!r} not normalized")
        if not (np.isfinite(pdf.states).all() and np.isfinite(pdf.weights).all()):
            problems.append(f"label {lab}: nonfinite particles")
        if lab.birth_time == k and not 1 <= lab.index <= len(frame):
            problems.append(f"new label {lab} outside 1..{len(frame)}")
    phd = state.phd.particles
    if not (np.isfinite(phd.states).all() and np.isfinite(phd.weights).all()):
        problems.append("nonfinite intensity particles")
    mass = state.phd.mean
    if not (np.isfinite(mass) and mass >= 0.0):
        problems.append(f"intensity mass {mass!r} is not finite and nonnegative")
    return problems


class StepProbe:
    """Stand-in for `lmbp_step`: times every call and checks what it returns.

    A call with `state.time == 0` starts a new Monte-Carlo run. `failed_runs`
    holds the indices (counted from 0 over the probe's life) of runs with at
    least one failed check; `problems` keeps the first few messages.
    `ref_samples[i]` is the reference task's duration right after call i;
    `outside_seconds` is the time spent on checks and references.
    """

    def __init__(self, step: Callable):
        self.step = step
        self.__wrapped__ = step
        self.samples: list[float] = []
        self.ref_samples: list[float] = []
        self.outside_seconds = 0.0
        self.runs_started = 0
        self.failed_runs: set[int] = set()
        self.problems: list[str] = []
        self.track_counts: list[int] = []

    def __call__(self, state, frame, *args, **kwargs):
        started = time.perf_counter()
        new_state = self.step(state, frame, *args, **kwargs)
        stopped = time.perf_counter()
        self.samples.append(stopped - started)
        if state.time == 0:
            self.runs_started += 1
        problems = state_problems(state, frame, new_state)
        if problems:
            self.failed_runs.add(self.runs_started - 1)
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])
        self.track_counts.append(len(new_state.tracks))
        self.ref_samples.append(reference_seconds())
        self.outside_seconds += time.perf_counter() - stopped
        return new_state


def digest_files(paths: Iterable[Path]) -> str:
    """SHA-256 over the bytes of the files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    """Digests of the byte-deterministic outputs of one experiment."""
    out_dir = Path(out_dir)
    return {
        "estimates": digest_files(sorted(out_dir.glob("estimates_r*.csv"))),
        "truth": digest_files(sorted(out_dir.glob("truth_r*.csv"))),
        "mospa": digest_files([out_dir / "mospa.csv"]),
    }
