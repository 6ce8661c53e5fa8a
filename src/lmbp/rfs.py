"""Core value types: labels, particle sets, Bernoulli tracks, intensity, filter state.

All types are immutable after construction (arrays are marked read-only), so
they can be shared freely across threads. Mutation happens only by building
new values.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

STATE_DIM = 4  # [x1, x2, v1, v2]

#: Tolerance under which a particle set counts as a normalized spatial pdf.
PDF_TOL = 1e-9


class Label(NamedTuple):
    """Unique track identity: (birth step, per-step index). Orders lexicographically."""

    birth_time: int
    index: int


class Measurement(NamedTuple):
    """One range-bearing measurement; bearing in [-pi, pi)."""

    range: float
    bearing: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ParticleSet:
    """Weighted particles over the 4D state space.

    Used both for normalized spatial pdfs (weights sum to 1) and for
    intensity functions (weight sum = expected object count).
    """

    states: np.ndarray   # (n, 4)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float).reshape(-1, STATE_DIM)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if states.shape[0] != weights.shape[0]:
            raise ValueError("states and weights length mismatch")
        if weights.size and (not np.all(np.isfinite(weights)) or np.any(weights < 0)):
            raise ValueError("particle weights must be finite and nonnegative")
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "weights", _freeze(weights))

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def is_normalized(self, tol: float = PDF_TOL) -> bool:
        return abs(self.total_weight - 1.0) <= tol

    @staticmethod
    def empty() -> "ParticleSet":
        """The empty set: one shared instance, which its read-only arrays make safe."""
        return _EMPTY


_EMPTY = ParticleSet(np.empty((0, STATE_DIM)), np.empty(0))


def resample(pset: ParticleSet, target_count: int, rng: np.random.Generator) -> ParticleSet:
    """Systematic (low-variance) resampling to `target_count` equal-weight particles.

    The total weight is preserved; one uniform draw is consumed from `rng`.
    """
    if target_count <= 0:
        raise ValueError("target_count must be positive")
    total = pset.total_weight
    if total <= 0.0:
        raise ValueError("degenerate particle set")
    cum = np.cumsum(pset.weights)
    cum[-1] = total  # guard against cumsum rounding
    positions = (rng.random() + np.arange(target_count)) * (total / target_count)
    idx = np.searchsorted(cum, positions, side="right")
    idx = np.minimum(idx, len(pset) - 1)
    weights = np.full(target_count, total / target_count)
    return ParticleSet(pset.states[idx], weights)


def weighted_mean(pset: ParticleSet) -> np.ndarray:
    """First moment of a normalized particle pdf."""
    if not pset.is_normalized():
        raise ValueError("particle set is not a normalized pdf")
    return pset.weights @ pset.states


@dataclass(frozen=True)
class BernoulliTrack:
    """Labeled Bernoulli component: existence probability + spatial particle pdf."""

    label: Label
    existence: float
    pdf: ParticleSet

    def __post_init__(self):
        if not 0.0 <= self.existence <= 1.0 + 1e-12:
            raise ValueError(f"existence probability out of [0,1]: {self.existence}")
        object.__setattr__(self, "existence", min(float(self.existence), 1.0))
        if len(self.pdf) and not self.pdf.is_normalized():
            raise ValueError("track pdf is not normalized")
        if len(self.pdf) == 0 and self.existence > 0.0:
            raise ValueError("track with positive existence needs a nonempty pdf")


@dataclass(frozen=True)
class PoissonPhd:
    """Unnormalized particle intensity of the unlabeled objects."""

    particles: ParticleSet

    @property
    def mean(self) -> float:
        """Expected number of unlabeled objects (total particle weight)."""
        return self.particles.total_weight

    @staticmethod
    def empty() -> "PoissonPhd":
        return PoissonPhd(ParticleSet.empty())


@dataclass(frozen=True)
class FilterState:
    """Posterior at one time step: labeled tracks plus unlabeled intensity."""

    tracks: tuple[BernoulliTrack, ...]
    phd: PoissonPhd
    time: int

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        labels = [t.label for t in self.tracks]
        if len(set(labels)) != len(labels):
            raise ValueError("track labels are not pairwise distinct")
        for lab in labels:
            if lab.birth_time > self.time:
                raise ValueError(f"label {lab} born after state time {self.time}")

    def labels(self) -> tuple[Label, ...]:
        return tuple(t.label for t in self.tracks)


# ---------------------------------------------------------------------------
# Snapshot format: line-oriented text, one record per line.
#
#   time,<k>
#   track,<birth>,<index>,<existence>,<n_particles>
#   p,<weight>,<x1>,<x2>,<v1>,<v2>          (n_particles lines)
#   phd,<n_particles>
#   p,<weight>,<x1>,<x2>,<v1>,<v2>          (n_particles lines)
#
# Floats are written with repr so a round trip reproduces them exactly.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_particles(out: io.TextIOBase, pset: ParticleSet) -> None:
    for w, s in zip(pset.weights, pset.states):
        out.write("p," + _fmt(w) + "," + ",".join(_fmt(v) for v in s) + "\n")


def write_snapshot(state: FilterState, out: io.TextIOBase) -> None:
    """Serialize a FilterState to the line-oriented snapshot format."""
    out.write(f"time,{state.time}\n")
    for track in state.tracks:
        out.write(
            f"track,{track.label.birth_time},{track.label.index},"
            f"{_fmt(track.existence)},{len(track.pdf)}\n"
        )
        _write_particles(out, track.pdf)
    out.write(f"phd,{len(state.phd.particles)}\n")
    _write_particles(out, state.phd.particles)


def _read_particles(lines: list[str], at: int, count: int) -> tuple[ParticleSet, int]:
    states = np.empty((count, STATE_DIM))
    weights = np.empty(count)
    for i in range(count):
        parts = lines[at + i].split(",")
        if parts[0] != "p":
            raise ValueError(f"snapshot line {at + i + 1}: expected particle record")
        weights[i] = float(parts[1])
        states[i] = [float(v) for v in parts[2:6]]
    return ParticleSet(states, weights), at + count


def read_snapshot(src: io.TextIOBase) -> FilterState:
    """Parse a snapshot produced by `write_snapshot`."""
    lines = [ln.strip() for ln in src if ln.strip()]
    if not lines or not lines[0].startswith("time,"):
        raise ValueError("snapshot must start with a time record")
    time = int(lines[0].split(",")[1])
    tracks = []
    at = 1
    phd = PoissonPhd.empty()
    while at < len(lines):
        parts = lines[at].split(",")
        if parts[0] == "track":
            label = Label(int(parts[1]), int(parts[2]))
            existence = float(parts[3])
            pdf, at = _read_particles(lines, at + 1, int(parts[4]))
            tracks.append(BernoulliTrack(label, existence, pdf))
        elif parts[0] == "phd":
            pset, at = _read_particles(lines, at + 1, int(parts[1]))
            phd = PoissonPhd(pset)
        else:
            raise ValueError(f"snapshot line {at + 1}: unknown record {parts[0]!r}")
    return FilterState(tuple(tracks), phd, time)
