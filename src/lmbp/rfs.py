"""Core value types: labels, particle sets, Bernoulli tracks, intensity, filter state.

All value types are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads. Mutation happens
only by building new values. The exception is `TrackBlock`, the working
layout of one step's tracks, whose arrays its builder fills in place.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        # min is nan where any weight is; two reductions test finite and nonnegative
        if weights.size and not (weights.min() >= 0.0 and weights.max() < np.inf):
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
    A one-row call of `resample_rows`.
    """
    if target_count <= 0:
        raise ValueError("target_count must be positive")
    if pset.total_weight <= 0.0:
        raise ValueError("degenerate particle set")
    return resample_rows([(pset.weights, pset.states)], target_count, rng)[0]


def resample_rows(rows: Sequence[tuple[np.ndarray, np.ndarray]], count: int,
                  rng: np.random.Generator) -> list[ParticleSet]:
    """Systematic resampling of K weighted particle sets in one pass, each to
    `count` particles of weight total / count.

    Row k is `(weights, states)`: particle n is states[n] with weight
    weights[n] >= 0, at least one positive. The row's total is the last
    entry of its running sum, up to its last positive weight, so a
    zero-weight particle anywhere leaves the total and the draws unchanged.
    One `rng.random(K)` gives the rows their uniforms in order, the same
    draws as K single ones. Every index is capped at the last positive
    weight, so no draw lands on a trailing particle of zero weight. Rows
    are taken one at a time: row-sized temporaries stay in cache, where
    (K, N) ones would not.
    """
    if not rows:
        return []
    steps = np.arange(count)
    out = []
    for (weights, states), u in zip(rows, rng.random(len(rows)).tolist()):
        last = len(weights) - 1
        if weights[last] <= 0.0:
            last = int(np.flatnonzero(weights > 0.0)[-1])
        cum = np.cumsum(weights[:last + 1])
        total = cum[-1]
        idx = np.searchsorted(cum, (u + steps) * (total / count), side="right")
        np.minimum(idx, last, out=idx)
        out.append(ParticleSet(states.take(idx, axis=0), np.full(count, total / count)))
    return out


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


class TrackBlock(NamedTuple):
    """Labeled Bernoulli tracks as arrays: row i is the track `labels[i]` with
    existence `existence[i]`. Each group holds the tracks of one particle
    count N as `(rows, states, weights)`: their ascending rows (L_g,), states
    (L_g, N, 4) and pdf weights (L_g, N). A step's tables index tracks by row."""

    labels: tuple[Label, ...]
    existence: np.ndarray                                        # (L,)
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @staticmethod
    def empty(labels: Sequence[Label], existence: Sequence[float],
              sizes: Sequence[int]) -> "TrackBlock":
        """A block whose row i has sizes[i] particles, states and weights unset."""
        by_size: dict[int, list[int]] = {}
        for i, n in enumerate(sizes):
            by_size.setdefault(n, []).append(i)
        groups = tuple((np.array(rows, dtype=np.intp), np.empty((len(rows), n, STATE_DIM)),
                        np.empty((len(rows), n))) for n, rows in by_size.items())
        return TrackBlock(tuple(labels), np.array(existence, dtype=float), groups)

    @staticmethod
    def of(tracks: Sequence[BernoulliTrack]) -> "TrackBlock":
        block = TrackBlock.empty([t.label for t in tracks], [t.existence for t in tracks],
                                 [len(t.pdf) for t in tracks])
        for (states, weights), track in zip(block.rows(), tracks):
            states[:], weights[:] = track.pdf.states, track.pdf.weights
        return block

    def rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (states, weights) views of every row, in row order."""
        out: list = [None] * len(self.labels)
        for rows, states, weights in self.groups:
            for i, s, w in zip(rows.tolist(), states, weights):
                out[i] = (s, w)
        return out


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
