"""Core value types: labels, particle sets, Bernoulli tracks, intensity, filter state.

All value types are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads. Mutation happens
only by building new values. The exception is `TrackBlock`, the layout of
the tracks, whose arrays its builder fills in place until a `FilterState`
takes the block and marks them read-only.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
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


def check_weights(weights: np.ndarray) -> None:
    """ValueError unless every particle weight is finite and nonnegative."""
    # min is nan where any weight is; two reductions test finite and nonnegative
    if weights.size and not (weights.min() >= 0.0 and weights.max() < np.inf):
        raise ValueError("particle weights must be finite and nonnegative")


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
        check_weights(weights)
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "weights", _freeze(weights))

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

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
    [(idx, weight)] = resample_rows([pset.weights], target_count, rng)
    return ParticleSet(pset.states.take(idx, axis=0), np.full(target_count, weight))


def resample_rows(rows: Sequence[np.ndarray], count: int,
                  rng: np.random.Generator) -> list[tuple[np.ndarray, float]]:
    """Systematic resampling of K weighted particle sets in one pass, each to
    `count` particles of weight total / count. Returns per row the (count,)
    ascending indices of the particles drawn and that weight; the caller
    gathers its states at those indices into wherever the set goes.

    Row k is the weights of set k: particle n has weight weights[n] >= 0,
    at least one positive, or a `ValueError` names k. The row's total is
    the last entry of its running sum, up to its last positive weight, so a
    zero-weight particle anywhere leaves the total and the draws unchanged.
    One `rng.random(K)` gives the rows their uniforms in order, the same
    draws as K single ones. Every index is capped at the last positive
    weight, so no draw lands on a trailing particle of zero weight. Rows
    are taken one at a time: row-sized temporaries stay in cache, where
    (K, N) ones would not.
    """
    steps = np.arange(count)
    out = []
    for k, (weights, u) in enumerate(zip(rows, rng.random(len(rows)).tolist())):
        last = len(weights) - 1
        if last >= 0 and weights[last] <= 0.0:
            positive = np.flatnonzero(weights > 0.0)
            last = int(positive[-1]) if positive.size else -1
        # min is nan where any weight is
        if last < 0 or not weights.min() >= 0.0:
            raise ValueError(f"degenerate particle set: row {k} needs nonnegative weights, "
                             "at least one positive")
        cum = np.cumsum(weights[:last + 1])
        total = cum[-1]
        idx = np.searchsorted(cum, (u + steps) * (total / count), side="right")
        np.minimum(idx, last, out=idx)
        out.append((idx, total / count))
    return out


def row_reduce(ufunc: np.ufunc, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(values[a:b])` of each row a:b of `offsets`, 0.0 for an
    empty row; with np.add, the bits of `values[a:b].sum()`, never those of
    `np.add.reduceat`, which adds a row in order where numpy's sum adds it
    pairwise. Each run of consecutive rows of one length n > 0 is one
    (rows, n) view reduced along axis 1, which reduces each row as it reduces
    the row alone; np.minimum and np.maximum, whose result does not depend on
    the order, take one `reduceat` over the nonempty rows."""
    n = _row_length(offsets)
    if n:
        return ufunc.reduce(values[offsets[0]:offsets[-1]].reshape(-1, n), axis=1)
    cuts, out = offsets.tolist(), np.zeros(len(offsets) - 1)
    if ufunc is np.minimum or ufunc is np.maximum:
        rows = np.flatnonzero(np.diff(offsets))
        out[rows] = ufunc.reduceat(values[:cuts[-1]], offsets[rows])
        return out
    lengths = [b - a for a, b in zip(cuts, cuts[1:])]
    runs = [a for a in range(len(lengths)) if not a or lengths[a] != lengths[a - 1]]
    for a, b in zip(runs, runs[1:] + [len(lengths)]):
        if lengths[a]:
            ufunc.reduce(values[cuts[a]:cuts[b]].reshape(b - a, lengths[a]), axis=1, out=out[a:b])
    return out


def take_rows(arrays: Sequence[np.ndarray], offsets: np.ndarray,
              rows: np.ndarray) -> list[np.ndarray]:
    """The rows `rows` of each of `arrays`, cut by `offsets`, end to end: a
    gather of rows of an (L, n) view when every row has length n, else of
    the `run_indices` of the rows."""
    n = _row_length(offsets)
    if n:
        return [a[offsets[0]:offsets[-1]].reshape(-1, n)[rows].reshape(-1) for a in arrays]
    index = run_indices(offsets[rows], np.diff(offsets)[rows])
    return [a[index] for a in arrays]


def _row_length(offsets: np.ndarray) -> int:
    """The length n > 0 of every row of `offsets`, or 0 if they differ or are empty."""
    cuts = offsets.tolist()  # a list compares faster than arrays do at block sizes
    n = (cuts[-1] - cuts[0]) // max(len(cuts) - 1, 1)
    return n if n and cuts == list(range(cuts[0], cuts[-1] + 1, n)) else 0


def run_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of K runs end to end, run k being starts[k] + arange(lengths[k])."""
    return np.arange(lengths.sum()) + (starts - (lengths.cumsum() - lengths)).repeat(lengths)


def _checked_existence(existence: Sequence[float], totals: Sequence[float],
                       counts: Sequence[int]) -> list[float]:
    """The existence of tracks of `counts` particles each, capped at 1, after
    the track rules: existence in [0, 1 + 1e-12], a pdf whose weights total
    `totals` normalized within `PDF_TOL`, and no positive existence without
    particles. The first track to break a rule raises ValueError."""
    for r, total, count in zip(existence, totals, counts):
        if not 0.0 <= r <= 1.0 + 1e-12:
            raise ValueError(f"existence probability out of [0,1]: {r}")
        if count and not abs(total - 1.0) <= PDF_TOL:
            raise ValueError("track pdf is not normalized")
        if not count and r > 0.0:
            raise ValueError("track with positive existence needs a nonempty pdf")
    return [min(r, 1.0) for r in existence]


@dataclass(frozen=True)
class BernoulliTrack:
    """Labeled Bernoulli component: existence probability + spatial particle pdf."""

    label: Label
    existence: float
    pdf: ParticleSet

    def __post_init__(self):
        [r] = _checked_existence([float(self.existence)], [self.pdf.total_weight], [len(self.pdf)])
        object.__setattr__(self, "existence", r)


class TrackBlock(NamedTuple):
    """Labeled Bernoulli tracks as arrays: row i is the track `labels[i]` with
    existence `existence[i]` and the particles `offsets[i]:offsets[i + 1]`. A
    step's tables index tracks by row, and `FilterState` carries its tracks
    as one block from step to step."""

    labels: tuple[Label, ...]
    existence: np.ndarray                        # (L,)
    offsets: np.ndarray                          # (L + 1,) from 0 to P
    states: np.ndarray                           # (P, 4)
    weights: np.ndarray                          # (P,)

    @staticmethod
    def empty(labels: Sequence[Label], existence: Sequence[float],
              sizes: Sequence[int]) -> "TrackBlock":
        """A block whose row i has sizes[i] particles, states and weights unset."""
        offsets = np.fromiter(accumulate(sizes, initial=0), np.intp, len(sizes) + 1)
        return TrackBlock(tuple(labels), np.array(existence, dtype=float), offsets,
                          np.empty((offsets[-1], STATE_DIM)), np.empty(offsets[-1]))

    @staticmethod
    def of(tracks: Sequence[BernoulliTrack]) -> "TrackBlock":
        block = TrackBlock.empty([t.label for t in tracks], [t.existence for t in tracks],
                                 [len(t.pdf) for t in tracks])
        for (states, weights), track in zip(block.rows(), tracks):
            states[:], weights[:] = track.pdf.states, track.pdf.weights
        return block

    def rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (states, weights) views of every row, in row order."""
        cuts = self.offsets.tolist()
        return [(self.states[a:b], self.weights[a:b]) for a, b in zip(cuts, cuts[1:])]

    def tracks(self) -> tuple[BernoulliTrack, ...]:
        """Every row as a `BernoulliTrack` over views of its arrays, in row order."""
        return tuple(BernoulliTrack(label, r, ParticleSet(states, weights))
                     for label, r, (states, weights)
                     in zip(self.labels, self.existence.tolist(), self.rows()))

    def checked(self) -> "TrackBlock":
        """The block with its existence capped at 1, after the checks that
        `ParticleSet` and `BernoulliTrack` make per track, made once over the
        block and by the same functions, and after checking that the offsets
        start at 0, never decrease and end at the particle count. A failed
        check raises ValueError."""
        r, offsets, weights = self.existence, self.offsets, self.weights
        counts = np.diff(offsets)
        if (r.shape != (len(self.labels),) or offsets.shape != (len(r) + 1,) or offsets[0] != 0
                or (counts < 0).any() or self.states.shape != (offsets[-1], STATE_DIM)
                or weights.shape != (offsets[-1],)):
            raise ValueError("block offsets do not cut its states and weights into its rows")
        check_weights(weights)
        capped = _checked_existence(r.tolist(), row_reduce(np.add, weights, offsets).tolist(),
                                    counts.tolist())
        return self._replace(existence=np.array(capped, dtype=float))


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


@dataclass(frozen=True, init=False, eq=False)
class FilterState:
    """Posterior at one time step: labeled tracks plus unlabeled intensity.

    The tracks are one `TrackBlock`, `block`, which `lmbp_step` reads and
    writes. `tracks` is a read-only view of it as `BernoulliTrack`s, built on
    first access and then cached. `FilterState(tracks, phd, time)` copies the
    tracks into the block and caches the very objects as the view;
    `FilterState.from_block` checks the block (`TrackBlock.checked`). Either
    way the labels are pairwise distinct and none is born after `time`, or
    ValueError.
    """

    block: TrackBlock
    phd: PoissonPhd
    time: int

    def __init__(self, tracks: Sequence[BernoulliTrack], phd: PoissonPhd, time: int):
        tracks = tuple(tracks)
        self._set(TrackBlock.of(tracks), phd, time)
        object.__setattr__(self, "tracks", tracks)  # seeds the cache of the view

    @classmethod
    def from_block(cls, block: TrackBlock, phd: PoissonPhd, time: int) -> "FilterState":
        state = cls.__new__(cls)
        state._set(block.checked(), phd, time)
        return state

    def _set(self, block: TrackBlock, phd: PoissonPhd, time: int) -> None:
        labels = block.labels
        if len(set(labels)) != len(labels):
            raise ValueError("track labels are not pairwise distinct")
        for lab in labels:
            if lab.birth_time > time:
                raise ValueError(f"label {lab} born after state time {time}")
        for array in (block.existence, block.offsets, block.states, block.weights):
            array.flags.writeable = False
        for name, value in (("block", block), ("phd", phd), ("time", time)):
            object.__setattr__(self, name, value)

    @cached_property
    def tracks(self) -> tuple[BernoulliTrack, ...]:
        return self.block.tracks()


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


def _fields(lines: list[str], at: int, tag: str, count: int) -> list[str]:
    """The fields of record `at`, which must be a `tag` record of `count` fields."""
    if at >= len(lines):
        raise ValueError(f"snapshot line {at + 1}: missing {tag} record")
    parts = lines[at].split(",")
    if parts[0] != tag or len(parts) != count:
        raise ValueError(f"snapshot line {at + 1}: expected {tag} record of {count} fields")
    return parts


def _value(at: int, kind: type, text: str):
    """Field `text` of record `at` read as `kind`; a bad value names its line."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"snapshot line {at + 1}: bad {kind.__name__} {text!r}") from None


def _read_particles(lines: list[str], at: int, text: str) -> tuple[ParticleSet, int]:
    """The particle records after record `at`, whose count field is `text`,
    and the index of the record after them."""
    count = _value(at, int, text)
    if count < 0:
        raise ValueError(f"snapshot line {at + 1}: negative particle count {count}")
    states = np.empty((count, STATE_DIM))
    weights = np.empty(count)
    at += 1
    for i in range(count):
        parts = _fields(lines, at + i, "p", 2 + STATE_DIM)
        weights[i] = _value(at + i, float, parts[1])
        states[i] = [_value(at + i, float, v) for v in parts[2:6]]
        if not 0.0 <= weights[i] < np.inf:
            raise ValueError(f"snapshot line {at + i + 1}: particle weight {parts[1]} "
                             "is not finite and nonnegative")
    return ParticleSet(states, weights), at + count


def read_snapshot(src: io.TextIOBase) -> FilterState:
    """Parse a snapshot produced by `write_snapshot`. A malformed record or
    bad value raises ValueError naming its line."""
    lines = [ln.strip() for ln in src if ln.strip()]
    if not lines or not lines[0].startswith("time,"):
        raise ValueError("snapshot must start with a time record")
    time = _value(0, int, _fields(lines, 0, "time", 2)[1])
    tracks = []
    at = 1
    phd = None
    while at < len(lines):
        tag = lines[at].split(",")[0]
        if tag == "track":
            parts = _fields(lines, at, tag, 5)
            label = Label(_value(at, int, parts[1]), _value(at, int, parts[2]))
            existence = _value(at, float, parts[3])
            pdf, end = _read_particles(lines, at, parts[4])
            try:
                tracks.append(BernoulliTrack(label, existence, pdf))
            except ValueError as err:
                raise ValueError(f"snapshot line {at + 1}: {err}") from None
            at = end
        elif tag == "phd":
            if phd is not None:
                raise ValueError(f"snapshot line {at + 1}: second phd record")
            pset, at = _read_particles(lines, at, _fields(lines, at, tag, 2)[1])
            phd = PoissonPhd(pset)
        else:
            raise ValueError(f"snapshot line {at + 1}: unknown record {tag!r}")
    return FilterState(tuple(tracks), PoissonPhd.empty() if phd is None else phd, time)
