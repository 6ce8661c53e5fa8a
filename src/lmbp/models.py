"""Statistical models: nearly-constant-velocity motion, range-bearing sensor
with its polar-uniform clutter, and the measurement-driven birth proposal.

All models are read-only parameter bundles; every sampling method takes an
explicit `numpy.random.Generator` so parallel callers own independent streams.
State arrays are `(..., 4)` with layout [x1, x2, v1, v2] and unit time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .rfs import Measurement, ParticleSet, PoissonPhd, STATE_DIM


# float64 exp(x) is exactly 0.0 below about -745.13; a likelihood entry whose
# exponent is bounded below this floor is left at 0.0 without evaluating it
EXP_FLOOR = -760.0
# absolute slack (rad) on bearing bounds; covers rounding in the offsets
_BEARING_SLACK = 1e-12
# relative and absolute (in sigma_range) slack on range bounds; covers rounding
_RANGE_SLACK = 1e-9
# rows' worth of window, (pi - half-width) summed, below which the dense M x N
# evaluation beats the bearing grid on intensity-sized sets (measured: ~3)
_DENSE_ROWS = 3.0


def wrap_angle(theta):
    """Wrap angles to [-pi, pi)."""
    wrapped = np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi
    # theta + pi just below a multiple of 2 pi has its mod round up to 2 pi,
    # which gives pi; [()] returns a scalar for a scalar theta
    return np.where(wrapped >= np.pi, -np.pi, wrapped)[()]


def _wrap_residual(delta: np.ndarray) -> np.ndarray:
    """Wrap a fresh array of bearing differences in [-2pi, 2pi] to [-pi, pi),
    in place: two conditional shifts, applied by index because few entries
    need them."""
    flat = delta.reshape(-1)
    flat[np.flatnonzero(flat >= np.pi)] -= 2.0 * np.pi
    flat[np.flatnonzero(flat < -np.pi)] += 2.0 * np.pi
    return delta


def _grid_bin(x, x0, scale, count):
    """Bin of each x on a grid of `count` bins of width 1 / scale from x0:
    monotone in x, with values beyond either end in the end bins."""
    return np.clip((x - x0) * scale, 0, count - 1).astype(np.intp)


@dataclass(frozen=True)
class MotionModel:
    """Nearly-constant-velocity motion with white acceleration noise.

    x_k = A x_{k-1} + W u_k,  u_k ~ N(0, sigma_u^2 I_2). A and W are
    read-only class constants, so the fields are `sigma_u` and `p_survival`
    and two models with equal fields compare equal and hash alike.
    """

    A: ClassVar[np.ndarray] = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    W: ClassVar[np.ndarray] = np.array([
        [0.5, 0.0],
        [0.0, 0.5],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    # C-contiguous copies of A.T and W.T: BLAS multiplies by them ~2.5x
    # faster than by the transposed views, with the same bits (every product
    # is exact and each output has at most two nonzero terms)
    A_T: ClassVar[np.ndarray] = np.ascontiguousarray(A.T)
    W_T: ClassVar[np.ndarray] = np.ascontiguousarray(W.T)
    A.flags.writeable = W.flags.writeable = A_T.flags.writeable = W_T.flags.writeable = False
    sigma_u: float = 0.01
    p_survival: float = 0.99

    def __post_init__(self):
        if not self.sigma_u >= 0:
            raise ValueError("sigma_u must be nonnegative")
        if not 0.0 <= self.p_survival <= 1.0:
            raise ValueError("p_survival must be in [0, 1]")

    def survival_prob(self, states: np.ndarray) -> np.ndarray:
        """Survival probability per state; constant by default, overridable."""
        states = np.asarray(states, dtype=float)
        return np.full(states.shape[:-1], self.p_survival)

    def transition_sample(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance states (..., 4) one step through the noisy transition kernel.
        The noise is one `rng.normal` draw over the states in C order, so a
        stack of sets draws what one call per set, in order, would."""
        states = np.asarray(states, dtype=float)
        flat = states.reshape(-1, STATE_DIM)
        out = flat @ self.A_T
        if self.sigma_u > 0:
            out += rng.normal(0.0, self.sigma_u, (len(flat), 2)) @ self.W_T
        return out.reshape(states.shape)


@dataclass(frozen=True)
class SensorModel:
    """Range-bearing sensor with distance-dependent detection probability
    and Poisson clutter: the one measurement model.

    Detection probability is pd_max * exp(-d^2 / pd_scale^2) with d the
    distance from the sensor to the object position; the likelihood is the
    product of independent range and (wrapped) bearing Gaussians. Clutter is
    `clutter_mean` points per frame, uniform in (range, bearing) over the
    disk. `covers` is the one disk test, and `screen` the one measurement
    screen, which `lmbp_step` runs on its frame and the birth on its seeds.
    """

    position: np.ndarray = field(default_factory=lambda: np.array([0.0, -50.0]))
    max_range: float = 300.0
    sigma_range: float = 2.0
    sigma_bearing: float = np.deg2rad(1.0)
    pd_max: float = 0.7
    pd_scale: float = 450.0
    clutter_mean: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(2))
        for name in ("max_range", "sigma_range", "sigma_bearing", "pd_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.pd_max <= 1.0:
            raise ValueError("pd_max must be in (0, 1]")
        if not self.clutter_mean >= 0:
            raise ValueError("clutter_mean must be nonnegative")
        # an infinite normalizer makes every likelihood nan (0 x inf), and every
        # measurement would be dropped; a zero product divides by zero
        scale = 2.0 * math.pi * float(self.sigma_range) * float(self.sigma_bearing)
        if scale == 0.0 or math.isinf(1.0 / scale):
            raise ValueError("sigma_range * sigma_bearing is so small that the likelihood "
                             "normalizer overflows")

    def covers(self, ranges):
        """Whether each range lies in the sensor disk [0, max_range]; False for nan."""
        return (ranges >= 0.0) & (ranges <= self.max_range)

    def screen(self, frame: Sequence[Measurement]) -> list[Measurement]:
        """The measurements of `frame` this sensor can have made, in order:
        those with a range in the disk (`covers`) and a finite bearing."""
        return [z for z in frame if self.covers(z.range) and math.isfinite(z.bearing)]

    def clutter_intensity_at(self, ranges: np.ndarray) -> np.ndarray:
        """Clutter intensity at measurement ranges; zero outside the sensor disk."""
        density = 1.0 / (self.max_range * 2.0 * np.pi)
        return np.where(self.covers(ranges), self.clutter_mean * density, 0.0)

    def sample_clutter(self, rng: np.random.Generator) -> list[Measurement]:
        """One frame of clutter: a Poisson count, uniform over the disk."""
        count = rng.poisson(self.clutter_mean)
        ranges = rng.uniform(0.0, self.max_range, count)
        bearings = rng.uniform(-np.pi, np.pi, count)
        return [Measurement(float(r), float(b)) for r, b in zip(ranges, bearings)]

    @property
    def normalizer(self) -> float:
        """1 / (2 pi sigma_range sigma_bearing), the likelihood's normalizer."""
        return 1.0 / (2.0 * np.pi * self.sigma_range * self.sigma_bearing)

    def range_bearing(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """True (range, bearing) of states as seen from the sensor."""
        states = np.asarray(states, dtype=float)
        dx = states[..., 0] - self.position[0]
        dy = states[..., 1] - self.position[1]
        return np.sqrt(dx * dx + dy * dy), np.arctan2(dy, dx)

    def detection_prob_at(self, rho: np.ndarray) -> np.ndarray:
        """Detection probability at the ranges `rho` of `range_bearing`."""
        return self.pd_max * np.exp(-(rho ** 2) / self.pd_scale ** 2)

    def likelihood_cells(self, frame: Sequence[Measurement], rho: np.ndarray,
                         theta: np.ndarray, floor: float | np.ndarray = EXP_FLOOR
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f(z_m | x_n) of a whole frame against N states, given as their
        `range_bearing` (N,) `rho` and `theta`, as the cells of the (M, N)
        table whose exponent clears `floor`, a scalar or one value per
        measurement: `(row, col, value)` arrays in strictly ascending
        (row, col) order, so a sum over a row's cells in cell order adds
        them by column. The arrays are fresh, and the caller may scale
        `value`.

        Every cell is bit-identical to evaluating its entry, but only cells
        that can clear the floor are evaluated. At the default `EXP_FLOOR`
        every cell left out is exactly 0.0, since float64 exp underflows to
        0.0 below about -745.13; a higher floor leaves out small values too.
        Every exponent is <= 0, so a row whose floor is above 0 has no cells.
        Unless the frame is too small to pay for it, the states are sorted on
        a bearing x range grid and each measurement is evaluated only over
        the grid cells of its window. Every evaluated entry goes through
        `_exponent`; with a non-finite state or measurement every cell is
        evaluated and kept, so nan and inf propagate.
        """
        zr, zb, norm = self._frame_terms(frame)
        if zr.size == 0 or rho.size == 0:
            return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
        floor = np.broadcast_to(np.asarray(floor, dtype=float), zr.shape)
        finite = all(np.isfinite(a).all() for a in (zr, zb, rho, theta))
        rows = np.flatnonzero(floor <= 0.0) if finite else np.arange(zr.size)
        floor = floor[rows]
        # bearing half-width beyond which every exponent is below the floor
        half = np.sqrt(-2.0 * floor) * self.sigma_bearing + _BEARING_SLACK if finite else np.pi
        if finite and (half < np.pi).all() and (np.pi - half).sum() > _DENSE_ROWS * np.pi:
            row, col, quad = self._windowed_exponents(zr[rows], zb[rows], rows, floor,
                                                      rho, theta, half)
        else:
            quad = self._exponent(zr[rows, None], zb[rows, None], rho, theta)
            row, col = np.nonzero((quad >= floor[:, None]) | (not finite))
            row, quad = rows[row], quad[row, col]
        np.exp(quad, out=quad)
        quad *= norm
        return row, col, quad

    # a dense view of `likelihood_cells`, kept for the tests and because
    # perfbench's tracer wraps this name and counts its table
    def likelihood_table(self, frame: Sequence[Measurement], states: np.ndarray) -> np.ndarray:
        """(M, N) table of f(z_m | x_n): `likelihood_cells` scattered into zeros."""
        states = np.asarray(states, dtype=float).reshape(-1, STATE_DIM)
        row, col, value = self.likelihood_cells(frame, *self.range_bearing(states))
        table = np.zeros((len(frame), len(states)))
        table[row, col] = value
        return table

    def row_bounds(self, frame: Sequence[Measurement], rho: np.ndarray,
                   theta: np.ndarray) -> tuple[np.ndarray, float]:
        """Row gate of L state sets, given as their `range_bearing` (L, N)
        `rho` and `theta`, against a frame: an (L, M) upper bound on each
        pair's exponent, and the normalizer, so f(z_m | x) <= norm exp(bound)
        over the set. A pair bounded below `EXP_FLOOR` has an all-zero row.
        The bound is +inf for a set with a non-finite state, and everywhere
        when a measurement is not finite."""
        zr, zb, norm = self._frame_terms(frame)
        return self._exponent_bounds(zr, zb, rho, theta), norm

    def likelihood_rows(self, frame: Sequence[Measurement], meas: np.ndarray,
                        rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """(K, N) likelihood rows of K pairs: f(z | x) of `frame[meas[k]]`
        against the N states whose `range_bearing` is `rho[k]`, `theta[k]`.

        Each entry is bit-identical to the same entry of `likelihood_table`:
        it goes through `_exponent` and `exp` with the same operations. The
        rows are a fresh array, which the caller may scale in place.
        """
        zr, zb, norm = self._frame_terms([frame[m] for m in meas])
        rows = self._exponent(zr[:, None], zb[:, None], rho, theta)
        np.exp(rows, out=rows)
        rows *= norm
        return rows

    def _frame_terms(self, frame: Sequence[Measurement]) -> tuple[np.ndarray, np.ndarray, float]:
        """Ranges and wrapped bearings of a frame, and the likelihood's normalizer."""
        zr = np.array([z.range for z in frame], dtype=float)
        zb = wrap_angle(np.array([z.bearing for z in frame], dtype=float))
        return zr, zb, self.normalizer

    def _exponent(self, zr, zb, rho, theta) -> np.ndarray:
        """-0.5 (dr^2 + db^2), elementwise over broadcast measurement and
        state arrays: the one place the likelihood exponent is computed."""
        dr = zr - rho
        dr /= self.sigma_range
        db = _wrap_residual(zb - theta)
        db /= self.sigma_bearing
        dr *= dr
        db *= db
        dr += db
        dr *= -0.5
        return dr

    def _exponent_bounds(self, zr, zb, rho, theta) -> np.ndarray:
        """(L, M) exponent upper bounds of L state sets, `rho` and `theta`
        (L, N), against M measurements: -inf for an empty set, +inf where a
        state or measurement is not finite. Each set's bearings are bounded
        as offsets from its first state's bearing, so an arc across the +-pi
        seam stays one interval."""
        count, n = rho.shape
        if n == 0:
            return np.full((count, zr.size), -np.inf)
        if not np.isfinite(zr + zb).all():
            return np.full((count, zr.size), np.inf)
        ref = theta[:, :1]
        offset = _wrap_residual(theta - ref)
        lo, hi = offset.min(axis=1, keepdims=True), offset.max(axis=1, keepdims=True)
        rho_lo, rho_hi = rho.min(axis=1, keepdims=True), rho.max(axis=1, keepdims=True)
        finite = np.isfinite(lo + hi + rho_lo + rho_hi)[:, 0]
        # circular distance from each measurement to the arc ref + [lo, hi]
        centred = _wrap_residual(_wrap_residual(zb - ref) - 0.5 * (lo + hi))
        gap = np.abs(centred) - 0.5 * (hi - lo) - _BEARING_SLACK
        db = np.maximum(gap, 0.0) / self.sigma_bearing
        dr = np.maximum(np.maximum(rho_lo - zr, zr - rho_hi), 0.0) / self.sigma_range
        return np.where(finite[:, None], -0.5 * (dr * dr + db * db), np.inf)

    def _windowed_exponents(self, zr, zb, rows, floor, rho, theta, half):
        """Exponents of the cells that clear their measurement's `floor`,
        among those inside its bearing window [zb - half, zb + half] (each
        half < pi) and its range reach.

        The states are grouped once on a bearing x range grid, by one sort
        of small integer cell ids: bearing bin major, range bin minor. A
        window is then one run of the sorted order per bearing bin it
        touches, over the range bins within `reach` of its measurement, and
        the runs of all measurements are gathered flat, without padding.
        Returns the cells' table rows, columns and exponents, sorted back to
        (row, col) order.
        """
        n = rho.size
        # the range offset beyond which the range term alone is below the
        # floor, with slack for rounding
        reach = (np.sqrt(-2.0 * floor) * (1.0 + _RANGE_SLACK) + _RANGE_SLACK) * self.sigma_range
        # bins a quarter of the mean half-width and reach wide; at most N in
        # all, and few enough for int16 ids, which a stable sort orders by radix
        cap = min(n, np.iinfo(np.int16).max)
        nb = min(math.ceil(8.0 * np.pi / half.mean()), cap)
        b_scale, r_scale = nb / (2.0 * np.pi), 4.0 / reach.mean()
        # the range bins cover only what both the states and the windows reach
        r0 = max(rho.min(), (zr - reach).min())
        span = min(rho.max(), (zr + reach).max()) - r0
        nr = int(np.clip(np.ceil(span * r_scale), 1, cap // nb))
        ids = _grid_bin(theta, -np.pi, b_scale, nb) * nr + _grid_bin(rho, r0, r_scale, nr)
        order = np.argsort(ids.astype(np.int16), kind="stable")
        sorted_ids = ids[order]
        # a window across the +-pi seam continues at the other end of the
        # bearing bins, and reads each bin once
        low = zb - half < -np.pi
        high = zb + half >= np.pi
        b_lo = _grid_bin(np.where(low, zb - half + 2.0 * np.pi, zb - half), -np.pi, b_scale, nb)
        b_hi = _grid_bin(np.where(high, zb + half - 2.0 * np.pi, zb + half), -np.pi, b_scale, nb)
        runs = np.minimum(b_hi - b_lo + 1 + nb * (low | high), nb)
        # one run of the sorted order per row and bearing bin: its range bins
        # from zr - reach to zr + reach
        run_row = np.repeat(np.arange(zr.size), runs)
        b = np.arange(runs.sum()) + np.repeat(b_lo - (np.cumsum(runs) - runs), runs)
        base = np.where(b < nb, b, b - nb) * nr
        r_lo = _grid_bin(zr - reach, r0, r_scale, nr)[run_row]
        r_hi = _grid_bin(zr + reach, r0, r_scale, nr)[run_row]
        first = np.searchsorted(sorted_ids, base + r_lo)
        length = np.searchsorted(sorted_ids, base + r_hi, "right") - first
        count = np.add.reduceat(length, np.cumsum(runs) - runs)
        pos = np.arange(count.sum()) + np.repeat(first - (np.cumsum(length) - length), length)
        col = order[pos]
        quad = self._exponent(np.repeat(zr, count), np.repeat(zb, count), rho[col], theta[col])
        keep = np.flatnonzero(quad >= np.repeat(floor, count))
        row, col = np.repeat(rows, count)[keep], col[keep]
        cell = np.argsort(row * n + col)
        return row[cell], col[cell], quad[keep[cell]]

    def sample_measurement(self, state: np.ndarray, rng: np.random.Generator) -> Measurement:
        """Noisy measurement of one state; range clamped to [0, max_range]."""
        rho, theta = self.range_bearing(np.asarray(state, dtype=float))
        r = float(rho + rng.normal(0.0, self.sigma_range))
        b = float(wrap_angle(theta + rng.normal(0.0, self.sigma_bearing)))
        return Measurement(min(max(r, 0.0), self.max_range), b)


def uniform_disk_positions(center: np.ndarray, radius: float, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """`count` positions uniform in area over a disk."""
    r = radius * np.sqrt(rng.random(count))
    ang = rng.uniform(-np.pi, np.pi, count)
    return np.asarray(center) + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)


@dataclass(frozen=True)
class BirthModel:
    """Measurement-driven birth intensity for newborn unlabeled objects.

    Each birth particle picks one of the previous frame's measurements that
    pass `SensorModel.screen` (in the disk, with a finite bearing), inverts
    the range-bearing map at a noise-perturbed copy of it, draws a zero-mean
    Gaussian velocity, and advances one step through the motion kernel.
    With no such measurement the positions fall back to uniform over the
    sensor disk. Total weight is always `mean_births`.
    """

    mean_births: float = 0.1
    velocity_sigma: float = 0.5
    particle_budget: int = 5000

    def __post_init__(self):
        if not self.mean_births >= 0:
            raise ValueError("mean_births must be nonnegative")
        if self.particle_budget <= 0:
            raise ValueError("particle_budget must be positive")

    def sample_phd(self, prev_measurements: Sequence[Measurement], motion: MotionModel,
                   sensor: SensorModel, rng: np.random.Generator) -> PoissonPhd:
        n = self.particle_budget
        states = np.empty((n, STATE_DIM))
        seeds = sensor.screen(prev_measurements)
        if seeds:
            zr, zb = np.array(list(zip(*seeds)), dtype=float)
            pick = rng.integers(0, len(seeds), n)
            r = zr[pick] + rng.normal(0.0, sensor.sigma_range, n)
            b = zb[pick] + rng.normal(0.0, sensor.sigma_bearing, n)
            states[:, 0] = sensor.position[0] + r * np.cos(b)
            states[:, 1] = sensor.position[1] + r * np.sin(b)
            states[:, 2:] = rng.normal(0.0, self.velocity_sigma, (n, 2))
            states = motion.transition_sample(states, rng)
        else:
            states[:, :2] = uniform_disk_positions(sensor.position, sensor.max_range, n, rng)
            states[:, 2:] = rng.normal(0.0, self.velocity_sigma, (n, 2))
        weights = np.full(n, self.mean_births / n)
        return PoissonPhd(ParticleSet(states, weights))


@dataclass(frozen=True)
class Models:
    """The three model ingredients the filter recursion needs."""

    motion: MotionModel
    sensor: SensorModel
    birth: BirthModel
