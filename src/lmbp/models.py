"""Statistical models: nearly-constant-velocity motion, range-bearing sensor,
polar-uniform clutter, and the measurement-driven birth proposal.

All models are read-only parameter bundles; every sampling method takes an
explicit `numpy.random.Generator` so parallel callers own independent streams.
State arrays are `(..., 4)` with layout [x1, x2, v1, v2] and unit time step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rfs import Measurement, ParticleSet, PoissonPhd, STATE_DIM


# float64 exp(x) is exactly 0.0 below about -745.13; a likelihood entry whose
# exponent is bounded below this floor is left at 0.0 without evaluating it
EXP_FLOOR = -760.0
# absolute slack (rad) on bearing bounds; covers rounding in the offsets
_BEARING_SLACK = 1e-12


def wrap_angle(theta):
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi


def _wrap_residual(delta: np.ndarray) -> np.ndarray:
    """Wrap a fresh array of bearing differences in [-2pi, 2pi] to [-pi, pi),
    in place: two conditional shifts, applied by index because few entries
    need them."""
    flat = delta.reshape(-1)
    flat[np.flatnonzero(flat >= np.pi)] -= 2.0 * np.pi
    flat[np.flatnonzero(flat < -np.pi)] += 2.0 * np.pi
    return delta


def _ncv_transition() -> np.ndarray:
    return np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _ncv_noise_input() -> np.ndarray:
    return np.array([
        [0.5, 0.0],
        [0.0, 0.5],
        [1.0, 0.0],
        [0.0, 1.0],
    ])


@dataclass(frozen=True)
class MotionModel:
    """Nearly-constant-velocity motion with white acceleration noise.

    x_k = A x_{k-1} + W u_k,  u_k ~ N(0, sigma_u^2 I_2).
    """

    A: np.ndarray = field(default_factory=_ncv_transition)
    W: np.ndarray = field(default_factory=_ncv_noise_input)
    sigma_u: float = 0.01
    p_survival: float = 0.99

    def __post_init__(self):
        if self.sigma_u < 0:
            raise ValueError("sigma_u must be nonnegative")
        if not 0.0 <= self.p_survival <= 1.0:
            raise ValueError("p_survival must be in [0, 1]")

    def survival_prob(self, states: np.ndarray) -> np.ndarray:
        """Survival probability per state; constant by default, overridable."""
        states = np.asarray(states, dtype=float)
        return np.full(states.shape[:-1], self.p_survival)

    def transition_sample(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance states one step through the noisy transition kernel."""
        states = np.asarray(states, dtype=float)
        out = states @ self.A.T
        if self.sigma_u > 0:
            noise = rng.normal(0.0, self.sigma_u, states.shape[:-1] + (2,))
            out = out + noise @ self.W.T
        return out


@dataclass(frozen=True)
class SensorModel:
    """Range-bearing sensor with distance-dependent detection probability.

    Detection probability is pd_max * exp(-d^2 / pd_scale^2) with d the
    distance from the sensor to the object position; the likelihood is the
    product of independent range and (wrapped) bearing Gaussians.
    """

    position: np.ndarray = field(default_factory=lambda: np.array([0.0, -50.0]))
    max_range: float = 300.0
    sigma_range: float = 2.0
    sigma_bearing: float = np.deg2rad(1.0)
    pd_max: float = 0.7
    pd_scale: float = 450.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(2))
        for name in ("max_range", "sigma_range", "sigma_bearing", "pd_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.pd_max <= 1.0:
            raise ValueError("pd_max must be in (0, 1]")

    def range_bearing(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """True (range, bearing) of states as seen from the sensor."""
        states = np.asarray(states, dtype=float)
        dx = states[..., 0] - self.position[0]
        dy = states[..., 1] - self.position[1]
        return np.hypot(dx, dy), np.arctan2(dy, dx)

    def detection_prob(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        rho = np.hypot(states[..., 0] - self.position[0], states[..., 1] - self.position[1])
        return self.pd_max * np.exp(-(rho ** 2) / self.pd_scale ** 2)

    def likelihood(self, z: Measurement, states: np.ndarray) -> np.ndarray:
        """Measurement density f(z | x) evaluated per state."""
        rho, theta = self.range_bearing(states)
        dr = (z.range - rho) / self.sigma_range
        db = wrap_angle(z.bearing - theta) / self.sigma_bearing
        norm = 1.0 / (2.0 * np.pi * self.sigma_range * self.sigma_bearing)
        return norm * np.exp(-0.5 * (dr ** 2 + db ** 2))

    def likelihood_cells(self, frame: Sequence[Measurement],
                         states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f(z_m | x_n) of a whole frame against N states, as the cells of the
        (M, N) table that can be nonzero: `(row, col, value)` arrays, in
        ascending row order with each (row, col) once. Every cell left out is
        exactly 0.0; the arrays are fresh, and the caller may scale `value`.

        Bit-identical to evaluating every entry, but only entries that can be
        nonzero are evaluated: float64 exp underflows to exactly 0.0 below
        about -745.13, so an entry whose exponent is bounded below
        `EXP_FLOOR` is left out. A measurement that no state can reach has no
        cells (row gate, from O(N) range and bearing bounds). When the frame
        is large enough to pay for sorting the states by bearing, each
        remaining measurement is evaluated only over its bearing window. Only
        cells whose exponent clears the floor are kept. Every evaluated entry
        goes through `_exponent`; with a non-finite state, measurement or
        normalizer every cell is evaluated and kept, so nan and inf propagate.
        """
        rho, theta = self.range_bearing(np.asarray(states, dtype=float).reshape(-1, STATE_DIM))
        zr, zb, norm = self._frame_terms(frame)
        n = rho.size
        # bearing half-width beyond which every exponent is below the floor
        half = np.sqrt(-2.0 * EXP_FLOOR) * self.sigma_bearing + _BEARING_SLACK
        keep, finite = self._reachable_rows(zr, zb, rho.reshape(1, n), theta.reshape(1, n))
        gated = bool(finite[0] and np.isfinite(norm))
        rows = np.flatnonzero(keep[0]) if gated else np.arange(len(frame))
        # sort only when the cells the windows skip outnumber the sort's comparisons
        if gated and len(rows) * (np.pi - half) > np.pi * np.log2(max(n, 2)):
            row, col, quad = self._windowed_exponents(zr[rows], zb[rows], rows, rho, theta, half)
        else:
            quad = self._exponent(zr[rows, None], zb[rows, None], rho, theta)
            row, col = np.nonzero((quad >= EXP_FLOOR) | (not gated))
            row, quad = rows[row], quad[row, col]
        np.exp(quad, out=quad)
        quad *= norm
        return row, col, quad

    # a dense view of `likelihood_cells`, kept for the tests and because
    # perfbench's tracer wraps this name and counts its table
    def likelihood_table(self, frame: Sequence[Measurement], states: np.ndarray) -> np.ndarray:
        """(M, N) table of f(z_m | x_n): `likelihood_cells` scattered into zeros."""
        row, col, value = self.likelihood_cells(frame, states)
        table = np.zeros((len(frame), np.size(states) // STATE_DIM))
        table[row, col] = value
        return table

    def likelihood_rows(self, frame: Sequence[Measurement],
                        states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Likelihood rows of L state sets of N states each, `states` (L, N, 4),
        against a frame, evaluated only where the row gate keeps them.

        Returns the set indices and the measurement indices (0-based) of the
        K kept (set, measurement) pairs, and their (K, N) rows of f(z_m | x);
        every pair left out has an all-zero row. Each entry is bit-identical
        to the same entry of `likelihood_table(frame, states[l])`: it goes
        through `_exponent` and `exp` with the same operations. The rows are a
        fresh array, which the caller may scale in place.
        """
        states = np.asarray(states, dtype=float)
        rho, theta = self.range_bearing(states)
        zr, zb, norm = self._frame_terms(frame)
        keep, _ = self._reachable_rows(zr, zb, rho, theta)
        # with a non-finite normalizer an underflowed entry is nan, not 0.0
        sets, meas = np.nonzero(keep | (not np.isfinite(norm)))
        rows = self._exponent(zr[meas, None], zb[meas, None], rho[sets], theta[sets])
        np.exp(rows, out=rows)
        rows *= norm
        return sets, meas, rows

    def _frame_terms(self, frame: Sequence[Measurement]) -> tuple[np.ndarray, np.ndarray, float]:
        """Ranges and wrapped bearings of a frame, and the likelihood's normalizer."""
        zr = np.array([z.range for z in frame], dtype=float)
        zb = wrap_angle(np.array([z.bearing for z in frame], dtype=float))
        return zr, zb, 1.0 / (2.0 * np.pi * self.sigma_range * self.sigma_bearing)

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

    def _reachable_rows(self, zr, zb, rho, theta) -> tuple[np.ndarray, np.ndarray]:
        """Row gate of L state sets, `rho` and `theta` (L, N), against M
        measurements.

        Returns an (L, M) mask of the pairs whose exponent bound over the
        set's states clears `EXP_FLOOR`, and an (L,) mask of the sets whose
        bounds are finite. A set with a non-finite state, and every set when
        a measurement is not finite, keeps every pair (then every entry is
        evaluated). Each set's bearings are bounded as offsets from its first
        state's bearing, so an arc across the +-pi seam stays one interval.
        """
        count, n = rho.shape
        if n == 0:
            return np.zeros((count, zr.size), dtype=bool), np.ones(count, dtype=bool)
        if not np.isfinite(zr + zb).all():
            return np.ones((count, zr.size), dtype=bool), np.zeros(count, dtype=bool)
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
        return (-0.5 * (dr * dr + db * db) >= EXP_FLOOR) | ~finite[:, None], finite

    def _windowed_exponents(self, zr, zb, rows, rho, theta, half):
        """Exponents of the cells that can clear `EXP_FLOOR`: those inside
        their measurement's bearing window [zb - half, zb + half] (half < pi)
        whose range term alone clears it.

        The states are sorted by bearing once; a window is then one run of
        the sorted order taken modulo N, and the runs of all measurements are
        gathered flat, without padding. Returns the cells' table rows,
        columns and exponents.
        """
        n = rho.size
        order = np.argsort(theta)
        sorted_theta = theta[order]
        # a window across the +-pi seam continues at the other end of the order
        low = zb - half < -np.pi
        high = zb + half >= np.pi
        lo = np.searchsorted(sorted_theta, np.where(low, zb - half + 2.0 * np.pi, zb - half),
                             "left")
        hi = np.searchsorted(sorted_theta, np.where(high, zb + half - 2.0 * np.pi, zb + half),
                             "right")
        count = hi - lo + n * (low | high)
        # two laps of the sorted order make every window one run of positions
        order = np.concatenate([order, order])
        pos = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        zr_cells = np.repeat(zr, count)
        rho_cells = rho[order][pos]
        # range prefilter: the same dr as `_exponent`, so the bound is exact
        dr = zr_cells - rho_cells
        dr /= self.sigma_range
        dr *= dr
        dr *= -0.5
        near = np.flatnonzero(dr >= EXP_FLOOR)
        pos = pos[near]
        quad = self._exponent(zr_cells[near], np.repeat(zb, count)[near], rho_cells[near],
                              np.concatenate([sorted_theta, sorted_theta])[pos])
        keep = np.flatnonzero(quad >= EXP_FLOOR)
        return np.repeat(rows, count)[near[keep]], order[pos[keep]], quad[keep]

    def sample_measurement(self, state: np.ndarray, rng: np.random.Generator) -> Measurement:
        """Noisy measurement of one state; range clamped to [0, max_range]."""
        rho, theta = self.range_bearing(np.asarray(state, dtype=float))
        r = float(rho + rng.normal(0.0, self.sigma_range))
        b = float(wrap_angle(theta + rng.normal(0.0, self.sigma_bearing)))
        return Measurement(min(max(r, 0.0), self.max_range), b)


@dataclass(frozen=True)
class ClutterModel:
    """Poisson clutter, uniform in (range, bearing) over the sensor disk."""

    mean_count: float = 100.0
    max_range: float = 300.0

    def __post_init__(self):
        if self.mean_count < 0:
            raise ValueError("mean_count must be nonnegative")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")

    @property
    def density(self) -> float:
        return 1.0 / (self.max_range * 2.0 * np.pi)

    def intensity(self, z: Measurement) -> float:
        """Clutter intensity at a measurement; zero outside the sensor disk."""
        if 0.0 <= z.range <= self.max_range:
            return self.mean_count * self.density
        return 0.0

    def sample(self, rng: np.random.Generator) -> list[Measurement]:
        count = rng.poisson(self.mean_count)
        ranges = rng.uniform(0.0, self.max_range, count)
        bearings = rng.uniform(-np.pi, np.pi, count)
        return [Measurement(float(r), float(b)) for r, b in zip(ranges, bearings)]


def uniform_disk_positions(center: np.ndarray, radius: float, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """`count` positions uniform in area over a disk."""
    r = radius * np.sqrt(rng.random(count))
    ang = rng.uniform(-np.pi, np.pi, count)
    return np.asarray(center) + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)


@dataclass(frozen=True)
class BirthModel:
    """Measurement-driven birth intensity for newborn unlabeled objects.

    Each birth particle picks one of the previous frame's measurements,
    inverts the range-bearing map at a noise-perturbed copy of it, draws a
    zero-mean Gaussian velocity, and advances one step through the motion
    kernel. With no previous measurements the positions fall back to uniform
    over the sensor disk. Total weight is always `mean_births`.
    """

    mean_births: float = 0.1
    velocity_sigma: float = 0.5
    particle_budget: int = 5000

    def __post_init__(self):
        if self.mean_births < 0:
            raise ValueError("mean_births must be nonnegative")
        if self.particle_budget <= 0:
            raise ValueError("particle_budget must be positive")

    def sample_phd(self, prev_measurements: Sequence[Measurement], motion: MotionModel,
                   sensor: SensorModel, rng: np.random.Generator) -> PoissonPhd:
        n = self.particle_budget
        states = np.empty((n, STATE_DIM))
        if len(prev_measurements) > 0:
            pick = rng.integers(0, len(prev_measurements), n)
            zr = np.array([z.range for z in prev_measurements])[pick]
            zb = np.array([z.bearing for z in prev_measurements])[pick]
            r = zr + rng.normal(0.0, sensor.sigma_range, n)
            b = zb + rng.normal(0.0, sensor.sigma_bearing, n)
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
    """The four model ingredients the filter recursion needs."""

    motion: MotionModel
    sensor: SensorModel
    clutter: ClutterModel
    birth: BirthModel
