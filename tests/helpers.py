"""Shared test utilities: controlled sensor doubles, random cluster generation,
the dense likelihood reference and the dense intensity-update references."""

import numpy as np

from lmbp.association import Cluster
from lmbp.models import wrap_angle


class StubSensor:
    """Sensor double returning prescribed detection probabilities and likelihoods.

    `pd` is aligned with the particle order of whatever set it is applied to;
    `lik` has one row per frame measurement.
    """

    def __init__(self, pd, lik=None):
        self.pd = np.asarray(pd, dtype=float)
        self.lik = None if lik is None else np.asarray(lik, dtype=float)

    def detection_prob(self, states):
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            return self.pd[0]
        return self.pd[: states.shape[0]]

    def likelihood_table(self, frame, states):
        if self.lik is None:
            raise AssertionError("stub has no likelihood table")
        return self.lik[: len(frame)]

    def likelihood_cells(self, frame, states):
        """The nonzero entries of the stub's likelihood table, as cells."""
        return cells_of(self.likelihood_table(frame, states))

    def likelihood_rows(self, frame, states):
        """Every (set, measurement) pair of the L sets in `states`, each set
        given the stub's likelihood table (none is needed for an empty frame)."""
        states = np.asarray(states, dtype=float)
        table = self.likelihood_table(frame, states) if len(frame) else \
            np.empty((0, states.shape[1]))
        count, meas = len(states), len(frame)
        return (np.repeat(np.arange(count), meas), np.tile(np.arange(meas), count),
                np.tile(table, (count, 1)))


def random_cluster(rng, max_legacy=4, max_transfer=2, max_meas=4,
                   log10_lo=-6.0, log10_hi=2.0):
    """Random association problem with log-uniform weight entries."""
    n_legacy = int(rng.integers(1, max_legacy + 1))
    n_meas = int(rng.integers(0, max_meas + 1))
    n_transfer = int(rng.integers(0, min(max_transfer, n_meas) + 1)) if n_meas else 0

    def draw(shape):
        return 10.0 ** rng.uniform(log10_lo, log10_hi, shape)

    transferred = np.zeros(n_meas, dtype=bool)
    if n_transfer:
        transferred[rng.choice(n_meas, size=n_transfer, replace=False)] = True
    return Cluster(draw(n_legacy), draw((n_legacy, n_meas)), draw(n_meas), transferred)


def max_label_tv(exact, approx):
    """Largest per-label total-variation distance between two marginal sets;
    a transfer's pmf over {no claim, claim} is Bernoulli(claim)."""
    legacy = 0.5 * np.abs(exact.legacy - approx.legacy).sum(axis=1)
    claim = np.abs(exact.claim - approx.claim)
    return max(legacy.max(initial=0.0), claim.max(initial=0.0))


def dense_likelihood_table(sensor, frame, states):
    """Reference for `SensorModel.likelihood_table`: every entry evaluated."""
    states = np.asarray(states, dtype=float)
    rho, theta = sensor.range_bearing(states)
    if len(frame) == 0:
        return np.empty((0,) + rho.shape)
    zr = np.array([z.range for z in frame])[:, None]
    zb = wrap_angle(np.array([z.bearing for z in frame]))[:, None]
    dr = (zr - rho[None, :]) / sensor.sigma_range
    db = zb - theta[None, :]
    # residual lies in (-2pi, 2pi); branchless wrap to [-pi, pi)
    db = np.where(db >= np.pi, db - 2.0 * np.pi, db)
    db = np.where(db < -np.pi, db + 2.0 * np.pi, db)
    db /= sensor.sigma_bearing
    quad = dr * dr
    quad += db * db
    quad *= -0.5
    np.exp(quad, out=quad)
    quad *= 1.0 / (2.0 * np.pi * sensor.sigma_range * sensor.sigma_bearing)
    return quad


def cells_of(table, every=False):
    """An (M, N) table as fresh (row, col, value) cells in row-major order:
    its nonzero entries, or `every` entry."""
    table = np.asarray(table, dtype=float)
    row, col = np.nonzero(np.ones(table.shape, dtype=bool) if every else table)
    return row, col, table[row, col]


def table_of(cells, shape):
    """The dense (M, N) table of `cells`; every cell left out is 0.0."""
    row, col, value = cells
    table = np.zeros(shape)
    table[row, col] = value
    return table


def dense_new_components(phd, pd, lik, intensity):
    """Reference for `new_components` from a dense (M, N) likelihood table
    `lik` and each measurement's clutter intensity: beta, mass and the dense
    table of w pD f. A transferred component's pdf weights are table[m] / d."""
    table = (phd.particles.weights * pd) * lik
    mass = table.sum(axis=1)
    return intensity + mass, mass, table


def dense_phd_weights(phd, pd, beta, table):
    """Reference for the weights `update_phd` gives the predicted intensity
    particles before resampling, from the dense rows of the K unclaimed
    measurements: (1 - pD) w + sum_k table[k] / beta[k]."""
    return phd.particles.weights * (1.0 - pd) + np.einsum("k,kn->n", 1.0 / beta, table)
