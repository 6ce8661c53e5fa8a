"""Shared test utilities: controlled sensor doubles, random cluster generation and
the dense likelihood reference."""

import numpy as np

from lmbp.association import Cluster
from lmbp.models import wrap_angle
from lmbp.rfs import Label


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
                   log10_lo=-6.0, log10_hi=2.0, time=5):
    """Random association problem with log-uniform weight entries."""
    n_legacy = int(rng.integers(1, max_legacy + 1))
    n_meas = int(rng.integers(0, max_meas + 1))
    n_transfer = int(rng.integers(0, min(max_transfer, n_meas) + 1)) if n_meas else 0

    def draw(shape):
        return 10.0 ** rng.uniform(log10_lo, log10_hi, shape)

    meas = tuple(range(1, n_meas + 1))
    legacy = tuple(Label(1, i + 1) for i in range(n_legacy))
    claimed = rng.choice(n_meas, size=n_transfer, replace=False) if n_transfer else []
    transfer = tuple(sorted(Label(time, int(meas[j])) for j in claimed))
    return Cluster(legacy, transfer, meas, draw(n_legacy),
                   draw((n_legacy, n_meas)), draw(n_meas))


def tv_distance(pmf_a, pmf_b):
    keys = set(pmf_a) | set(pmf_b)
    return 0.5 * sum(abs(pmf_a.get(k, 0.0) - pmf_b.get(k, 0.0)) for k in keys)


def max_label_tv(exact, approx):
    """Largest per-label total-variation distance between two marginal sets."""
    worst = 0.0
    for lab, pmf in exact.legacy.items():
        worst = max(worst, tv_distance(pmf, approx.legacy[lab]))
    for lab, pmf in exact.transfer.items():
        worst = max(worst, tv_distance(pmf, approx.transfer[lab]))
    return worst


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
