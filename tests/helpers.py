"""Shared test utilities: controlled sensor doubles, random cluster generation,
the closed-form and dense likelihood references and the dense intensity-update
references."""

from collections import Counter

import numpy as np

import lmbp.association
import lmbp.update
from lmbp.association import Cluster
from lmbp.models import SensorModel, wrap_angle


class StubSensor:
    """Sensor double returning prescribed detection probabilities and likelihoods.

    `pd` is aligned with the particle order of whatever set it is applied to;
    `lik` has one row per frame measurement, which every state set gets.
    Every state sits at range and bearing 0. A likelihood floor is accepted
    and ignored, so `normalizer` only has to exist.
    """

    normalizer = 1.0

    def __init__(self, pd, lik=None):
        self.pd = np.asarray(pd, dtype=float)
        self.lik = None if lik is None else np.asarray(lik, dtype=float)

    def range_bearing(self, states):
        shape = np.shape(states)[:-1]
        return np.zeros(shape), np.zeros(shape)

    def detection_prob_at(self, rho):
        return np.broadcast_to(self.pd[: np.shape(rho)[-1]], np.shape(rho))

    def likelihood_table(self, frame, states):
        if self.lik is None:
            raise AssertionError("stub has no likelihood table")
        return self.lik[: len(frame)]

    def likelihood_cells(self, frame, rho, theta, floor=None):
        """The nonzero entries of the stub's likelihood table, as cells."""
        return cells_of(self.likelihood_table(frame, rho))

    def row_bounds(self, frame, rho, theta):
        """Exponent bound 0 under the table's largest entry as the
        normalizer: a true bound, and no pair bounded below the floor."""
        top = self.likelihood_table(frame, rho).max(initial=0.0) if len(frame) else 0.0
        return np.zeros((len(rho), len(frame))), float(top)

    def likelihood_rows(self, frame, meas, rho, theta):
        """Row `meas[k]` of the stub's table for each pair k."""
        return self.likelihood_table(frame, rho)[meas]


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


def likelihood(sensor, z, states):
    """Closed-form reference for the sensor's measurement density f(z | x),
    evaluated per state."""
    rho, theta = sensor.range_bearing(states)
    dr = (z.range - rho) / sensor.sigma_range
    db = wrap_angle(z.bearing - theta) / sensor.sigma_bearing
    return sensor.normalizer * np.exp(-0.5 * (dr ** 2 + db ** 2))


def dense_likelihood_table(sensor, frame, states):
    """Reference for `SensorModel.likelihood_table`: every entry evaluated."""
    return dense_polar_table(sensor, frame, *sensor.range_bearing(np.asarray(states, float)))


def dense_polar_table(sensor, frame, rho, theta):
    """`dense_likelihood_table` of the states with `range_bearing` rho, theta."""
    quad = dense_polar_exponents(sensor, frame, rho, theta)
    np.exp(quad, out=quad)
    quad *= 1.0 / (2.0 * np.pi * sensor.sigma_range * sensor.sigma_bearing)
    return quad


def dense_polar_exponents(sensor, frame, rho, theta):
    """The (M, N) exponents -0.5 (dr^2 + db^2) of `dense_polar_table`."""
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


def row_sums(table):
    """Each row of an (M, N) table added left to right from 0.0: the order in
    which a sum over (row, col)-ordered cells adds a row, since the entries
    left out are 0.0 and adding 0.0 is exact."""
    table = np.asarray(table, dtype=float)
    return np.cumsum(np.hstack([np.zeros((len(table), 1)), table]), axis=1)[:, -1]


def dense_new_components(phd, pd, lik, intensity):
    """Reference for `new_components` from a dense (M, N) likelihood table
    `lik` and each measurement's clutter intensity: beta, mass and the dense
    table of w pD f. A transferred component's pdf weights are table[m] / d."""
    table = (phd.particles.weights * pd) * lik
    mass = row_sums(table)
    return intensity + mass, mass, table


def dense_phd_weights(phd, pd, beta, table):
    """Reference for the weights `update_phd` gives the predicted intensity
    particles before resampling, from the dense rows of the K unclaimed
    measurements: (1 - pD) w + sum_k table[k] / beta[k]."""
    return phd.particles.weights * (1.0 - pd) + np.einsum("k,kn->n", 1.0 / beta, table)


def partition_of(betas, gamma_c):
    """`partition` of the labelling that `track_evidence` gives the weights
    `betas` (L, M) at the plausibility threshold `gamma_c`."""
    return lmbp.association.partition(*lmbp.association._components(betas, gamma_c))


def count_joined_rows(monkeypatch, counts: Counter) -> None:
    """Add to counts["deferred evaluated"] every track row that
    `track_evidence` evaluates after it labels the clusters: the pairs its
    gate deferred that joined a cluster. The window closes at the next call
    through `lmbp.update`, the step's next `track_evidence`; a direct call
    counts alone in a fresh `monkeypatch`."""
    labelled = [False]
    track_evidence = lmbp.update.track_evidence
    components = lmbp.association._components
    likelihood_rows = SensorModel.likelihood_rows

    def evidence_spy(*args, **kwargs):
        labelled[0] = False
        return track_evidence(*args, **kwargs)

    def components_spy(*args):
        labelled[0] = True
        return components(*args)

    def rows_spy(sensor, frame, meas, rho, theta):
        if labelled[0]:
            counts["deferred evaluated"] += len(meas)
        return likelihood_rows(sensor, frame, meas, rho, theta)

    monkeypatch.setattr(lmbp.update, "track_evidence", evidence_spy)
    monkeypatch.setattr(lmbp.association, "_components", components_spy)
    monkeypatch.setattr(SensorModel, "likelihood_rows", rows_spy)
