"""Shared test utilities: controlled sensor doubles, random cluster generation,
hypothesis pdfs, the closed-form and dense likelihood references and the dense intensity-update
references."""

import itertools
from typing import NamedTuple

import numpy as np

import lmbp.association
from lmbp.association import Marginals
from lmbp.models import SensorModel, wrap_angle
from lmbp.rfs import Label, ParticleSet, TrackBlock, row_reduce


class StubSensor:
    """Sensor double returning prescribed detection probabilities and likelihoods.

    `pd` is aligned with the particle order of whatever set it is applied to,
    and repeated along a block whose tracks have `len(pd)` particles each;
    `lik` has one row per frame measurement, which every state set gets.
    Every state sits at range and bearing 0. A likelihood floor is accepted
    and ignored, so `normalizer` only has to exist. Clutter and its disk are
    `SensorModel`'s own, with `clutter_mean` points per frame over a disk of
    radius `max_range`.
    """

    normalizer = 1.0
    covers = SensorModel.covers
    clutter_intensity_at = SensorModel.clutter_intensity_at

    def __init__(self, pd, lik=None, clutter_mean=0.0, max_range=300.0):
        self.pd = np.asarray(pd, dtype=float)
        self.lik = None if lik is None else np.asarray(lik, dtype=float)
        self.clutter_mean, self.max_range = clutter_mean, max_range

    def range_bearing(self, states):
        shape = np.shape(states)[:-1]
        return np.zeros(shape), np.zeros(shape)

    def detection_prob_at(self, rho):
        return np.resize(self.pd, np.shape(rho))

    def likelihood_table(self, frame, states):
        if self.lik is None:
            raise AssertionError("stub has no likelihood table")
        return self.lik[: len(frame)]

    def likelihood_cells(self, frame, rho, theta, floor=None):
        """The nonzero entries of the stub's likelihood table, as cells."""
        return cells_of(self.likelihood_table(frame, rho))

    def row_bounds(self, frame, rho, theta, offsets):
        """Exponent bound 0 under the table's largest entry as the
        normalizer: a true bound, and no pair bounded below the floor."""
        top = self.likelihood_table(frame, rho).max(initial=0.0) if len(frame) else 0.0
        return np.zeros((len(offsets) - 1, len(frame))), float(top)

    def likelihood_rows(self, frame, meas, rho, theta, lengths):
        """The first `lengths[k]` entries of row `meas[k]` of the stub's
        table for each pair k, end to end; nothing for no pairs."""
        if not len(meas):
            return np.empty(0)
        table = self.likelihood_table(frame, rho)
        return np.concatenate([table[m, :n] for m, n in zip(meas, lengths)])


class ClusterTables(NamedTuple):
    """One cluster's association-weight tables, in the argument order of
    `lmbp.association._pass_marginals` and `bp_marginals`: `det_beta[i, j]`
    pairs legacy label i with measurement j, and `transferred[j]` marks a
    measurement with a transfer label."""

    miss_beta: np.ndarray              # (L,)
    det_beta: np.ndarray               # (L, M)
    new_beta: np.ndarray               # (M,)
    transferred: np.ndarray            # (M,) bool


def whole(cluster):
    """The one-cluster list that covers all of `cluster`'s tables, as
    `exact_marginals` and `batch_bp_marginals` take it."""
    L, M = cluster.det_beta.shape
    return [(np.arange(L), np.arange(M))]


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
    return ClusterTables(draw(n_legacy), draw((n_legacy, n_meas)), draw(n_meas), transferred)


def brute_force_marginals(cluster):
    """Independent enumeration oracle for every marginal path: every vector of
    legacy entries in {0..M} and transfer entries in {0, 1}, kept when its
    measurements are distinct, weighted by plain products of the beta factors."""
    L, M = cluster.det_beta.shape
    transfers = np.flatnonzero(cluster.transferred).tolist()
    legacy, claim, total = np.zeros((L, 1 + M)), np.zeros(M), 0.0
    for entries in itertools.product(range(M + 1), repeat=L):
        for bits in itertools.product((0, 1), repeat=len(transfers)):
            by_legacy = [m - 1 for m in entries if m > 0]
            by_transfer = [j for j, bit in zip(transfers, bits) if bit]
            if len(set(by_legacy + by_transfer)) != len(by_legacy + by_transfer):
                continue
            weight = 1.0
            for i, m in enumerate(entries):
                weight *= cluster.miss_beta[i] if m == 0 else cluster.det_beta[i, m - 1]
            for j in range(M):
                if j not in by_legacy:   # claimed by its transfer or by nothing
                    weight *= cluster.new_beta[j]
            legacy[np.arange(L), entries] += weight
            claim[by_transfer] += weight
            total += weight
    return Marginals(legacy / total, claim / total)


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


def pdf_of(states, hyp):
    """The particle set of a hypothesis whose weights lie over `states`, or
    the empty set; like any `ParticleSet`, it rejects non-finite weights."""
    return ParticleSet(states, hyp.weights) if len(hyp.weights) else ParticleSet.empty()


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
    `betas` (L, M) at the plausibility threshold `gamma_c`: the clusters of
    the pairs >= gamma_c and > 0, with every weight below gamma_c set to 0."""
    plausible = np.where(np.asarray(betas) < gamma_c, 0.0, betas)
    return lmbp.association.partition(*lmbp.association._components(plausible))


def light_pairs(evidence) -> int:
    """The pairs `track_evidence` evaluated inside a cluster whose weight run
    has mass but which weigh nothing, r b < gamma_c having set b to 0."""
    group = evidence.group
    inside = evidence.row_of[group.pair_row] == evidence.col_of[group.pair_col]
    mass = row_reduce(np.add, group.lik, group.cuts)
    return int(np.count_nonzero(inside & (group.b == 0.0) & (mass > 0.0)))


def per_track_prediction(tracks, motion, rng):
    """The per-track prediction that `predict_tracks` batches, as the
    reference: (label, existence, states, weights) of every surviving track,
    each track's noise drawn by its own `transition_sample` call."""
    out = []
    for track in tracks:
        weights = track.pdf.weights * motion.survival_prob(track.pdf.states)
        total = float(weights.sum())
        if total > 0.0:
            out.append((track.label, min(track.existence * total, 1.0),
                        motion.transition_sample(track.pdf.states, rng), weights / total))
    return out


def carried(weights, particle_budget):
    """Reference for the resample gate: whether a kept row keeps its weights.
    It has `particle_budget` particles and an effective sample size
    (sum w)^2 / sum w^2 of at least half of them (inclusive); a NaN or inf
    weight fails the test. One row at a time, by its own `w @ w` and sum."""
    squares = float(weights @ weights)
    if len(weights) != particle_budget or not 0.0 < squares < np.inf:
        return False
    total = float(weights.sum())
    return total * total / squares >= 0.5 * particle_budget


def block_of(rows, birth_time=1):
    """An unchecked `TrackBlock` of `(existence, weights, states)` rows,
    labelled (birth_time, 1), (birth_time, 2), ... in order."""
    block = TrackBlock.empty([Label(birth_time, i + 1) for i in range(len(rows))],
                             [r for r, _, _ in rows], [len(w) for _, w, _ in rows])
    for (states, weights), (_, w, s) in zip(block.rows(), rows):
        states[:], weights[:] = s, w
    return block


def block_row(block, i):
    """Row i of `block` as a block of its own, over views of its arrays."""
    a, b = block.offsets[i:i + 2].tolist()
    return TrackBlock(block.labels[i:i + 1], block.existence[i:i + 1], np.array([0, b - a]),
                      block.states[a:b], block.weights[a:b])
