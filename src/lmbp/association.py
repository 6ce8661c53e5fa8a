"""Data association: hypothesis weights, plausibility partitioning, and
marginal association probabilities (exact enumeration and loopy BP).

A step's tables are arrays indexed from 0: row i is the i-th predicted track
and column j is `frame[j]`, and a cluster indexes its own rows and columns
the same way. Labels and hypothesis keys count measurements from 1, with 0
reserved for the miss: a track transferred from `frame[j]` at step k gets
label (k, j + 1), and `TrackEvidence.detection(i, j + 1)` pairs row i with
`frame[j]`. A cluster's marginal row likewise holds the miss at entry 0 and
the cluster's measurement j at entry 1 + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import ClutterModel, SensorModel
from .rfs import STATE_DIM, BernoulliTrack, Measurement, ParticleSet, PoissonPhd

_TINY = 1e-300  # denominator floor; keeps degenerate messages finite

# the cells of an (M, N) table that can be nonzero: (row, col, value) arrays in
# ascending row order; every cell left out is 0.0
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Hypothesis:
    """One association hypothesis: its weight, the existence probability it
    implies, and the spatial pdf given it.

    The same type serves a track's miss, a track's detection of one
    measurement, and the new component of a measurement transferred to the
    labeled part (see `lmbp.update.select_transfers`).
    """

    beta: float
    existence: float
    pdf: ParticleSet


# shared by every detection hypothesis with zero weight
_NO_DETECTION = Hypothesis(0.0, 0.0, ParticleSet.empty())


@dataclass(frozen=True)
class TrackEvidence:
    """Miss and detection evidence of L predicted tracks against one frame.

    Per track: c = sum_n w_n (1 - pD(x_n)) and miss_beta = 1 - r + r c; per
    measurement m: b = sum_n w_n pD(x_n) f(z_m|x_n) and betas[i, m-1] = r b.
    `miss_weights[i]` holds w (1 - pD) over tracks[i]'s particles, and
    `rows[(i, m)]` holds (w pD f(z_m|.), b) for every pair the likelihood
    gate kept; a pair left out has b = 0. No pdf is built until `miss` or
    `detection` asks for one.
    """

    tracks: tuple[BernoulliTrack, ...]
    miss_beta: np.ndarray                          # (L,)
    betas: np.ndarray                              # (L, M)
    miss_mass: np.ndarray                          # (L,) c
    miss_weights: tuple[np.ndarray, ...]
    rows: dict[tuple[int, int], tuple[np.ndarray, float]]

    def miss(self, i: int) -> Hypothesis:
        """Miss hypothesis of tracks[i]: existence r c / beta, pdf w (1 - pD) / c.

        beta can only vanish in the forced-detection corner (r = 1, pD = 1),
        which returns beta = 0 with existence 0.
        """
        beta, c = float(self.miss_beta[i]), float(self.miss_mass[i])
        if beta <= 0.0:
            return Hypothesis(0.0, 0.0, ParticleSet.empty())
        if c <= 0.0:
            # object, if present, was surely detected; pdf carries no mass
            return Hypothesis(beta, 0.0, ParticleSet.empty())
        track = self.tracks[i]
        return Hypothesis(beta, track.existence * c / beta,
                          ParticleSet(track.pdf.states, self.miss_weights[i] / c))

    def detection(self, i: int, m: int) -> Hypothesis:
        """Detection hypothesis of tracks[i] with measurement m: beta = r b,
        existence 1, pdf w pD f(z_m|.) / b over the track's own particles.
        b = 0 yields beta = 0 with an empty pdf (pruned later by gating)."""
        row = self.rows.get((i, m))
        if row is None or row[1] <= 0.0:
            return _NO_DETECTION
        weights, b = row
        return Hypothesis(float(self.betas[i, m - 1]), 1.0,
                          ParticleSet(self.tracks[i].pdf.states, weights / b))


def track_evidence(tracks: Sequence[BernoulliTrack], frame: Sequence[Measurement],
                   sensor: SensorModel) -> TrackEvidence:
    """Evidence of every predicted track against every measurement, in one pass.

    Tracks with the same particle count are stacked into one (L, N, 4)
    block: pD is evaluated once over it, and the sensor evaluates only the
    (track, measurement) likelihood rows its gate keeps, as one (K, N)
    block that is scaled by w pD in place and summed row by row.
    """
    count = len(tracks)
    r = np.array([t.existence for t in tracks], dtype=float)
    miss_mass = np.zeros(count)
    betas = np.zeros((count, len(frame)))
    miss_weights: list[np.ndarray] = [np.empty(0)] * count
    rows: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
    by_size: dict[int, list[int]] = {}
    for i, track in enumerate(tracks):
        by_size.setdefault(len(track.pdf), []).append(i)
    for n, members in by_size.items():
        idx = np.array(members)
        states = np.stack([tracks[i].pdf.states for i in members])
        weights = np.stack([tracks[i].pdf.weights for i in members])
        pd = sensor.detection_prob(states.reshape(-1, STATE_DIM)).reshape(len(members), n)
        miss = weights * (1.0 - pd)
        miss_mass[idx] = miss.sum(axis=1)
        for i, row in zip(members, miss):
            miss_weights[i] = row
        sets, meas, block = sensor.likelihood_rows(frame, states)
        block *= (weights * pd)[sets]
        b = block.sum(axis=1)
        owners = idx[sets]
        betas[owners, meas] = r[owners] * b
        for i, m, row, row_b in zip(owners.tolist(), (meas + 1).tolist(), block, b):
            rows[(i, m)] = (row, row_b)
    return TrackEvidence(tuple(tracks), 1.0 - r + r * miss_mass, betas, miss_mass,
                         tuple(miss_weights), rows)


def detection_hypotheses(track: BernoulliTrack, frame: Sequence[Measurement],
                         sensor: SensorModel) -> list[Hypothesis]:
    """Detection hypotheses of one predicted track against every measurement:
    `track_evidence` over [track], with every pdf built."""
    evidence = track_evidence([track], frame, sensor)
    return [evidence.detection(0, m) for m in range(1, len(frame) + 1)]


def miss_hypothesis(track: BernoulliTrack, sensor: SensorModel) -> Hypothesis:
    """Miss hypothesis of one predicted track: `track_evidence` over [track]."""
    return track_evidence([track], (), sensor).miss(0)


def new_components(phd: PoissonPhd, pd: np.ndarray, frame: Sequence[Measurement],
                   sensor: SensorModel,
                   clutter: ClutterModel) -> tuple[np.ndarray, np.ndarray, Cells]:
    """Unlabeled-or-clutter evidence of every measurement, as weights over the
    intensity particles.

    `pd` is the detection probability of each intensity particle. Returns
    `beta` (M,), `mass` (M,) and `cells`, the sensor's likelihood cells
    scaled to w_i pD(x_i) f(z_m|x_i): row m-1, column i. Measurement m's
    component has intensity mass d = mass[m-1], the sum of its row (bit for
    bit the row sum of the dense (M, N) table), beta = clutter intensity + d,
    existence d / beta, and pdf row / d over the intensity particles; no
    particle set is built here. beta is 0 for a measurement that neither
    clutter nor the intensity can explain, such as one beyond the sensor disk.
    """
    row, col, value = sensor.likelihood_cells(frame, phd.particles.states)
    value *= (phd.particles.weights * pd)[col]
    mass = np.zeros(len(frame))
    # numpy sums a dense row pairwise, which no sum over the cells alone
    # matches bit for bit: each row is scattered into one zeroed (N,) buffer,
    # summed there and zeroed again
    dense = np.zeros(len(phd.particles))
    bounds = np.searchsorted(row, np.arange(len(frame) + 1)).tolist()
    for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo < hi:
            dense[col[lo:hi]] = value[lo:hi]
            mass[m] = dense.sum()
            dense[col[lo:hi]] = 0.0
    beta = np.array([clutter.intensity(z) for z in frame]) + mass
    return beta, mass, (row, col, value)


# ---------------------------------------------------------------------------
# Partitioning of labels and measurements
# ---------------------------------------------------------------------------


def partition(betas: np.ndarray,
              gamma_c: float) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Group the rows of `betas` (labels) with the columns (measurements) they
    plausibly associate with.

    A pair is plausible when its weight is >= gamma_c; clusters are grown by
    iteratively merging row groups whose plausible column sets overlap
    (ties resolved toward the smallest group index for determinism). Returns
    `(clusters, residual)`: each cluster is a `(rows, cols)` pair of ascending
    index arrays, clusters are ordered by their smallest row, and `residual`
    holds the columns in no cluster.
    """
    clusters: list[tuple[list[int], set[int]]] = []
    for i, row in enumerate(betas):
        cols = set(np.flatnonzero(row >= gamma_c).tolist())
        overlapping = [c for c, (_, ms) in enumerate(clusters) if ms & cols]
        if not overlapping:
            clusters.append(([i], cols))
        else:
            # merge all overlapping groups into the lowest-indexed one
            target = overlapping[0]
            for c in overlapping[1:]:
                clusters[target][0].extend(clusters[c][0])
                clusters[target][1].update(clusters[c][1])
            clusters[target][0].append(i)
            clusters[target][1].update(cols)
            clusters = [cl for c, cl in enumerate(clusters) if c not in overlapping[1:]]

    # a group is created by its smallest row and merges only into older groups,
    # so the list is already ordered by smallest row
    out = [(np.array(sorted(rows), dtype=np.intp), np.array(sorted(cols), dtype=np.intp))
           for rows, cols in clusters]
    claimed = np.zeros(betas.shape[1], dtype=bool)
    for _, cols in out:
        claimed[cols] = True
    return out, np.flatnonzero(~claimed)


# ---------------------------------------------------------------------------
# Cluster association problem and its marginalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """One independent association problem: the association-weight tables of
    L legacy labels and M measurements.

    `det_beta[i, j]` pairs legacy label i with measurement j. A measurement
    with `transferred[j]` set also has a transfer label, which carries the
    implicit weights new_beta[j] for claim and 1 for no-claim.
    """

    miss_beta: np.ndarray              # (L,)
    det_beta: np.ndarray               # (L, M)
    new_beta: np.ndarray               # (M,)
    transferred: np.ndarray            # (M,) bool

    def __post_init__(self):
        L, M = self.det_beta.shape
        shapes = (self.miss_beta.shape, self.new_beta.shape, self.transferred.shape)
        if shapes != ((L,), (M,), (M,)):
            raise ValueError("cluster tables disagree in shape")


@dataclass(frozen=True)
class MarginalAssociation:
    """Marginal association probabilities of one cluster.

    `legacy[i, 0]` is legacy label i's miss and `legacy[i, 1 + j]` its
    detection of measurement j; `claim[j]` is the probability that the
    transfer on measurement j claims it, 0 where there is no transfer.
    """

    legacy: np.ndarray                 # (L, 1 + M)
    claim: np.ndarray                  # (M,)

    def __post_init__(self):
        # checked on Python floats: a cluster's few entries cost less than numpy calls
        for row in self.legacy.tolist():
            if abs(sum(row) - 1.0) > 1e-9 or min(row) < 0:
                raise ValueError("marginal pmf is not normalized")
        if any(p < 0 or p > 1 for p in self.claim.tolist()):
            raise ValueError("transfer claim is not a probability")


def enumerate_admissible(cluster: Cluster) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All admissible association vectors of a cluster with normalized weights.

    Returns `(legacy, claims, weights)` over the H vectors: `legacy` (H, L)
    holds each legacy label's entry, 0 for a miss and 1 + j for measurement
    j; `claims` (H, M) marks the measurements a transfer claims. No
    measurement is claimed twice, and every unclaimed measurement contributes
    its beta(m) factor. Weights are products of beta factors, computed in log
    domain and normalized to sum to one.
    """
    L, M = cluster.det_beta.shape
    with np.errstate(divide="ignore"):
        log_miss = np.log(cluster.miss_beta)
        log_det = np.log(cluster.det_beta)
        log_new = np.log(cluster.new_beta)
    tr_pos = np.flatnonzero(cluster.transferred).tolist()

    # (legacy entries, bit mask of the transfers' claims, log weight)
    vectors: list[tuple[tuple[int, ...], int, float]] = []

    def recurse_legacy(i: int, used: int, acc: float, entries: list[int]):
        if i == L:
            recurse_transfer(0, used, acc, entries, 0)
            return
        recurse_legacy(i + 1, used, acc + log_miss[i], entries + [0])
        for j in range(M):
            if not used & (1 << j):
                recurse_legacy(i + 1, used | (1 << j), acc + log_det[i, j], entries + [j + 1])

    def recurse_transfer(t: int, used: int, acc: float, leg: list[int], claimed: int):
        if t == len(tr_pos):
            unclaimed = acc
            for j in range(M):
                if not used & (1 << j):
                    unclaimed += log_new[j]
            vectors.append((tuple(leg), claimed, unclaimed))
            return
        recurse_transfer(t + 1, used, acc, leg, claimed)  # no-claim weight is 1
        j = tr_pos[t]
        if not used & (1 << j):
            recurse_transfer(t + 1, used | (1 << j), acc + log_new[j], leg, claimed | (1 << j))

    recurse_legacy(0, 0, 0.0, [])

    log_w = np.array([v[2] for v in vectors])
    peak = log_w.max()
    if not np.isfinite(peak):
        raise ValueError("all association hypotheses have zero weight")
    w = np.exp(log_w - peak)
    w /= w.sum()
    legacy = np.array([v[0] for v in vectors], dtype=np.intp).reshape(len(vectors), L)
    claims = ((np.array([v[1] for v in vectors])[:, None] >> np.arange(M)) & 1).astype(bool)
    return legacy, claims, w


def exact_marginals(cluster: Cluster) -> MarginalAssociation:
    """Marginal association probabilities by direct summation over admissible
    vectors, each accumulated in enumeration order."""
    entries, claims, weights = enumerate_admissible(cluster)
    L, M = cluster.det_beta.shape
    legacy = np.zeros((L, 1 + M))
    np.add.at(legacy, (np.arange(L), entries), weights[:, None])
    claim = np.zeros(M)
    vector, meas = np.nonzero(claims)
    np.add.at(claim, meas, weights[vector])
    return MarginalAssociation(legacy, claim)


def enumeration_size(cluster: Cluster) -> float:
    """Upper bound on the admissible-vector count (guards exact mode)."""
    L, M = cluster.det_beta.shape
    return float((M + 1) ** L * 2 ** int(np.count_nonzero(cluster.transferred)))


def bp_marginals(cluster: Cluster, iterations: int = 20) -> MarginalAssociation:
    """Loopy belief propagation on the bipartite label-measurement graph.

    Detection weights are normalized per measurement (w = beta(l,m)/beta(m)),
    which makes the scheme invariant to measurement-unit scaling. Messages

        x(l->m) = w(l,m) / (beta(l,0) + sum_{m' != m} w(l,m') nu(m'->l))
        nu(m->l) = 1 / (1 + [transfer on m] + sum_{l' != l} x(l'->m))

    run from nu = 1 for at most `iterations` rounds. A round that returns nu
    bit for bit unchanged is a fixed point, which every later round would
    repeat, so the loop stops there with the same result. A
    transfer label's outgoing message is the constant 1 because its claim
    weight equals beta(m). Beliefs: p(l->m) proportional to w(l,m) nu(m->l),
    p(l->0) to beta(l,0); for a transfer label p(1)/p(0) = nu(m->l). Exact
    whenever the cluster's plausibility graph is acyclic.
    """
    L, M = cluster.det_beta.shape
    w = cluster.det_beta / np.maximum(cluster.new_beta, _TINY)[None, :]
    tmask = cluster.transferred.astype(float)

    nu = np.ones((M, L))
    x = np.zeros((L, M))
    for _ in range(iterations):
        weighted = w * nu.T                                   # (L, M)
        denom = cluster.miss_beta[:, None] + weighted.sum(axis=1, keepdims=True) - weighted
        x = w / np.maximum(denom, _TINY)
        sum_x = x.sum(axis=0)
        prev, nu = nu, 1.0 / np.maximum(1.0 + tmask[:, None] + sum_x[:, None] - x.T, _TINY)
        if np.array_equal(nu, prev):
            break

    legacy = np.concatenate([cluster.miss_beta[:, None], w * nu.T], axis=1)
    legacy /= legacy.sum(axis=1, keepdims=True)
    # each column summed as one contiguous row: x.sum(axis=0) rounds differently
    odds = 1.0 / (1.0 + np.ascontiguousarray(x.T).sum(axis=1))
    return MarginalAssociation(legacy, np.where(cluster.transferred, odds / (1.0 + odds), 0.0))
