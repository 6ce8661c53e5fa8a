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

from .models import EXP_FLOOR, ClutterModel, SensorModel
from .rfs import BernoulliTrack, Measurement, ParticleSet, PoissonPhd, TrackBlock

_TINY = 1e-300  # denominator floor; keeps degenerate messages finite
# an intensity cell below this share of its row's clutter intensity is left out
_CLUTTER_SHARE = 2.0 ** -106

# the cells of an (M, N) table that the step reads: (row, col, value) arrays in
# strictly ascending (row, col) order; a cell left out counts as 0.0
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Hypothesis:
    """One association hypothesis: its weight, the existence probability it
    implies, and the spatial pdf given it.

    The same type serves a track's miss and its detection of one
    measurement, as `TrackEvidence.miss` and `.detection` build them for the
    per-track API; the step itself reads their weight rows (`terms`).
    """

    beta: float
    existence: float
    pdf: ParticleSet


# the pdf weights of a hypothesis that builds no pdf
_NO_PDF = np.empty(0)


@dataclass(frozen=True)
class TrackEvidence:
    """Miss and detection evidence of the L predicted tracks of a `TrackBlock`
    against one frame; row i is the block's row i.

    Per track: c = sum_n w_n (1 - pD(x_n)) and miss_beta = 1 - r + r c; per
    measurement m: b = sum_n w_n pD(x_n) f(z_m|x_n) and betas[i, m-1] = r b.
    `states[i]` and `miss_weights[i]` hold row i's particles and w (1 - pD)
    over them, and `rows[(i, m)]` holds (w pD f(z_m|.), b) for every
    evaluated pair; a pair the likelihood gate left out has b = 0. A
    `deferred` pair weighs less than gamma_c, lies in no cluster and was
    never evaluated: betas holds 0 for it. `row_of` and `col_of` label each
    row's and each column's cluster, as `partition` reads them. No pdf is
    built until `miss`, `detection` or `terms` asks for one.
    """

    existence: np.ndarray                          # (L,) r
    states: tuple[np.ndarray, ...]
    miss_beta: np.ndarray                          # (L,)
    betas: np.ndarray                              # (L, M)
    miss_mass: np.ndarray                          # (L,) c
    miss_weights: tuple[np.ndarray, ...]
    rows: dict[tuple[int, int], tuple[np.ndarray, float]]
    deferred: np.ndarray                           # (L, M) bool
    row_of: np.ndarray                             # (L,) cluster name
    col_of: np.ndarray                             # (M,) cluster name, -1 for none

    def _miss(self, i: int) -> tuple[float, float, np.ndarray]:
        """Track i's miss: beta, existence r c / beta and pdf weights
        w (1 - pD) / c. beta can only vanish in the forced-detection corner
        (r = 1, pD = 1), which returns beta = 0 with existence 0."""
        beta, c = float(self.miss_beta[i]), float(self.miss_mass[i])
        if beta <= 0.0:
            return 0.0, 0.0, _NO_PDF
        if c <= 0.0:
            # object, if present, was surely detected; pdf carries no mass
            return beta, 0.0, _NO_PDF
        return beta, float(self.existence[i]) * c / beta, self.miss_weights[i] / c

    def _detection(self, i: int, m: int) -> tuple[float, float, np.ndarray]:
        """Track i's detection of measurement m: beta = r b, existence 1 and
        pdf weights w pD f(z_m|.) / b; b = 0 yields beta = 0 and no pdf. A
        deferred pair raises ValueError."""
        if self.deferred[i, m - 1]:
            raise ValueError(f"detection ({i}, {m}) was deferred and never evaluated")
        row = self.rows.get((i, m))
        if row is None or row[1] <= 0.0:
            return 0.0, 0.0, _NO_PDF
        weights, b = row
        return float(self.betas[i, m - 1]), 1.0, weights / b

    def _hypothesis(self, i: int, beta: float, existence: float,
                    weights: np.ndarray) -> Hypothesis:
        pdf = ParticleSet(self.states[i], weights) if len(weights) else ParticleSet.empty()
        return Hypothesis(beta, existence, pdf)

    def miss(self, i: int) -> Hypothesis:
        """Miss hypothesis of row i, over its own particles."""
        return self._hypothesis(i, *self._miss(i))

    def detection(self, i: int, m: int) -> Hypothesis:
        """Detection hypothesis of row i with measurement m (counted from 1)."""
        return self._hypothesis(i, *self._detection(i, m))

    def terms(self, i: int, pmf: Sequence[float],
              cols: Sequence[int]) -> list[tuple[float, np.ndarray]]:
        """The (p(a) r(i,a), pdf weights) terms of row i's marginalized update,
        for the marginal row `pmf` over the miss and the 0-based measurements
        `cols`: the miss first, then the detections in column order. A
        detection pdf is built only where its marginal is positive."""
        _, existence, weights = self._miss(i)
        terms = [(pmf[0] * existence, weights)]
        for m, p in zip(cols, pmf[1:]):
            if p > 0.0:
                _, existence, weights = self._detection(i, m + 1)
                terms.append((p * existence, weights))
        return terms


def track_evidence(block: TrackBlock, frame: Sequence[Measurement],
                   sensor: SensorModel, gamma_c: float) -> TrackEvidence:
    """Evidence of every predicted track against every measurement, in one pass.

    Each group of the block, the tracks of one particle count, has its
    ranges, bearings and pD computed once. Of the pairs the sensor's row
    gate keeps, one whose weight bound r sum(w pD) norm exp(bound) lies
    below gamma_c / 2 has a weight below gamma_c, so it is deferred and
    joins no cluster it would not join evaluated. The rest are evaluated at
    once, the plausible pairs are labelled into clusters, and then the
    deferred pairs inside a cluster are evaluated, with the same bits.
    gamma_c = 0 defers nothing.
    """
    count = len(block.labels)
    r = block.existence
    miss_mass = np.zeros(count)
    betas = np.zeros((count, len(frame)))
    deferred = np.zeros((count, len(frame)), dtype=bool)
    miss_weights: list = [None] * count
    rows: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
    groups = []

    def evaluate(idx, rho, theta, detect, at, meas):
        """Pairs (idx[at], meas) of one group as one (K, N) block, scaled by w pD, summed by row."""
        if not len(at):
            return
        owners = idx[at]
        lik = sensor.likelihood_rows(frame, meas, rho[at], theta[at])
        lik *= detect[at]
        b = lik.sum(axis=1)
        betas[owners, meas] = r[owners] * b
        for i, m, row, row_b in zip(owners.tolist(), (meas + 1).tolist(), lik, b):
            rows[(i, m)] = (row, row_b)

    for idx, group_states, weights in block.groups:
        rho, theta = sensor.range_bearing(group_states)
        pd = sensor.detection_prob_at(rho)
        miss = weights * (1.0 - pd)
        detect = weights * pd
        miss_mass[idx] = miss.sum(axis=1)
        for k, i in enumerate(idx.tolist()):
            miss_weights[i] = miss[k]
        bound, norm = sensor.row_bounds(frame, rho, theta)
        # exp, the products and the N-term sum can exceed this weight bound
        # by a few ulps only; halving gamma_c is the fixed margin for that.
        # A non-finite bound compares False and is evaluated now.
        ceiling = (r[idx] * detect.sum(axis=1))[:, None] * norm * np.exp(bound)
        kept = bound >= EXP_FLOOR
        deferred[idx] = kept & (ceiling < 0.5 * gamma_c)
        evaluate(idx, rho, theta, detect, *np.nonzero(kept & ~deferred[idx]))
        groups.append((idx, rho, theta, detect))
    row_of, col_of = _components(betas, gamma_c)
    for idx, rho, theta, detect in groups:
        joined = deferred[idx] & (row_of[idx, None] == col_of)
        evaluate(idx, rho, theta, detect, *np.nonzero(joined))
        deferred[idx] &= ~joined
    return TrackEvidence(r, tuple(states for states, _ in block.rows()), 1.0 - r + r * miss_mass,
                         betas, miss_mass, tuple(miss_weights), rows, deferred, row_of, col_of)


def detection_hypotheses(track: BernoulliTrack, frame: Sequence[Measurement],
                         sensor: SensorModel) -> list[Hypothesis]:
    """Detection hypotheses of one predicted track against every measurement:
    `track_evidence` over [track] with gamma_c = 0, so every pdf is built."""
    evidence = track_evidence(TrackBlock.of([track]), frame, sensor, 0.0)
    return [evidence.detection(0, m) for m in range(1, len(frame) + 1)]


def miss_hypothesis(track: BernoulliTrack, sensor: SensorModel) -> Hypothesis:
    """Miss hypothesis of one predicted track: `track_evidence` over [track]."""
    return track_evidence(TrackBlock.of([track]), (), sensor, 0.0).miss(0)


def new_components(phd: PoissonPhd, pd: np.ndarray, frame: Sequence[Measurement],
                   sensor: SensorModel, clutter: ClutterModel,
                   polar: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, Cells]:
    """Unlabeled-or-clutter evidence of every measurement, as weights over the
    intensity particles.

    `pd` is the detection probability of each intensity particle. Returns
    `beta` (M,), `mass` (M,) and `cells`, the sensor's likelihood cells
    scaled to w_i pD(x_i) f(z_m|x_i): row m-1, column i. Measurement m's
    component has intensity mass d = mass[m-1], the sum of its row's cells
    added in column order, beta = clutter
    intensity + d, existence d / beta, and pdf row / d over the intensity
    particles; no particle set is built here. beta is 0 for a measurement
    that neither clutter nor the intensity can explain, such as one beyond
    the sensor disk.
    `polar` is `sensor.range_bearing` of the intensity particles.

    A cell is left out when f(z_m|x_i) lies below 2^-106 c_m, with c_m the
    clutter intensity. The cells left out of a row add under 2^-106 c_m
    sum(w pD) to beta = c_m + d, and a cell adds under 2^-106 pD / (1 - pD)
    of its particle's undetected weight (1 - pD) w in `update_phd`: tens of
    binades below the 2^-53 that can move a bit. Only a d that is tiny next
    to c_m can lose low bits, and such a d lies far below any transfer
    threshold, the one place the step reads its value. Where c_m = 0 the
    floor is `EXP_FLOOR`, which leaves out exact zeros only.
    """
    clutter_c = clutter.intensity_at(np.array([z.range for z in frame], dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = np.fmax(EXP_FLOOR, np.log(_CLUTTER_SHARE * clutter_c / sensor.normalizer))
    row, col, value = sensor.likelihood_cells(frame, *polar, floor)
    value *= (phd.particles.weights * pd)[col]
    mass = np.bincount(row, value, minlength=len(frame))
    beta = clutter_c + mass
    return beta, mass, (row, col, value)


# ---------------------------------------------------------------------------
# Partitioning of labels and measurements
# ---------------------------------------------------------------------------


def _components(betas: np.ndarray, gamma_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's and each column's connected component of the plausible pairs
    of `betas` (L, M), named by its smallest row; -1 for a column in no pair.

    A pair is plausible when its weight is >= gamma_c and > 0, so a zero
    weight never is. Rounds pass the smallest name from rows to columns and
    back until none changes."""
    count, cols = betas.shape
    edge_row, edge_col = np.nonzero((betas >= gamma_c) & (betas > 0.0))
    row_of, named = None, np.arange(count)
    while not np.array_equal(named, row_of):
        row_of, col_of = named, np.full(cols, count)
        np.minimum.at(col_of, edge_col, row_of[edge_row])
        named = row_of.copy()
        np.minimum.at(named, edge_row, col_of[edge_col])
    col_of[col_of == count] = -1
    return row_of, col_of


def partition(row_of: np.ndarray,
              col_of: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The clusters of a labelling of labels (rows) and measurements (columns),
    such as `TrackEvidence.row_of` and `.col_of`.

    Returns `(clusters, residual)`: each cluster is a `(rows, cols)` pair of
    ascending index arrays, clusters are ordered by their smallest row, and
    `residual` holds the columns in no cluster.
    """
    roots = np.flatnonzero(row_of == np.arange(len(row_of)))
    # a stable sort lists each name's indices in ascending order; the columns
    # in no cluster (-1) sort first
    rows, cols = np.argsort(row_of, kind="stable"), np.argsort(col_of, kind="stable")
    row_cuts = np.append(np.searchsorted(row_of[rows], roots), len(rows)).tolist()
    col_cuts = np.append(np.searchsorted(col_of[cols], roots), len(cols)).tolist()
    clusters = [(rows[a:b], cols[c:d]) for a, b, c, d in
                zip(row_cuts, row_cuts[1:], col_cuts, col_cuts[1:])]
    return clusters, cols[:col_cuts[0]]


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
    """Loopy BP marginals of one cluster: a one-cluster call of `batch_bp_marginals`."""
    L, M = cluster.det_beta.shape
    legacy, claim = batch_bp_marginals(cluster.miss_beta, cluster.det_beta, cluster.new_beta,
                                       cluster.transferred, np.zeros(L, dtype=np.intp),
                                       np.zeros(M, dtype=np.intp), iterations)
    return MarginalAssociation(legacy, claim)


# numpy adds fewer than this many terms left to right and regroups more
# pairwise, so zeros padded onto a shorter axis leave its sums bit for bit
_PAIRWISE = 8


def batch_bp_marginals(miss_beta: np.ndarray, betas: np.ndarray, new_beta: np.ndarray,
                       transferred: np.ndarray, row_of: np.ndarray, col_of: np.ndarray,
                       iterations: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Loopy belief propagation on the bipartite label-measurement graph of
    every cluster of a labelling at once.

    Row i of `miss_beta` (L,) and `betas` (L, M) lies in cluster `row_of[i]`,
    and column j of `betas`, `new_beta` (M,) and `transferred` (M,) in
    `col_of[j]`; names are nonnegative ints, -1 for none, and a cluster
    may have no rows or no columns. A cluster takes its rows and
    columns in ascending order, as `partition` lists them, and reads no
    entry of `betas` outside itself.

    Detection weights are normalized per measurement (w = beta(l,m)/beta(m)),
    which makes the scheme invariant to measurement-unit scaling. Messages

        x(l->m) = w(l,m) / (beta(l,0) + sum_{m' != m} w(l,m') nu(m'->l))
        nu(m->l) = 1 / (1 + [transfer on m] + sum_{l' != l} x(l'->m))

    run from nu = 1 for at most `iterations` rounds. A round that returns nu
    bit for bit unchanged is a fixed point, which every later round would
    repeat, so the loop stops when the whole batch repeats, with the result
    each cluster alone would give. A transfer label's outgoing message is the
    constant 1 because its claim weight equals beta(m). Beliefs: p(l->m)
    proportional to w(l,m) nu(m->l), p(l->0) to beta(l,0); for a transfer
    label p(1)/p(0) = nu(m->l). Exact whenever the cluster's plausibility
    graph is acyclic.

    The clusters run as one batch of (C, L_max, M_max) arrays, padded with
    miss weight 1, detection weight 0 and no transfer; a padded row or column
    adds exact zeros to every sum. A cluster with `_PAIRWISE` or more rows,
    or measurements plus miss, would change its sums' grouping if padded,
    so it runs as a batch of its own.

    Returns `(legacy, claim)`: `legacy` (L, 1 + W), W the widest cluster's
    measurement count, holds row i's marginal over its miss and its
    cluster's measurements in order, then padding (0, or NaN in a row that
    is 0 / 0); `claim` (M,) holds column j's transfer claim, 0 where it has
    no transfer. A row or column in no cluster gets zeros. The marginals are
    checked as `MarginalAssociation` checks them.
    """
    L, M = betas.shape
    # each cluster's rows and columns in ascending order; a row's or column's
    # place in its list is its slot in the padded arrays
    members: dict[int, tuple[list[int], list[int]]] = {}
    for side, names in enumerate((row_of.tolist(), col_of.tolist())):
        for index, name in enumerate(names):
            if name >= 0:
                members.setdefault(name, ([], []))[side].append(index)
    batches: list[list[tuple[list[int], list[int]]]] = [[]]
    for rows, cols in members.values():
        if len(rows) >= _PAIRWISE or 1 + len(cols) >= _PAIRWISE:
            batches.append([(rows, cols)])
        else:
            batches[0].append((rows, cols))

    # the tables with a zero row and column to pad with
    w_all = np.zeros((L + 1, M + 1))
    np.divide(betas, np.maximum(new_beta, _TINY), out=w_all[:L, :M])
    miss_all = np.append(miss_beta, 1.0)
    transferred_all = np.append(transferred, False)
    legacy = np.zeros((L, 1 + max((len(cols) for _, cols in members.values()), default=0)))
    claim = np.zeros(M)
    for batch in filter(None, batches):
        labels = max(len(rows) for rows, _ in batch)
        meas = max(len(cols) for _, cols in batch)
        row_at = np.array([rows + [L] * (labels - len(rows)) for rows, _ in batch],
                          dtype=np.intp).reshape(len(batch), labels)
        col_at = np.array([cols + [M] * (meas - len(cols)) for _, cols in batch],
                          dtype=np.intp).reshape(len(batch), meas)
        pmf, odds = _bp_rounds(miss_all[row_at], w_all[row_at[:, :, None], col_at[:, None, :]],
                               transferred_all[col_at], iterations)
        real_rows, real_cols = row_at < L, col_at < M
        legacy[row_at[real_rows], :1 + meas] = pmf[real_rows]
        claim[col_at[real_cols]] = odds[real_cols]

    # NaN passes, as in `MarginalAssociation`: a forced-detection row (miss
    # weight 0) with no weight on any measurement is 0 / 0
    if (np.abs(legacy[row_of >= 0].sum(axis=1) - 1.0) > 1e-9).any() or (legacy < 0).any():
        raise ValueError("marginal pmf is not normalized")
    if ((claim < 0) | (claim > 1)).any():
        raise ValueError("transfer claim is not a probability")
    return legacy, claim


def _bp_rounds(miss: np.ndarray, w: np.ndarray, transferred: np.ndarray,
               iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """The rounds and beliefs of `batch_bp_marginals` over C padded clusters:
    miss (C, L), w (C, L, M) and transferred (C, M); returns the marginals
    (C, L, 1 + M) and the claims (C, M). nu is kept (C, M, L), as one
    cluster's (M, L), so a batch of one sums in the same order."""
    count, labels, meas = w.shape
    miss = miss[:, :, None]
    base = 1.0 + transferred                                 # 1 + [transfer on m]
    nu = np.ones((count, meas, labels))
    sum_x = np.zeros((count, meas))
    for _ in range(iterations):
        weighted = w * nu.swapaxes(1, 2)                     # (C, L, M)
        denom = miss + weighted.sum(axis=2, keepdims=True) - weighted
        x = w / np.maximum(denom, _TINY)
        sum_x = x.sum(axis=1)
        prev = nu
        nu = 1.0 / np.maximum((base + sum_x)[:, :, None] - x.swapaxes(1, 2), _TINY)
        if (nu == prev).all():
            break

    legacy = np.concatenate([miss, w * nu.swapaxes(1, 2)], axis=2)
    legacy /= legacy.sum(axis=2, keepdims=True)
    odds = 1.0 / (1.0 + sum_x)
    return legacy, np.where(transferred, odds / (1.0 + odds), 0.0)
