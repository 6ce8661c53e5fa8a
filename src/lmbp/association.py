"""Data association: hypothesis weights, plausibility partitioning, and
marginal association probabilities (exact enumeration and loopy BP).

A step's tables are arrays indexed from 0: row i is the i-th predicted track
and column j is `frame[j]`. Labels, hypothesis keys and marginal rows count
measurements from 1, with 0 reserved for the miss: a track transferred from
`frame[j]` at step k gets label (k, j + 1), `TrackEvidence.detection(i, j + 1)`
pairs row i with `frame[j]`, and row i of `Marginals.legacy` holds its miss at
entry 0 and its detection of `frame[j]` at entry 1 + j, on every path.

`partition` groups the plausible pairs into clusters once, as `(rows, cols)`
index arrays into the step's tables, and both marginal paths take those
tables and that list and return one `Marginals` in one layout:
`batch_bp_marginals` runs BP on every cluster at once, and `exact_marginals`
enumerates the clusters within its limits and hands the rest to one batch.
Each path runs `_check_marginals` once on what it computed.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .models import EXP_FLOOR, SensorModel
from .rfs import BernoulliTrack, Measurement, PoissonPhd, TrackBlock

_TINY = 1e-300  # denominator floor; keeps degenerate messages finite
# an intensity cell below this share of its row's clutter intensity is left out
_CLUTTER_SHARE = 2.0 ** -106

# the cells of an (M, N) table that the step reads: (row, col, value) arrays in
# strictly ascending (row, col) order; a cell left out counts as 0.0
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]


class Hypothesis(NamedTuple):
    """A track's miss or its detection of one measurement, as the one-row
    readers `TrackEvidence.miss` and `.detection` return it: weight, implied
    existence, and pdf weights over the track's particles (empty for no pdf)."""

    beta: float
    existence: float
    weights: np.ndarray


class TrackGroup(NamedTuple):
    """The evidence of one `TrackBlock` group's L_g rows of N particles, row k
    being the block's rows[k]: each row's miss weights w (1 - pD), their mass
    c, and existence r c / beta, or 0 where beta <= 0 or c <= 0; and the
    evaluated pairs as cells in strictly ascending (row, col) order, pair k
    being row pair_row[k] with `frame[pair_col[k]]`, of w pD f(z|.) summing to b."""

    rows: np.ndarray                               # (L_g,) ascending
    miss: np.ndarray                               # (L_g, N)
    miss_mass: np.ndarray                          # (L_g,) c
    miss_existence: np.ndarray                     # (L_g,)
    pair_row: np.ndarray                           # (K,)
    pair_col: np.ndarray                           # (K,)
    lik: np.ndarray                                # (K, N)
    b: np.ndarray                                  # (K,)


class TrackEvidence(NamedTuple):
    """Miss and detection evidence of the L predicted tracks of a `TrackBlock`
    against one frame; row i is the block's row i.

    Per track: c = sum_n w_n (1 - pD(x_n)) and miss_beta = 1 - r + r c; per
    measurement m: b = sum_n w_n pD(x_n) f(z_m|x_n) and betas[i, m-1] = r b.
    `groups` holds the unnormalized weight rows, a `TrackGroup` per block
    group in the block's order; a pair the likelihood gate left out has no
    cell and b = 0. A `deferred` pair weighs less than gamma_c, lies in no
    cluster and was never evaluated: betas holds 0 for it. `row_of` and
    `col_of` label each row's and each column's cluster, as `partition` reads
    them."""

    miss_beta: np.ndarray                          # (L,)
    betas: np.ndarray                              # (L, M)
    groups: tuple[TrackGroup, ...]
    deferred: np.ndarray                           # (L, M) bool
    row_of: np.ndarray                             # (L,) cluster name
    col_of: np.ndarray                             # (M,) cluster name, -1 for none

    def slot(self, i: int) -> tuple[TrackGroup, int]:
        """The group that holds row i, and row i's place in it."""
        return next((g, int(k)) for g in self.groups for k in np.flatnonzero(g.rows == i))

    def miss(self, i: int) -> Hypothesis:
        """Row i's miss: beta, existence r c / beta and pdf weights
        w (1 - pD) / c; existence 0 and no pdf where c = 0, the object surely
        detected if present, or beta = 0 (only when r = 1 and pD = 1)."""
        group, k = self.slot(i)
        beta, c = float(self.miss_beta[i]), float(group.miss_mass[k])
        if beta <= 0.0 or c <= 0.0:
            return Hypothesis(max(beta, 0.0), 0.0, np.empty(0))
        return Hypothesis(beta, float(group.miss_existence[k]), group.miss[k] / c)

    def detection(self, i: int, m: int) -> Hypothesis:
        """Row i's detection of measurement m (counted from 1): beta = r b,
        existence 1 and pdf weights w pD f(z_m|.) / b; b = 0 yields beta = 0
        and no pdf. A deferred pair raises ValueError."""
        if self.deferred[i, m - 1]:
            raise ValueError(f"detection ({i}, {m}) was deferred and never evaluated")
        group, k = self.slot(i)
        pair = np.flatnonzero((group.pair_row == k) & (group.pair_col == m - 1))
        if not pair.size or group.b[pair[0]] <= 0.0:
            return Hypothesis(0.0, 0.0, np.empty(0))
        return Hypothesis(float(self.betas[i, m - 1]), 1.0, group.lik[pair[0]] / group.b[pair[0]])


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
    r = block.existence
    miss_beta = np.zeros(len(r))
    betas = np.zeros((len(r), len(frame)))
    deferred = np.zeros((len(r), len(frame)), dtype=bool)
    groups, polar = [], []

    def evaluate(idx, rho, theta, detect, at, meas):
        """Pairs (idx[at], meas) of one group as cells: at, meas, lik and b."""
        lik = sensor.likelihood_rows(frame, meas, rho[at], theta[at])
        lik *= detect[at]
        b = lik.sum(axis=1)
        betas[idx[at], meas] = r[idx[at]] * b
        return at, meas, lik, b

    for idx, group_states, weights in block.groups:
        rho, theta = sensor.range_bearing(group_states)
        pd = sensor.detection_prob_at(rho)
        miss = weights * (1.0 - pd)
        detect = weights * pd
        c = miss.sum(axis=1)
        miss_beta[idx] = beta = 1.0 - r[idx] + r[idx] * c
        # r c / beta where the miss has a pdf; nan stays nan, as `miss` gives it
        existence = np.divide(r[idx] * c, beta, out=np.zeros(len(idx)),
                              where=~((beta <= 0.0) | (c <= 0.0)))
        bound, norm = sensor.row_bounds(frame, rho, theta)
        # exp, the products and the N-term sum can exceed this weight bound
        # by a few ulps only; halving gamma_c is the fixed margin for that.
        # A non-finite bound compares False and is evaluated now.
        ceiling = (r[idx] * detect.sum(axis=1))[:, None] * norm * np.exp(bound)
        kept = bound >= EXP_FLOOR
        deferred[idx] = kept & (ceiling < 0.5 * gamma_c)
        cells = evaluate(idx, rho, theta, detect, *np.nonzero(kept & ~deferred[idx]))
        groups.append(TrackGroup(idx, miss, c, existence, *cells))
        polar.append((rho, theta, detect))
    row_of, col_of = _components(betas, gamma_c)
    for g, (group, (rho, theta, detect)) in enumerate(zip(groups, polar)):
        joined = deferred[group.rows] & (row_of[group.rows, None] == col_of)
        if joined.any():
            more = evaluate(group.rows, rho, theta, detect, *np.nonzero(joined))
            deferred[group.rows] &= ~joined
            at, meas, lik, b = (np.concatenate(parts) for parts in zip(group[4:], more))
            order = np.lexsort((meas, at))
            groups[g] = group._replace(pair_row=at[order], pair_col=meas[order],
                                       lik=lik[order], b=b[order])
    return TrackEvidence(miss_beta, betas, tuple(groups), deferred, row_of, col_of)


def detection_hypotheses(track: BernoulliTrack, frame: Sequence[Measurement],
                         sensor: SensorModel) -> list[Hypothesis]:
    """Detection hypotheses of one predicted track against every measurement:
    `track_evidence` over [track] with gamma_c = 0, so every pair is evaluated."""
    evidence = track_evidence(TrackBlock.of([track]), frame, sensor, 0.0)
    return [evidence.detection(0, m) for m in range(1, len(frame) + 1)]


def miss_hypothesis(track: BernoulliTrack, sensor: SensorModel) -> Hypothesis:
    """Miss hypothesis of one predicted track: `track_evidence` over [track]."""
    return track_evidence(TrackBlock.of([track]), (), sensor, 0.0).miss(0)


def new_components(phd: PoissonPhd, pd: np.ndarray, frame: Sequence[Measurement],
                   sensor: SensorModel, polar: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, Cells]:
    """Unlabeled-or-clutter evidence of every measurement, as weights over the
    intensity particles.

    `pd` is the detection probability of each intensity particle. Returns
    `beta` (M,), `mass` (M,) and `cells`, the sensor's likelihood cells
    scaled to w_i pD(x_i) f(z_m|x_i): row m-1, column i. Measurement m's
    component has intensity mass d = mass[m-1], the sum of its row's cells
    added in column order, beta = c_m + d with c_m the sensor's clutter
    intensity, existence d / beta, and pdf row / d over the intensity
    particles; no particle set is built here. c_m is 0 beyond the sensor
    disk, where the intensity's tail can still give d > 0; `lmbp_step`
    screens such a measurement out (`SensorModel.screen`) before this call.
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
    clutter_c = sensor.clutter_intensity_at(np.array([z.range for z in frame], dtype=float))
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


class Marginals(NamedTuple):
    """Marginal association probabilities, indexed like the step's tables.

    `legacy[i, 0]` is row i's miss and `legacy[i, 1 + j]` its detection of
    `frame[j]`, the association value a of the paper's p(a); `claim[j]` is
    the probability that the transfer on column j claims it, 0 where there is
    no transfer. An entry outside a row's cluster, and a row or column in no
    cluster, holds 0. Nothing is checked here: each marginal path runs
    `_check_marginals` on what it computed.
    """

    legacy: np.ndarray                 # (L, 1 + M)
    claim: np.ndarray                  # (M,)


def _check_marginals(legacy: np.ndarray, claim: np.ndarray) -> None:
    """Raise ValueError unless every row of `legacy` is a pmf, to 1e-9, and
    every entry of `claim` a probability. Each bound is written so that NaN
    fails it."""
    if not ((np.abs(legacy.sum(axis=1) - 1.0) <= 1e-9).all() and (legacy >= 0.0).all()):
        raise ValueError("marginal pmf is not normalized")
    if not ((claim >= 0.0) & (claim <= 1.0)).all():
        raise ValueError("transfer claim is not a probability")


def _check_cluster(miss_beta, det_beta, new_beta, transferred) -> tuple[int, int]:
    """One cluster's (L, M); ValueError unless its tables agree in shape and every
    weight is finite and nonnegative. The step's batch path skips this check."""
    L, M = det_beta.shape
    if (miss_beta.shape, new_beta.shape, transferred.shape) != ((L,), (M,), (M,)):
        raise ValueError("cluster tables disagree in shape")
    if not all((np.isfinite(t) & (t >= 0.0)).all() for t in (miss_beta, det_beta, new_beta)):
        raise ValueError("an association weight is negative or non-finite")
    return L, M


def enumerate_admissible(miss_beta: np.ndarray, det_beta: np.ndarray, new_beta: np.ndarray,
                         transferred: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All admissible association vectors of one cluster with normalized weights.

    The cluster's tables are `miss_beta` (L,), `det_beta` (L, M), where
    entry (i, j) pairs legacy label i with measurement j, `new_beta` (M,) and
    `transferred` (M,): a measurement with a transfer label, which carries
    the implicit weights new_beta[j] for claim and 1 for no-claim.

    Returns `(legacy, claims, weights)` over the H vectors: `legacy` (H, L)
    holds each legacy label's entry, 0 for a miss and 1 + j for measurement
    j; `claims` (H, M) marks the measurements a transfer claims. No
    measurement is claimed twice, and every unclaimed measurement contributes
    its beta(m) factor. Weights are products of beta factors, computed in log
    domain and normalized to sum to one. `_check_cluster` vets the tables first.

    One search runs over every label's options, the legacy labels first and
    then the transfers in column order: a legacy label's are its miss and
    then each measurement j, a transfer's are nothing (weight 1) and then its
    own measurement (weight new_beta[j]). An option is a measurement, or -1
    for none, with its log weight.
    """
    L, M = _check_cluster(miss_beta, det_beta, new_beta, transferred)
    # Python floats add with the same bits as numpy's, and faster
    with np.errstate(divide="ignore"):
        log_miss = np.log(miss_beta).tolist()
        log_det = np.log(det_beta).tolist()
        log_new = np.log(new_beta).tolist()
    options = [[(-1, log_miss[i])] + list(enumerate(log_det[i])) for i in range(L)]
    options += [[(-1, 0.0), (j, log_new[j])] for j in np.flatnonzero(transferred).tolist()]

    # (each label's measurement or -1, log weight)
    vectors: list[tuple[tuple[int, ...], float]] = []

    def search(picks: tuple[int, ...], acc: float):
        if len(picks) == len(options):
            for j in range(M):
                if j not in picks:
                    acc += log_new[j]
            vectors.append((picks, acc))
            return
        for j, log_weight in options[len(picks)]:
            if j < 0 or j not in picks:
                search(picks + (j,), acc + log_weight)

    search((), 0.0)

    log_w = np.array([v[1] for v in vectors])
    peak = log_w.max()
    if not np.isfinite(peak):
        raise ValueError("all association hypotheses have zero weight")
    w = np.exp(log_w - peak)
    w /= w.sum()
    picks = np.array([v[0] for v in vectors], dtype=np.intp).reshape(len(vectors), len(options))
    claims = (picks[:, L:, None] == np.arange(M)).any(axis=1)
    return picks[:, :L] + 1, claims, w


# exact enumeration is honored only within these bounds; bigger clusters use BP
EXACT_DEGREE_LIMIT = 20
EXACT_SIZE_LIMIT = 1e5


def exact_marginals(miss_beta: np.ndarray, betas: np.ndarray, new_beta: np.ndarray,
                    transferred: np.ndarray, clusters: Sequence[tuple[np.ndarray, np.ndarray]],
                    iterations: int = 20) -> Marginals:
    """Marginal association probabilities of every cluster of a list, from the
    same tables and `(rows, cols)` list as `batch_bp_marginals` and in the
    same (L, 1 + M) layout: an enumerated entry 1 + k lands in column
    1 + cols[k].

    A cluster of at most `EXACT_DEGREE_LIMIT` label-measurement pairs, at
    most `EXACT_SIZE_LIMIT` vectors by the bound (M + 1)^L 2^T with T its
    transfers, and finite weights is enumerated, each marginal accumulated
    in enumeration order. Every other cluster goes through one
    `batch_bp_marginals` call, so a cluster with a non-finite weight gets
    the marginals BP mode gives it.
    """
    enumerated, batched = [], []
    for rows, cols in clusters:
        tables = (miss_beta[rows], betas[np.ix_(rows, cols)], new_beta[cols], transferred[cols])
        if (len(rows) * len(cols) <= EXACT_DEGREE_LIMIT
                and (len(cols) + 1) ** len(rows) * 2 ** int(tables[3].sum()) <= EXACT_SIZE_LIMIT
                and all(np.isfinite(table).all() for table in tables[:3])):
            enumerated.append((rows, cols, tables))
        else:
            batched.append((rows, cols))
    legacy, claim = batch_bp_marginals(miss_beta, betas, new_beta, transferred, batched,
                                       iterations)
    done_rows, done_cols = np.zeros(len(legacy), dtype=bool), np.zeros(len(claim), dtype=bool)
    for rows, cols, tables in enumerated:
        entries, claims, weights = enumerate_admissible(*tables)
        np.add.at(legacy, (rows, np.append(0, 1 + cols)[entries]), weights[:, None])
        vector, meas = np.nonzero(claims)
        np.add.at(claim, cols[meas], weights[vector])
        done_rows[rows], done_cols[cols] = True, True
    _check_marginals(legacy[done_rows], claim[done_cols])
    return Marginals(legacy, claim)


def bp_marginals(miss_beta: np.ndarray, det_beta: np.ndarray, new_beta: np.ndarray,
                 transferred: np.ndarray, iterations: int = 20) -> Marginals:
    """Loopy BP marginals of one cluster's tables, as `enumerate_admissible`
    takes and checks them: a one-cluster call of `batch_bp_marginals`."""
    L, M = _check_cluster(miss_beta, det_beta, new_beta, transferred)
    return batch_bp_marginals(miss_beta, det_beta, new_beta, transferred,
                              [(np.arange(L), np.arange(M))], iterations)


# numpy adds fewer than this many terms left to right and regroups more
# pairwise, so zeros padded onto a shorter axis leave its sums bit for bit
_PAIRWISE = 8


def batch_bp_marginals(miss_beta: np.ndarray, betas: np.ndarray, new_beta: np.ndarray,
                       transferred: np.ndarray, clusters: Sequence[tuple[np.ndarray, np.ndarray]],
                       iterations: int = 20) -> Marginals:
    """Loopy belief propagation on the bipartite label-measurement graph of
    every cluster of a list at once.

    The tables are `miss_beta` (L,), `betas` (L, M), `new_beta` (M,) and
    `transferred` (M,). Each cluster is a `(rows, cols)` pair of ascending
    index arrays into them, as `partition` lists them; clusters share no row
    or column, a cluster may have no rows or no columns, and it reads no
    entry of `betas` outside itself.

    Detection weights are normalized per measurement (w = beta(l,m)/beta(m)),
    which makes the scheme invariant to measurement-unit scaling. Messages

        x(l->m) = w(l,m) / (beta(l,0) + sum_{m' != m} w(l,m') nu(m'->l))
        nu(m->l) = 1 / (1 + [transfer on m] + sum_{l' != l} x(l'->m))

    run from nu = 1 for at most `iterations` rounds. A round that returns nu
    bit for bit unchanged is a fixed point, which every later round would
    repeat, so the loop stops when the whole batch repeats. Each cluster's
    arithmetic runs in its own slot of the batch, so every order or subset
    of the list gives a cluster the bits it alone would get. A transfer
    label's outgoing message is the constant 1 because its claim weight
    equals beta(m). Beliefs: p(l->m) proportional to w(l,m) nu(m->l), p(l->0)
    to beta(l,0); for a transfer label p(1)/p(0) = nu(m->l). Exact whenever
    the cluster's plausibility graph is acyclic.

    The clusters run as one batch of (C, L_max, M_max) arrays, padded with
    miss weight 1, detection weight 0 and no transfer; a padded row or column
    adds exact zeros to every sum. A cluster with `_PAIRWISE` or more rows,
    or measurements plus miss, would change its sums' grouping if padded,
    so it runs as a batch of its own.

    Returns the `Marginals` of the list: each slot's beliefs are scattered
    straight into the step's (L, 1 + M) columns, and its padding into a
    spare row and column that are cut off.

    Each batch's marginals pass `_check_marginals`, or ValueError is raised,
    so a NaN that BP makes from numbers raises: the 0 / 0 of a row with no
    weight at all, a track with r = 1 and pD = 1 and nothing to detect. A
    cluster with a NaN weight (beta(l,m) = beta(m) = inf gives w = NaN) has
    NaN marginals, which are returned unchecked; `lmbp_step` gives its
    tracks r = 0.
    """
    L, M = betas.shape
    batches: list[list[tuple[np.ndarray, np.ndarray]]] = [[]]
    for rows, cols in clusters:
        if len(rows) >= _PAIRWISE or 1 + len(cols) >= _PAIRWISE:
            batches.append([(rows, cols)])
        else:
            batches[0].append((rows, cols))

    # the tables and the marginals with a spare row and column, for the padding
    w_all = np.zeros((L + 1, M + 1))
    np.divide(betas, np.maximum(new_beta, _TINY), out=w_all[:L, :M])
    miss_all = np.append(miss_beta, 1.0)
    transferred_all = np.append(transferred, False)
    legacy, claim = np.zeros((L + 1, 1 + M + 1)), np.zeros(M + 1)
    for batch in filter(None, batches):
        # a row's or column's place in its cluster is its slot in the padded arrays
        row_at = np.full((len(batch), max(len(rows) for rows, _ in batch)), L, dtype=np.intp)
        col_at = np.full((len(batch), max(len(cols) for _, cols in batch)), M, dtype=np.intp)
        for slot, (rows, cols) in enumerate(batch):
            row_at[slot, :len(rows)], col_at[slot, :len(cols)] = rows, cols
        miss, w = miss_all[row_at], w_all[row_at[:, :, None], col_at[:, None, :]]
        pmf, odds = _bp_rounds(miss, w, transferred_all[col_at], iterations)
        # the clusters whose weights are all numbers; the rest pass NaN on unchecked
        numbers = ~(np.isnan(miss).any(axis=1) | np.isnan(w).any(axis=(1, 2)))[:, None]
        real_rows, real_cols = row_at < L, col_at < M
        _check_marginals(pmf[real_rows & numbers], odds[real_cols & numbers])
        entry_at = np.concatenate([np.zeros((len(batch), 1), np.intp), 1 + col_at], axis=1)
        legacy[row_at[:, :, None], entry_at[:, None, :]] = pmf
        claim[col_at] = odds
    return Marginals(legacy[:L, :1 + M], claim[:M])


# a row with no weight at all gives 0 / 0 and a huge ratio overflows; the
# caller's `_check_marginals` reports the NaN of a cluster of numbers
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
