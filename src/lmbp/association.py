"""Data association: hypothesis weights, plausibility partitioning, and
marginal association probabilities (an exact subset pass and loopy BP).

A step's tables are arrays indexed from 0: row i is the i-th predicted track
and column j is `frame[j]`. Labels, hypothesis keys and marginal rows count
measurements from 1, with 0 reserved for the miss: a track transferred from
`frame[j]` at step k gets label (k, j + 1), `TrackEvidence.detection(i, j + 1)`
pairs row i with `frame[j]`, and row i of `Marginals.legacy` holds its miss at
entry 0 and its detection of `frame[j]` at entry 1 + j, on every path.

`partition` groups the plausible pairs into clusters once, as `(rows, cols)`
index arrays into the step's tables. `exact_marginals` takes those tables
and that list and returns one `Marginals`: it solves the cyclic clusters
within its cost limit exactly and hands the rest to `batch_bp_marginals`,
which runs BP on them at once. Each checks what it computed with `_check_marginals`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .models import EXP_FLOOR, SensorModel
from .rfs import BernoulliTrack, Measurement, PoissonPhd, TrackBlock, row_reduce, take_rows

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
    """The evidence of a `TrackBlock`'s rows, cut by its `offsets`: each row's
    miss weights w (1 - pD), their mass c, and existence r c / beta, or 0
    where beta <= 0 or c <= 0; and the evaluated pairs in strictly ascending
    (row, col) order, pair k being row pair_row[k] with `frame[pair_col[k]]`,
    whose w pD f(z|.) over the row's particles is `lik[cuts[k]:cuts[k + 1]]`,
    summing to b[k], or b[k] = 0 where r b < gamma_c: such a pair weighs
    nothing."""

    offsets: np.ndarray                            # (L + 1,)
    miss: np.ndarray                               # (P,)
    miss_mass: np.ndarray                          # (L,) c
    miss_existence: np.ndarray                     # (L,)
    pair_row: np.ndarray                           # (K,)
    pair_col: np.ndarray                           # (K,)
    cuts: np.ndarray                               # (K + 1,)
    lik: np.ndarray                                # (cuts[-1],)
    b: np.ndarray                                  # (K,)


class TrackEvidence(NamedTuple):
    """Miss and detection evidence of the L predicted tracks of a `TrackBlock`
    against one frame; row i is the block's row i.

    Per track: c = sum_n w_n (1 - pD(x_n)) and miss_beta = 1 - r + r c; per
    measurement m: b = sum_n w_n pD(x_n) f(z_m|x_n) and betas[i, m-1] = r b
    where the pair is plausible, r b >= gamma_c and r b > 0, or NaN; every
    other pair weighs nothing and betas holds 0. So the nonzero entries are
    the association's edges. `group` holds the unnormalized weight runs; a
    pair the likelihood gate or the weight bound left out has no run.
    `row_of` and `col_of` label each row's and each column's cluster, as
    `partition` reads them."""

    miss_beta: np.ndarray                          # (L,)
    betas: np.ndarray                              # (L, M)
    group: TrackGroup
    row_of: np.ndarray                             # (L,) cluster name
    col_of: np.ndarray                             # (M,) cluster name, -1 for none

    def miss(self, i: int) -> Hypothesis:
        """Row i's miss: beta, existence r c / beta and pdf weights
        w (1 - pD) / c; existence 0 and no pdf where c = 0, the object surely
        detected if present, or beta = 0 (only when r = 1 and pD = 1)."""
        group = self.group
        beta, c = float(self.miss_beta[i]), float(group.miss_mass[i])
        if beta <= 0.0 or c <= 0.0:
            return Hypothesis(max(beta, 0.0), 0.0, np.empty(0))
        return Hypothesis(beta, float(group.miss_existence[i]),
                          group.miss[group.offsets[i]:group.offsets[i + 1]] / c)

    def detection(self, i: int, m: int) -> Hypothesis:
        """Row i's detection of measurement m (counted from 1): beta = r b,
        existence 1 and pdf weights w pD f(z_m|.) / b; b = 0, as a pair below
        gamma_c has, yields beta = 0 and no pdf."""
        group = self.group
        pair = np.flatnonzero((group.pair_row == i) & (group.pair_col == m - 1))
        if not pair.size or group.b[pair[0]] <= 0.0:
            return Hypothesis(0.0, 0.0, np.empty(0))
        [lik] = take_rows([group.lik], group.cuts, pair)
        return Hypothesis(float(self.betas[i, m - 1]), 1.0, lik / group.b[pair[0]])


def track_evidence(block: TrackBlock, frame: Sequence[Measurement],
                   sensor: SensorModel, gamma_c: float) -> TrackEvidence:
    """Evidence of every predicted track against every measurement, in one pass.

    The block's ranges, bearings and pD are computed once. Of the pairs the
    sensor's row gate keeps, one whose weight bound r sum(w pD) norm
    exp(bound) lies below gamma_c / 2 has a weight below gamma_c, so it is
    never evaluated. The rest are evaluated at once, and an evaluated pair
    with r b < gamma_c is given b = 0, so it weighs nothing: the plausible
    pairs are the pairs of weight > 0, and they are labelled into clusters.
    gamma_c = 0 leaves every pair as it is.
    """
    r, offsets = block.existence, block.offsets
    betas = np.zeros((len(r), len(frame)))
    rho, theta = sensor.range_bearing(block.states)
    pd = sensor.detection_prob_at(rho)
    miss = block.weights * (1.0 - pd)
    detect = block.weights * pd
    c = row_reduce(np.add, miss, offsets)
    miss_beta = 1.0 - r + r * c
    # r c / beta where the miss has a pdf; nan stays nan, as `miss` gives it
    existence = np.divide(r * c, miss_beta, out=np.zeros(len(r)),
                          where=~((miss_beta <= 0.0) | (c <= 0.0)))

    bound, norm = sensor.row_bounds(frame, rho, theta, offsets)
    # exp, the products and the N-term sum can exceed this weight bound
    # by a few ulps only; halving gamma_c is the fixed margin for that.
    # A non-finite bound compares False and is evaluated.
    ceiling = (r * row_reduce(np.add, detect, offsets))[:, None] * norm * np.exp(bound)
    at, meas = ((bound >= EXP_FLOOR) & ~(ceiling < 0.5 * gamma_c)).nonzero()
    lengths = np.diff(offsets)[at]
    cuts = np.concatenate(([0], lengths.cumsum()))
    rho_at, theta_at, detect_at = take_rows((rho, theta, detect), offsets, at)
    lik = sensor.likelihood_rows(frame, meas, rho_at, theta_at, lengths)
    lik *= detect_at
    b = row_reduce(np.add, lik, cuts)
    # the plausibility rule: a pair below gamma_c weighs nothing; NaN compares False
    b[r[at] * b < gamma_c] = 0.0
    betas[at, meas] = r[at] * b
    row_of, col_of = _components(betas)
    group = TrackGroup(offsets, miss, c, existence, at, meas, cuts, lik, b)
    return TrackEvidence(miss_beta, betas, group, row_of, col_of)


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


def _components(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's and each column's connected component of the pairs of
    `betas` (L, M) that weigh more than 0, named by its smallest row; -1 for
    a column in no pair. In `track_evidence`'s table these are the plausible
    pairs; a zero or NaN weight joins nothing.

    Rounds pass the smallest name from rows to columns and back until none
    changes."""
    count, cols = betas.shape
    edge_row, edge_col = np.nonzero(betas > 0.0)
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


@functools.cache
def _subsets(E: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_pass_marginals`' index tables over the subsets S < 2^E plus a slot 2^E
    holding 0: row e of `remove` gives S less e if e is in S, row e of `add` S
    plus e if it is not, else the slot, and row E of each S; `out[e, S]`, e not in S."""
    n = 1 << E
    subsets, bits = np.arange(n + 1), 1 << np.arange(E)[:, None]
    has, pad = (subsets & bits) > 0, subsets == n
    remove, add = np.where(has, subsets ^ bits, n), np.where(has | pad, n, subsets | bits)
    return np.vstack((remove, subsets)), np.vstack((add, subsets)), ~(has | pad)


def _pass_marginals(miss_beta: np.ndarray, det_beta: np.ndarray, new_beta: np.ndarray,
                    transferred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One cluster's exact (legacy, claim), laid out as `Marginals`, by one
    forward-backward pass over the subsets of its smaller side: its K items
    are the rows when M <= L, else the columns, and its E elements the other
    side. An item skips (a row with its miss weight, a column with its free
    weight) or takes an element no item took, and an element none takes adds
    its own such weight. A free column weighs new_beta (1 + transferred), as a
    transfer's claim and no-claim weigh new_beta each: it claims half of that.
    Forward sums F_k over the sets S the first k items take, a backward pass
    B_k over the items from k on, ending in the free weights outside S, and k
    takes e with F_k[S] weight B_{k+1}[S + e] summed over S. A vector has one
    factor per item and one per element, so each item's weights and then each
    element's are scaled by their largest; each F_k and B_k is scaled to a
    largest entry of 1, and item k's terms are normalized by their sum.
    Costs K E 2^E; a zero total raises ValueError."""
    L, M = det_beta.shape
    unclaimed = new_beta * (1.0 + transferred)
    weight, skip, free = ((det_beta, miss_beta, unclaimed) if M <= L
                          else (det_beta.T, unclaimed, miss_beta))
    (K, E), n = weight.shape, 1 << min(L, M)
    remove, add, out = _subsets(E)
    W = np.concatenate((weight, skip[:, None]), axis=1)    # item k's weights, skip last
    W /= W.max(axis=1, initial=_TINY, keepdims=True)
    top = np.maximum(W[:, :E].max(axis=0, initial=_TINY), free)
    W[:, :E] /= top
    F, B = np.zeros((2, K + 1, n + 1))
    F[0, 0] = 1.0
    B[K, :n] = np.where(out[:, :n], (free / top)[:, None], 1.0).prod(axis=0)
    for k in range(K):
        step = W[k] @ F[k][remove]
        F[k + 1] = step / (step.max() or 1.0)
    total = F[K] @ B[K]
    if not total > 0.0:
        raise ValueError("all association hypotheses have zero weight")
    for k in reversed(range(K)):
        step = W[k] @ B[k + 1][add]
        B[k] = step / (step.max() or 1.0)
    terms = W * np.matmul(B[1:][:, add], F[:-1, :, None])[..., 0]
    terms /= terms.sum(axis=1, keepdims=True)
    take, none, unused = terms[:, :E], terms[:, E], out @ (F[K] * B[K]) / total
    detect, miss, unused = (take, none, unused) if M <= L else (take.T, unused, none)
    return np.concatenate((miss[:, None], detect), axis=1), np.where(transferred, unused / 2, 0.0)


# a cluster is solved exactly when K E 2^E, with E its smaller side and K its
# larger, is at most this; bigger clusters use BP
EXACT_COST_LIMIT = 2 ** 14
# BP stops after this many rounds if no fixed point comes first
BP_ROUNDS = 20


def exact_marginals(miss_beta: np.ndarray, betas: np.ndarray, new_beta: np.ndarray,
                    transferred: np.ndarray,
                    clusters: Sequence[tuple[np.ndarray, np.ndarray]]) -> Marginals:
    """The step's one marginal call: `batch_bp_marginals`' tables, list and
    layout. BP is exact on an acyclic cluster, so `_pass_marginals` solves a
    cluster only if it is connected with a cycle: at least two rows and two
    columns, and edges, the nonzero entries of its table that BP reads (the
    plausible pairs of `track_evidence`'s table; a transfer label closes no
    cycle), numbering at least its rows plus its columns. Its pass must also
    cost at most `EXACT_COST_LIMIT`, and its weights must be finite. The
    rest go through one `batch_bp_marginals`."""
    solved, batched = [], []
    for rows, cols in clusters:
        E, K = sorted((len(rows), len(cols)))
        if E >= 2 and K * E * 2 ** E <= EXACT_COST_LIMIT:
            tables = (miss_beta[rows], betas[np.ix_(rows, cols)], new_beta[cols], transferred[cols])
            if (np.count_nonzero(tables[1]) >= K + E
                    and all(np.isfinite(t).all() for t in tables[:3])):
                solved.append((rows, cols, tables))
                continue
        batched.append((rows, cols))
    legacy, claim = batch_bp_marginals(miss_beta, betas, new_beta, transferred, batched)
    for rows, cols, tables in solved:
        legacy[np.ix_(rows, np.append(0, 1 + cols))], claim[cols] = _pass_marginals(*tables)
        _check_marginals(legacy[rows], claim[cols])
    return Marginals(legacy, claim)


def bp_marginals(miss_beta: np.ndarray, det_beta: np.ndarray, new_beta: np.ndarray,
                 transferred: np.ndarray) -> Marginals:
    """Loopy BP marginals of one cluster's four tables (miss, detection and
    new weights, a transfer mask), checked by `_check_cluster` first: a
    one-cluster call of `batch_bp_marginals`."""
    L, M = _check_cluster(miss_beta, det_beta, new_beta, transferred)
    return batch_bp_marginals(miss_beta, det_beta, new_beta, transferred,
                              [(np.arange(L), np.arange(M))])


# 0 / 0 and overflow are left to `_check_marginals`, as the docstring says
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def batch_bp_marginals(miss_beta: np.ndarray, betas: np.ndarray, new_beta: np.ndarray,
                       transferred: np.ndarray,
                       clusters: Sequence[tuple[np.ndarray, np.ndarray]]) -> Marginals:
    """Loopy belief propagation on the bipartite label-measurement graph of
    every cluster of a list at once.

    The tables are `miss_beta` (L,), `betas` (L, M), `new_beta` (M,) and
    `transferred` (M,). Each cluster is a `(rows, cols)` pair of ascending
    index arrays into them, as `partition` lists them; clusters share no row
    or column, a cluster may have no rows or no columns, and it reads no
    entry of `betas` outside itself. With w = beta(l,m)/beta(m), which makes
    the scheme invariant to measurement-unit scaling, the messages

        x(l->m) = w(l,m) / (beta(l,0) + sum_{m' != m} w(l,m') nu(m'->l))
        nu(m->l) = 1 / (1 + [transfer on m] + sum_{l' != l} x(l'->m))

    run from nu = 1 for at most `BP_ROUNDS` rounds, and stop once every
    message repeats bit for bit, a fixed point. A transfer label's outgoing
    message is the constant 1 because its claim weight equals beta(m).
    Beliefs: p(l->m) proportional to w(l,m) nu(m->l), p(l->0) to beta(l,0);
    for a transfer label p(1)/p(0) = nu(m->l). Exact whenever the cluster's
    plausibility graph is acyclic.

    Messages live on the edges, the nonzero entries of `betas` whose row and
    column share a listed cluster, in `np.nonzero`'s order, and each sum is
    one `np.bincount`, which adds a bin's terms from 0.0 in edge order: a
    row's over its columns, a column's over its rows, a belief row's from
    its miss. So a cluster gets the same bits alone or in any list.

    The marginals pass `_check_marginals`, or ValueError is raised, so a NaN
    that BP makes from numbers raises: the 0 / 0 of a row with no weight at
    all, a track with r = 1 and pD = 1 and nothing to detect. A cluster with
    a NaN miss or edge weight (beta(l,m) = beta(m) = inf gives w = NaN) has
    NaN marginals on its rows, returned unchecked; `lmbp_step` gives its
    tracks r = 0.
    """
    L, M = betas.shape
    # each row's and column's place in the list: -1 for a row, -2 for a column in none
    row_of, col_of = np.full(L, -1), np.full(M, -2)
    for part, name_of in enumerate((row_of, col_of)):
        members = [cluster[part] for cluster in clusters]
        name_of[np.concatenate([np.empty(0, np.intp)] + members)] = np.repeat(
            np.arange(len(clusters)), list(map(len, members)))
    at, to = np.nonzero(betas)
    inside = row_of[at] == col_of[to]
    at, to = at[inside], to[inside]
    rows, cols = np.flatnonzero(row_of >= 0), np.flatnonzero(col_of >= 0)
    w = betas[at, to] / np.maximum(new_beta[to], _TINY)
    miss, base = miss_beta[at], 1.0 + transferred[to]
    nu, sum_x = np.ones(len(at)), np.zeros(M)
    for _ in range(BP_ROUNDS):
        weighted = w * nu
        x = w / np.maximum(miss + np.bincount(at, weighted, L)[at] - weighted, _TINY)
        sum_x = np.bincount(to, x, M)
        prev, nu = nu, 1.0 / np.maximum(base + sum_x[to] - x, _TINY)
        if (nu == prev).all():
            break

    # each row's belief terms: its miss, then its detections in column order
    put, terms = np.append(rows, at), np.append(miss_beta[rows], w * nu)
    legacy, claim = np.zeros((L, 1 + M)), np.zeros(M)
    legacy[put, np.append(np.zeros_like(rows), 1 + to)] = terms / np.bincount(put, terms, L)[put]
    odds = 1.0 / (1.0 + sum_x[cols])
    claim[cols] = np.where(transferred[cols], odds / (1.0 + odds), 0.0)
    # the clusters whose weights are all numbers; the rest pass NaN on unchecked
    numbers = np.ones(len(clusters), bool)
    numbers[row_of[rows[np.isnan(miss_beta[rows])]]] = False
    numbers[row_of[at[np.isnan(w)]]] = False
    _check_marginals(legacy[rows[numbers[row_of[rows]]]], claim[cols[numbers[col_of[cols]]]])
    return Marginals(legacy, claim)
