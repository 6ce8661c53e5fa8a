"""Two-stage approximate update: transfer selection, marginalized track update,
recycling, intensity update, and the full per-step recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import (
    Cells,
    Hypothesis,
    TrackGroup,
    exact_marginals,
    new_components,
    partition,
    track_evidence,
)
# perfbench's tracer wraps these three names here; they stay until ROADMAP item 5
from .association import bp_marginals, detection_hypotheses, miss_hypothesis  # noqa: F401
from .models import Models
from .rfs import (
    BernoulliTrack,
    FilterState,
    Label,
    Measurement,
    ParticleSet,
    PoissonPhd,
    STATE_DIM,
    TrackBlock,
    check_weights,
    resample,  # noqa: F401 - perfbench's tracer wraps it here, until ROADMAP item 5
    resample_rows,
    run_indices,
    take_rows,
)
# perfbench's tracer wraps `predict_track` here; it stays until ROADMAP item 5
from .prediction import predict_phd, predict_track, predict_tracks  # noqa: F401

@dataclass(frozen=True)
class Thresholds:
    """The four decision thresholds of the recursion."""

    gamma_c: float = 1e-10    # clustering: plausibility cutoff on detection weights
    gamma_tr: float = 1e-2    # transfer unlabeled -> labeled (inclusive)
    gamma_leg: float = 1e-2   # keep legacy track in labeled part (inclusive)
    gamma_d: float = 0.5      # declare object detected (exclusive)

    def __post_init__(self):
        if not self.gamma_c >= 0:
            raise ValueError("gamma_c must be nonnegative")
        for name in ("gamma_tr", "gamma_leg", "gamma_d"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")


@dataclass(frozen=True)
class FilterSettings:
    """Particle budgets of the tracks and of the intensity."""

    track_particles: int = 1000
    phd_particles: int = 5000

    def __post_init__(self):
        for name in ("track_particles", "phd_particles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


# a transfer's row keeps the cells of at least this share of its mass d, far above
# the intensity's floor of 2^-106 c_m as d >= ~0.01 c_m; the rest weigh < PDF_TOL
TRANSFER_CUT = 2.0 ** -53


def select_transfers(beta: np.ndarray, mass: np.ndarray, cells: Cells,
                     states: np.ndarray, gamma_tr: float,
                     time: int) -> tuple[np.ndarray, np.ndarray, TrackBlock]:
    """Split the measurements' new components into transferred labels and the rest.

    `beta`, `mass` and `cells` come from `new_components` over the intensity
    particles `states`. Returns `(columns, transferred, fresh)`: the (M,)
    mask `transferred` marks every measurement whose component has existence
    mass / beta >= gamma_tr (inclusive), `columns` lists those measurements
    in ascending order, and row t of the block `fresh` is the track of
    column j = columns[t]: label (time, j + 1), that existence, and pdf
    weights the cells of row j of at least `TRANSFER_CUT` d, over d, over
    their particles in column order. The caller absorbs or prunes the rest.
    """
    row, col, value = cells
    existence = mass / beta
    transferred = existence >= gamma_tr
    columns = np.flatnonzero(transferred)
    # one mask over the cells, which are in row order: a transferred row's at or above its cut
    cut = transferred[row]
    cut[cut] = value[cut] >= TRANSFER_CUT * mass[row[cut]]
    offsets = np.append(0, np.bincount(row[cut], minlength=len(beta))[columns].cumsum())
    fresh = TrackBlock(tuple(map(Label, [time] * len(columns), (columns + 1).tolist())),
                       existence[columns], offsets, states.take(col[cut], axis=0),
                       value[cut] / mass[row[cut]])
    return columns, transferred, fresh


def legacy_mixture(group: TrackGroup, legacy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginalized update of the evidence's L rows from the step's
    `Marginals.legacy`: each row's r = sum_a p(a) r(l,a), capped at 1 (L,),
    and its pdf sum_a (p(a) r(l,a) / r) f(.|a) as weights over the rows'
    particles, cut by `group.offsets`.

    A row's terms are its miss, p = legacy[i, 0] r c / beta over w (1 - pD) / c,
    then its detections by column, p = legacy[i, 1 + j] over w pD f / b. Only
    a term with p > 0 and a mass that is not 0 enters and is normalized. r and
    the mixture add a row's terms in that order, from 0.0. A row with no term
    has r = 0 and a zero mixture; with one, p / r is exactly 1.
    """
    p_miss = legacy[:, 0] * group.miss_existence
    p_det = legacy[group.pair_row, 1 + group.pair_col]
    # as in `TrackEvidence.detection`, only a mass <= 0 means no pdf: a nan one fails the resample
    miss = (p_miss > 0.0) & ~(group.miss_mass <= 0.0)
    det = np.flatnonzero((p_det > 0.0) & ~(group.b <= 0.0))
    owner = group.pair_row[det]
    # bincount adds each row's p in order from 0.0: its miss, then its detections by column
    r = np.bincount(np.concatenate([np.flatnonzero(miss), owner]),
                    np.concatenate([p_miss[miss], p_det[det]]), minlength=len(miss))
    counts, lengths = np.diff(group.offsets), np.diff(group.cuts)[det]
    # every row's miss term at once, masked out where it does not enter, with
    # a mass of 1 there: cheaper than gathering the rows that do enter
    scale = np.divide(p_miss, r, out=np.zeros(len(r)), where=miss)
    mass = np.where(miss, group.miss_mass, 1.0)
    mixture = np.zeros(len(group.miss))
    np.add(mixture, scale.repeat(counts) * (group.miss / mass.repeat(counts)),
           out=mixture, where=miss.repeat(counts))
    # then the detections: add.at adds in pair order, each particle's by column
    [lik] = take_rows([group.lik], group.cuts, det)
    np.add.at(mixture, run_indices(group.offsets[owner], lengths),
              (p_det[det] / r[owner]).repeat(lengths) * (lik / group.b[det].repeat(lengths)))
    return np.minimum(r, 1.0), mixture


# a kept row of the budget's length is carried as it is while its effective
# sample size is at least this share of the budget (Kong, Liu & Wong 1994)
_ESS_SHARE = 0.5


def _carried_rows(heads: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(K,) mask of the kept rows that keep their weights, from each row's
    first N weights, (K, N), and its length: a row of N = the budget's
    particles whose effective sample size (sum w)^2 / sum w^2 is at least
    `_ESS_SHARE` of them (inclusive), which a NaN or inf weight fails. The
    heads' `np.vecdot` and sum give each row the bits of its own `w @ w` and
    `w.sum()`; the heads of a row of another length are not its weights."""
    budget = heads.shape[1]
    with np.errstate(all="ignore"):   # the rows that fail the other tests
        squares, total = np.vecdot(heads, heads), heads.sum(axis=1)
        ess = total * total / squares
    return (lengths == budget) & (0.0 < squares) & (squares < np.inf) & (ess >= _ESS_SHARE * budget)


def _next_block(pending: TrackBlock, kept: np.ndarray, fresh: TrackBlock,
                particle_budget: int, rng: np.random.Generator) -> TrackBlock:
    """The next block: the rows `kept` of `pending` in label order, then
    every row of `fresh`, whose labels sort last.

    A kept row that `_carried_rows` passes keeps its states and weights;
    every other kept row is drawn to the budget by one `resample_rows` pass,
    in the order of `kept`. A fresh row is carried at its own length and
    draws no uniform."""
    offsets, cuts = pending.offsets, pending.offsets.tolist()
    rows = np.array(sorted(kept.tolist(), key=pending.labels.__getitem__), dtype=np.intp)
    slot = np.empty(len(cuts), dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    # each kept row's first `particle_budget` particles, which a drawn row replaces by its draws
    index = offsets[rows, None] + np.arange(particle_budget)
    weights = pending.weights.take(index, mode="clip")
    carried = _carried_rows(weights, np.diff(offsets)[rows])
    drawn = kept[~carried[slot[kept]]]
    draws = resample_rows([pending.weights[cuts[i]:cuts[i + 1]] for i in drawn.tolist()],
                          particle_budget, rng)
    index[slot[drawn]] = offsets[drawn, None] + np.array(
        [idx for idx, _ in draws], dtype=np.intp).reshape(-1, particle_budget)
    weights[slot[drawn]] = np.array([weight for _, weight in draws])[:, None]
    block = TrackBlock.empty([pending.labels[i] for i in rows.tolist()] + list(fresh.labels),
                             np.concatenate([pending.existence[rows], fresh.existence]),
                             [particle_budget] * len(rows) + np.diff(fresh.offsets).tolist())
    # the indices are in range, and "clip" writes into the block unbuffered
    pending.states.take(index.reshape(-1), axis=0, out=block.states[:index.size], mode="clip")
    block.states[index.size:], block.weights[index.size:] = fresh.states, fresh.weights
    block.weights[:index.size] = weights.reshape(-1)
    return block


_NO_TRACKS = TrackBlock.empty([], [], [])


def update_legacy_track(label: Label, marginal: Mapping[int, float], miss: Hypothesis,
                        detections: Mapping[int, Hypothesis], states: np.ndarray,
                        particle_budget: int, rng: np.random.Generator) -> BernoulliTrack:
    """Marginalized update of a legacy track, as `lmbp_step` makes it for one
    kept row: `legacy_mixture` of a one-row group of the hypotheses' pdf
    weights over `states`, each of mass 1 or empty (a row of another length
    raises ValueError), through `_next_block`: carried as it is when
    `_carried_rows` passes it, else resampled; with no mixture mass the track
    has r = 0 and no particles."""
    found = sorted(detections)
    hyps = [miss] + [detections[m] for m in found]
    if any(len(hyp.weights) not in (0, len(states)) for hyp in hyps):
        raise ValueError("a hypothesis does not weight the predicted track's particles")
    rows = np.array([h.weights if len(h.weights) else np.zeros(len(states)) for h in hyps])
    mass = np.array([len(h.weights) > 0 for h in hyps], dtype=float)
    # each term's p(a) r(l,a) in one legacy row, so the miss existence is 1
    legacy = np.array([[marginal.get(m, 0.0) * h.existence for m, h in zip([0] + found, hyps)]])
    group = TrackGroup(np.array([0, len(states)]), rows[0], mass[:1], np.ones(1),
                       np.zeros(len(found), np.intp), np.arange(len(found)),
                       np.arange(len(hyps)) * len(states), rows[1:].reshape(-1), mass[1:])
    r, weights = legacy_mixture(group, legacy)
    if not r[0] > 0.0:
        return BernoulliTrack(label, float(r[0]), ParticleSet.empty())
    pending = TrackBlock((label,), r, group.offsets, states, weights)
    return _next_block(pending, np.zeros(1, np.intp), _NO_TRACKS, particle_budget,
                       rng).tracks()[0]


def update_transferred_track(transfer: TrackBlock, p_claim: float, particle_budget: int,
                             rng: np.random.Generator) -> BernoulliTrack:
    """Update of a freshly transferred track, the one row of `transfer` (a
    row of `select_transfers`' block), as `lmbp_step` makes it:
    r = p(claim) * existence, and the component's pdf carried as it is
    through `_next_block`, drawing no uniform."""
    claimed = transfer._replace(existence=p_claim * transfer.existence)
    return _next_block(_NO_TRACKS, np.empty(0, np.intp), claimed, particle_budget,
                       rng).tracks()[0]


def split_by_retention(existence: np.ndarray, rows: np.ndarray,
                       gamma_leg: float) -> tuple[np.ndarray, np.ndarray]:
    """Keep likely legacy tracks; recycle unlikely ones.

    Splits the legacy `rows`, indices into `existence`, into those kept,
    r >= gamma_leg (inclusive), and those recycled, each in the order of
    `rows`; a NaN existence is recycled. A track transferred this step is
    always kept, so the step passes only its legacy rows.
    """
    keep = existence[rows] >= gamma_leg
    return rows[keep], rows[~keep]


def update_phd(tracks: TrackBlock, recycled: np.ndarray, beta: np.ndarray, cells: Cells,
               predicted_phd: PoissonPhd, pd: np.ndarray, particle_budget: int,
               rng: np.random.Generator) -> PoissonPhd:
    """Posterior intensity: undetected predicted intensity + unclaimed
    components + recycled tracks, reduced to the intensity budget.

    `beta` (K,) and `cells` (rows 0..K-1) are the `new_components` output of
    the K measurements whose components return to the intensity, and `pd` is
    the detection probability of each predicted intensity particle. The
    predicted particles are reweighted by (1 - pD) w + sum_k row_k / beta[k]
    (the SMC-PHD update), the particles of the rows `recycled` of the block
    `tracks` (the step's recycled rows with r > 0, in cluster order),
    unresampled and of any length, are appended in that order with weights
    r * weights, and the union is resampled once, so a recycled track is
    resampled only here. Total mass is sum((1 - pD) w) + sum_k d_k / beta_k
    + r-sum, preserved through the reduction. Only the union's weights are
    concatenated; the drawn states are gathered from the two sources.
    """
    survivors = predicted_phd.particles
    row, col, value = cells
    lengths = np.diff(tracks.offsets)[recycled]
    particles = run_indices(tracks.offsets[recycled], lengths)
    # bincount adds each particle's terms in cell order, ascending k, as the
    # dense sum over k does
    union = np.concatenate([
        survivors.weights * (1.0 - pd)
        + np.bincount(col, (1.0 / beta)[row] * value, minlength=len(survivors)),
        tracks.existence[recycled].repeat(lengths) * tracks.weights[particles]])
    check_weights(union)
    if union.sum() <= 0.0:
        return PoissonPhd.empty()
    [(idx, weight)] = resample_rows([union], particle_budget, rng)
    # the drawn indices ascend: those of the predicted particles come first
    cut = int(np.searchsorted(idx, len(survivors)))
    drawn = np.empty((particle_budget, STATE_DIM))
    survivors.states.take(idx[:cut], axis=0, out=drawn[:cut], mode="clip")
    tracks.states.take(particles[idx[cut:] - len(survivors)], axis=0, out=drawn[cut:],
                       mode="clip")
    return PoissonPhd(ParticleSet(drawn, np.full(particle_budget, weight)))


def _rows_of(cells: Cells, keep: np.ndarray) -> Cells:
    """The cells in the rows where `keep` (M,) is True, the rows renumbered
    to count the kept rows only; row order is preserved."""
    row, col, value = cells
    inside = keep[row]
    return (np.cumsum(keep) - 1)[row[inside]], col[inside], value[inside]


def lmbp_step(state: FilterState, frame: Sequence[Measurement], models: Models,
              thresholds: Thresholds, rng: np.random.Generator,
              prev_frame: Sequence[Measurement] = (),
              settings: FilterSettings = FilterSettings()) -> FilterState:
    """One full recursion step: predict, associate, update, transfer, recycle.

    `prev_frame` feeds the measurement-driven birth proposal (empty on the
    first step). `SensorModel.screen` drops a measurement outside the sensor
    disk or with a non-finite bearing before any likelihood is evaluated, and
    one that neither clutter nor the intensity can explain (beta = 0 or nan)
    is dropped before association; label indices count positions in the kept
    frame. Only the rows of residual measurements that are not transferred
    return to the intensity. The tracks are one `TrackBlock` from step to
    step, which `predict_tracks`, `track_evidence` and `legacy_mixture` take
    in one pass each; one `exact_marginals` call gives every cluster's
    marginals, BP's or, where BP is not exact, the exact pass's. The updated
    rows are the predicted block with the mixture's r and weights, the
    transfers `select_transfers`' block of cell rows, and retention splits
    the rows, in cluster order, into index arrays. `_next_block` takes the
    kept rows in label order, then the transfers, whose fresh labels sort
    last, and `update_phd` the recycled rows with r > 0, unresampled.
    Estimation is separate (`lmbp.estimation`).
    """
    k = state.time + 1

    # prediction; tracks whose survival mass vanishes are dropped
    block = predict_tracks(state.block, models.motion, rng)
    birth = models.birth.sample_phd(prev_frame, models.motion, models.sensor, rng)
    predicted_phd = predict_phd(state.phd, birth, models.motion, rng)

    # association weights for every track/measurement pairing; row i of the
    # tables is the block's row i, column j is frame[j]
    frame = models.sensor.screen(frame)
    polar = models.sensor.range_bearing(predicted_phd.particles.states)
    phd_pd = models.sensor.detection_prob_at(polar[0])
    new_beta, new_mass, new_cells = new_components(predicted_phd, phd_pd, frame,
                                                   models.sensor, polar)
    supported = new_beta > 0.0
    if not supported.all():
        frame = [z for z, keep in zip(frame, supported) if keep]
        new_beta, new_mass = new_beta[supported], new_mass[supported]
        new_cells = _rows_of(new_cells, supported)
    evidence = track_evidence(block, frame, models.sensor, thresholds.gamma_c)

    clusters, residual = partition(evidence.row_of, evidence.col_of)
    columns, transferred, fresh = select_transfers(new_beta, new_mass, new_cells,
                                                   predicted_phd.particles.states,
                                                   thresholds.gamma_tr, k)
    legacy, claim = exact_marginals(evidence.miss_beta, evidence.betas, new_beta, transferred,
                                    clusters)
    r, mixture = legacy_mixture(evidence.group, legacy)
    pending = block._replace(existence=r, weights=mixture)
    # a residual measurement competes with no track, so its transfer claims it surely
    claim[residual] = 1.0
    fresh = fresh._replace(existence=claim[columns] * fresh.existence)

    # retention needs only existence; the rows in cluster order, the order in
    # which those drawn draw their uniforms and the recycled reach the intensity
    order = np.concatenate([np.empty(0, np.intp)] + [rows for rows, _ in clusters])
    kept, recycled = split_by_retention(r, order, thresholds.gamma_leg)
    updated = _next_block(pending, kept, fresh, settings.track_particles, rng)
    unclaimed = np.zeros(len(frame), dtype=bool)
    unclaimed[residual[~transferred[residual]]] = True
    phd = update_phd(pending, recycled[r[recycled] > 0.0], new_beta[unclaimed],
                     _rows_of(new_cells, unclaimed), predicted_phd, phd_pd,
                     settings.phd_particles, rng)
    return FilterState.from_block(updated, phd, k)
