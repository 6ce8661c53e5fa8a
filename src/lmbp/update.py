"""Two-stage approximate update: transfer selection, marginalized track update,
recycling, intensity update, and the full per-step recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

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
    """Particle budgets and the BP round limit of `exact_marginals`' batch."""

    track_particles: int = 1000
    phd_particles: int = 5000
    bp_iterations: int = 20

    def __post_init__(self):
        if self.bp_iterations < 1:
            raise ValueError("bp_iterations must be >= 1")
        for name in ("track_particles", "phd_particles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class Pending(NamedTuple):
    """A track before resampling: its label, its existence, and its resample
    row (weights, states), or None for a track with no pdf."""

    label: Label
    existence: float
    row: tuple[np.ndarray, np.ndarray] | None


def select_transfers(beta: np.ndarray, mass: np.ndarray, cells: Cells,
                     states: np.ndarray, gamma_tr: float,
                     time: int) -> tuple[dict[int, Pending], np.ndarray]:
    """Split the measurements' new components into transferred labels and the rest.

    `beta`, `mass` and `cells` come from `new_components` over the intensity
    particles `states`. Returns `(transfers, transferred)`: the (M,) mask
    `transferred` marks every measurement whose component has existence
    mass / beta >= gamma_tr (inclusive), and `transfers[j]` is the pending
    track of each such column j: label (time, j + 1), that existence, and
    pdf weights the cells of row j over d, over their particles in column
    order. The caller absorbs or prunes the rest.
    """
    row, col, value = cells
    existence = mass / beta
    transferred = existence >= gamma_tr
    bounds = np.searchsorted(row, np.arange(len(beta) + 1))
    transfers = {}
    for j in np.flatnonzero(transferred).tolist():
        run = slice(bounds[j], bounds[j + 1])
        transfers[j] = Pending(Label(time, j + 1), float(existence[j]),
                               (value[run] / mass[j], states.take(col[run], axis=0)))
    return transfers, transferred


def legacy_mixture(group: TrackGroup, legacy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginalized update of one evidence group's rows from the step's
    `Marginals.legacy`: each row's r = sum_a p(a) r(l,a), capped at 1 (L_g,),
    and its pdf sum_a (p(a) r(l,a) / r) f(.|a) as an (L_g, N) weight array.

    A row's terms are its miss, p = legacy[i, 0] r c / beta over w (1 - pD) / c,
    then its detections by column, p = legacy[i, 1 + j] over w pD f / b. Only
    a term with p > 0 and a mass that is not 0 enters and is normalized. r and
    the mixture add a row's terms in that order, one term index at a time
    over the rows that have one. A row with no term has r = 0 and a zero
    mixture; with one, p / r is exactly 1.
    """
    p_miss = legacy[group.rows, 0] * group.miss_existence
    p_det = legacy[group.rows[group.pair_row], 1 + group.pair_col]
    # as in `TrackEvidence.detection`, only a mass <= 0 means no pdf: a nan one fails the resample
    miss = np.flatnonzero((p_miss > 0.0) & ~(group.miss_mass <= 0.0))
    det = np.flatnonzero((p_det > 0.0) & ~(group.b <= 0.0))
    owner = group.pair_row[det]
    # bincount adds each row's p in order from 0.0: its miss, then its detections by column
    r = np.bincount(np.concatenate([miss, owner]), np.concatenate([p_miss[miss], p_det[det]]),
                    minlength=len(group.rows))
    mixture = np.zeros(group.miss.shape)
    mixture[miss] += ((p_miss[miss] / r[miss])[:, None]
                      * (group.miss[miss] / group.miss_mass[miss, None]))
    rank = np.arange(len(det)) - np.searchsorted(owner, owner)
    for t in range(rank.max(initial=-1) + 1):
        at, rows = det[rank == t], owner[rank == t]
        mixture[rows] += (p_det[at] / r[rows])[:, None] * (group.lik[at] / group.b[at, None])
    return np.minimum(r, 1.0), mixture


# a kept row of the budget's length is carried as it is while its effective
# sample size is at least this share of the budget (Kong, Liu & Wong 1994)
_ESS_SHARE = 0.5


def _carried(weights: np.ndarray, particle_budget: int) -> bool:
    """Whether a kept row keeps its weights: it has `particle_budget`
    particles and an effective sample size (sum w)^2 / sum w^2 of at least
    `_ESS_SHARE` of them (inclusive). A NaN or inf weight fails the test."""
    if len(weights) != particle_budget:
        return False
    squares = float(weights @ weights)
    if not 0.0 < squares < np.inf:
        return False
    total = float(weights.sum())
    return total * total / squares >= _ESS_SHARE * particle_budget


def _resampled(pending: Sequence[Pending], kept: Sequence[Pending], particle_budget: int,
               rng: np.random.Generator) -> tuple[TrackBlock, list[Pending]]:
    """The next block, each row of `kept` in its label-ordered slot, and the
    other pending records that have a row, in order and as they are.

    A kept row that `_carried` passes is copied into its slot, states and
    weights unchanged, and draws no uniform. Every other kept row with a
    pdf is resampled to the budget in one `resample_rows` pass, in pending
    order, and drawn straight into its slot. The other records are the
    recycled tracks: `update_phd` resamples their rows with the intensity."""
    kept = sorted(kept, key=lambda p: p.label)
    block = TrackBlock.empty([p.label for p in kept], [p.existence for p in kept],
                             [0 if p.row is None else particle_budget for p in kept])
    slots = dict(zip((p.label for p in kept), block.rows()))
    drawn, others = [], []
    for p in pending:
        if p.row is None:
            continue
        slot = slots.get(p.label)
        if slot is None:
            others.append(p)
        elif _carried(p.row[0], particle_budget):
            slot[0][...], slot[1][...] = p.row[1], p.row[0]
        else:
            drawn.append((p.row, slot))
    for ((_, states), slot), (idx, weight) in zip(
            drawn, resample_rows([row[0] for row, _ in drawn], particle_budget, rng)):
        # the indices are in range, and "clip" writes into the slot unbuffered
        states.take(idx, axis=0, out=slot[0], mode="clip")
        slot[1].fill(weight)
    return block, others


def update_legacy_track(label: Label, marginal: Mapping[int, float], miss: Hypothesis,
                        detections: Mapping[int, Hypothesis], states: np.ndarray,
                        particle_budget: int, rng: np.random.Generator) -> BernoulliTrack:
    """Marginalized update of a legacy track, as `lmbp_step` makes it for one
    row: `legacy_mixture` of a one-row group of the hypotheses' pdf weights
    over `states`, each of mass 1 or empty (a row of another length raises
    ValueError), through `_resampled`: carried as it is when `_carried`
    passes it, else resampled; with no mixture mass the track has r = 0."""
    found = sorted(detections)
    hyps = [miss] + [detections[m] for m in found]
    if any(len(hyp.weights) not in (0, len(states)) for hyp in hyps):
        raise ValueError("a hypothesis does not weight the predicted track's particles")
    rows = np.array([h.weights if len(h.weights) else np.zeros(len(states)) for h in hyps])
    mass = np.array([len(h.weights) > 0 for h in hyps], dtype=float)
    # each term's p(a) r(l,a) in one legacy row, so the miss existence is 1
    legacy = np.array([[marginal.get(m, 0.0) * h.existence for m, h in zip([0] + found, hyps)]])
    group = TrackGroup(np.zeros(1, np.intp), rows[:1], mass[:1], np.ones(1),
                       np.zeros(len(found), np.intp), np.arange(len(found)), rows[1:], mass[1:])
    (r,), (weights,) = legacy_mixture(group, legacy)
    updated = Pending(label, float(r), (weights, states) if r > 0.0 else None)
    return _resampled([updated], [updated], particle_budget, rng)[0].tracks()[0]


def update_transferred_track(transfer: Pending, p_claim: float, particle_budget: int,
                             rng: np.random.Generator) -> BernoulliTrack:
    """Update of a freshly transferred track, as `lmbp_step` makes it for one
    row: r = p(claim) * existence, and the component's pdf through
    `_resampled`: carried as it is when `_carried` passes it, else
    resampled."""
    claimed = transfer._replace(existence=p_claim * transfer.existence)
    return _resampled([claimed], [claimed], particle_budget, rng)[0].tracks()[0]


def split_by_retention(tracks: Sequence[Pending], gamma_leg: float,
                       time: int) -> tuple[list[Pending], list[Pending]]:
    """Keep likely tracks; recycle unlikely legacy ones.

    A track is any record with a `label` and an `existence`: a `Pending`
    record in the step, whose label and existence decide its retention
    before it is resampled, or a `BernoulliTrack`. Tracks transferred this
    step (birth_time == time) are always kept; legacy tracks are kept iff
    r >= gamma_leg (inclusive).
    """
    kept, recycled = [], []
    for track in tracks:
        if track.label.birth_time == time or track.existence >= gamma_leg:
            kept.append(track)
        else:
            recycled.append(track)
    return kept, recycled


def update_phd(recycled: Sequence[Pending], beta: np.ndarray, cells: Cells,
               predicted_phd: PoissonPhd, pd: np.ndarray, particle_budget: int,
               rng: np.random.Generator) -> PoissonPhd:
    """Posterior intensity: undetected predicted intensity + unclaimed
    components + recycled tracks, reduced to the intensity budget.

    `beta` (K,) and `cells` (rows 0..K-1) are the `new_components` output of
    the K measurements whose components return to the intensity, and `pd` is
    the detection probability of each predicted intensity particle. The
    predicted particles are reweighted by (1 - pD) w + sum_k row_k / beta[k]
    (the SMC-PHD update), the particles of the recycled tracks' rows
    (weights, states), which `_resampled` returns unresampled and of any
    length, are appended with weights r * weights, and the union is
    resampled once, so a recycled track is resampled only here. Total mass is
    sum((1 - pD) w) + sum_k d_k / beta_k + r-sum, preserved through the
    reduction. Only the union's weights are concatenated, not its states.
    """
    survivors = predicted_phd.particles
    row, col, value = cells
    # bincount adds each particle's terms in cell order, ascending k, as the
    # dense sum over k does
    weights = [survivors.weights * (1.0 - pd)
               + np.bincount(col, (1.0 / beta)[row] * value, minlength=len(survivors))]
    states = [survivors.states]
    for _, r, (pdf_weights, pdf_states) in recycled:
        weights.append(r * pdf_weights)
        states.append(pdf_states)
    union = np.concatenate(weights)
    check_weights(union)
    if union.sum() <= 0.0:
        return PoissonPhd.empty()
    [(idx, weight)] = resample_rows([union], particle_budget, rng)
    # the drawn indices ascend, so each piece's draws are one run of them
    starts = np.cumsum([0] + [len(piece) for piece in states])
    cuts = np.searchsorted(idx, starts).tolist()
    drawn = np.empty((particle_budget, STATE_DIM))
    for piece, start, a, b in zip(states, starts.tolist(), cuts, cuts[1:]):
        piece.take(idx[a:b] - start, axis=0, out=drawn[a:b], mode="clip")
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
    group by group; one `exact_marginals` call gives every cluster's
    marginals, BP's or, where BP is not exact, enumerated. A kept row of
    `track_particles` particles whose effective sample size is at least half
    of them is copied into its slot of the next block as it is; one
    `resample_rows` pass draws every other kept row, per cluster its legacy
    rows then its transfers and then the residual transfers, into its slot.
    The recycled rows go to `update_phd` unresampled, and no `BernoulliTrack`
    is built. Estimation is separate (`lmbp.estimation`).
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
    transfers, transferred = select_transfers(new_beta, new_mass, new_cells,
                                              predicted_phd.particles.states,
                                              thresholds.gamma_tr, k)

    # the updated tracks in the order their uniforms are drawn: per cluster,
    # its rows and then its transfers
    legacy, claim = exact_marginals(evidence.miss_beta, evidence.betas, new_beta, transferred,
                                    clusters, settings.bp_iterations)
    by_row: list = [None] * len(block.labels)
    for (_, states, _), group in zip(block.groups, evidence.groups):
        r, mixture = legacy_mixture(group, legacy)
        for i, row_r, row in zip(group.rows.tolist(), r.tolist(), zip(mixture, states)):
            by_row[i] = Pending(block.labels[i], row_r, row if row_r > 0.0 else None)
    claims = claim.tolist()
    pending: list[Pending] = []
    for rows, cols in clusters:
        pending += [by_row[i] for i in rows.tolist()]
        pending += [transfers[j]._replace(existence=claims[j] * transfers[j].existence)
                    for j in cols.tolist() if j in transfers]

    # a residual measurement competes with no track, so its transfer claims it surely
    pending += [transfers[j] for j in residual[transferred[residual]].tolist()]

    # retention needs only labels and existence; then the kept rows go into
    # the next block, resampled where their weights have degenerated
    kept, _ = split_by_retention(pending, thresholds.gamma_leg, k)
    updated, recycled = _resampled(pending, kept, settings.track_particles, rng)
    unclaimed = np.zeros(len(frame), dtype=bool)
    unclaimed[residual[~transferred[residual]]] = True
    phd = update_phd(recycled, new_beta[unclaimed], _rows_of(new_cells, unclaimed),
                     predicted_phd, phd_pd, settings.phd_particles, rng)
    return FilterState.from_block(updated, phd, k)
