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
    batch_bp_marginals,
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
    """Particle budgets and marginalization configuration."""

    track_particles: int = 1000
    phd_particles: int = 5000
    bp_iterations: int = 20
    marginals: str = "bp"          # "bp" or "exact" (exact falls back on big clusters)

    def __post_init__(self):
        if self.marginals not in ("bp", "exact"):
            raise ValueError("marginals must be 'bp' or 'exact'")
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


def _legacy(label: Label, terms: Sequence[tuple[float, np.ndarray]],
            states: np.ndarray) -> Pending:
    """Marginalized update of a legacy track from its (p(a) r(l,a), pdf
    weights) terms over the predicted particles `states`: r = sum p, and the
    pdf is the mixture sum (p / r) w of the terms with p > 0 and a pdf, added
    in order. A track whose mixture mass vanishes gets r = 0."""
    terms = [(p, w) for p, w in terms if p > 0.0 and len(w)]
    r = 0.0
    for p, _ in terms:  # in order: from Python 3.12 on, sum() compensates floats
        r += p
    if r <= 0.0:
        return Pending(label, 0.0, None)
    if len(terms) == 1:  # r is p, so p / r is exactly 1 and the term is the mixture
        return Pending(label, min(r, 1.0), (terms[0][1], states))
    return Pending(label, min(r, 1.0), (sum((p / r) * w for p, w in terms), states))


def _resampled(pending: Sequence[Pending], kept: Sequence[Pending], particle_budget: int,
               rng: np.random.Generator) -> tuple[TrackBlock, list[Pending]]:
    """The pending rows resampled to the budget in one `resample_rows` pass,
    in order. Each row of `kept` is drawn straight into its label-ordered
    slot of the returned block; the other records come back, in order, with
    their resampled rows."""
    kept = sorted(kept, key=lambda p: p.label)
    block = TrackBlock.empty([p.label for p in kept], [p.existence for p in kept],
                             [0 if p.row is None else particle_budget for p in kept])
    slots = dict(zip((p.label for p in kept), block.rows()))
    drawn = [p for p in pending if p.row is not None]
    others = []
    for (label, r, (_, states)), (idx, weight) in zip(
            drawn, resample_rows([p.row[0] for p in drawn], particle_budget, rng)):
        slot = slots.get(label)
        if slot is None:
            others.append(Pending(label, r, (np.full(particle_budget, weight),
                                             states.take(idx, axis=0))))
        else:
            # the indices are in range, and "clip" writes into the slot unbuffered
            states.take(idx, axis=0, out=slot[0], mode="clip")
            slot[1].fill(weight)
    return block, others


def update_legacy_track(label: Label, marginal: Mapping[int, float], miss: Hypothesis,
                        detections: Mapping[int, Hypothesis], states: np.ndarray,
                        particle_budget: int, rng: np.random.Generator) -> BernoulliTrack:
    """Marginalized update of a legacy track, as `lmbp_step` makes it for one row.

    r = sum_a p(a) r(l,a); the pdf is the r(l,a)-weighted mixture of the
    per-hypothesis pdfs. Every hypothesis weights the predicted track's
    particles `states` (as `TrackEvidence.miss` and `TrackEvidence.detection`
    return them), or is empty, so the mixture is one weight vector over
    them, resampled to the track budget; a weight row of another length
    raises ValueError. A track whose mixture mass vanishes comes back with
    r = 0 (the caller recycles it).
    """
    terms = [(marginal.get(0, 0.0) * miss.existence, miss.weights)]
    terms += [(marginal.get(m, 0.0) * hyp.existence, hyp.weights)
              for m, hyp in detections.items()]
    if any(len(weights) not in (0, len(states)) for _, weights in terms):
        raise ValueError("a hypothesis does not weight the predicted track's particles")
    updated = _legacy(label, terms, states)
    return _resampled([updated], [updated], particle_budget, rng)[0].tracks()[0]


def update_transferred_track(transfer: Pending, p_claim: float, particle_budget: int,
                             rng: np.random.Generator) -> BernoulliTrack:
    """Update of a freshly transferred track, as `lmbp_step` makes it for one
    row: r = p(claim) * existence, and the component's pdf resampled."""
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
    (weights, states) are appended with weights r * weights, and the union
    is resampled once. Total mass is
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
    # the check `ParticleSet` makes; min is nan where any weight is
    if union.size and not (union.min() >= 0.0 and union.max() < np.inf):
        raise ValueError("particle weights must be finite and nonnegative")
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
    return to the intensity, and `update_phd` gets those rows alone. The
    tracks are one `TrackBlock` from step to step: `predict_tracks` moves the
    state's block group by group, the marginals of every cluster, in the
    tables' columns, come from one call (`batch_bp_marginals`, or
    `exact_marginals` in exact mode, with the same arguments), and every
    track that is resampled, legacy then transferred per cluster and then
    the residual transfers, goes through one `resample_rows` pass, each kept
    row straight into its slot of the next block. No `BernoulliTrack` is
    built. Estimation is separate (`lmbp.estimation`).
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
    marginals = exact_marginals if settings.marginals == "exact" else batch_bp_marginals
    legacy, claim = marginals(evidence.miss_beta, evidence.betas, new_beta, transferred,
                              clusters, settings.bp_iterations)
    pmfs, claims = legacy.tolist(), claim.tolist()
    pending: list[Pending] = []
    for rows, cols in clusters:
        col_list = cols.tolist()
        for i in rows.tolist():
            # a detection pdf is built only where the marginal puts mass
            pending.append(_legacy(block.labels[i], evidence.terms(i, pmfs[i], col_list),
                                   evidence.states[i]))
        for j in col_list:
            if j in transfers:
                transfer = transfers[j]
                pending.append(transfer._replace(existence=claims[j] * transfer.existence))

    # a residual measurement competes with no track, so its transfer claims it surely
    pending += [transfers[j] for j in residual[transferred[residual]].tolist()]

    # retention needs only labels and existence; then the kept rows are
    # resampled into the next block, and the recycled ones for the intensity
    kept, _ = split_by_retention(pending, thresholds.gamma_leg, k)
    updated, recycled = _resampled(pending, kept, settings.track_particles, rng)
    unclaimed = np.zeros(len(frame), dtype=bool)
    unclaimed[residual[~transferred[residual]]] = True
    phd = update_phd(recycled, new_beta[unclaimed], _rows_of(new_cells, unclaimed),
                     predicted_phd, phd_pd, settings.phd_particles, rng)
    return FilterState.from_block(updated, phd, k)
