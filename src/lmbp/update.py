"""Two-stage approximate update: transfer selection, marginalized track update,
recycling, intensity update, and the full per-step recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import (
    Cells,
    Cluster,
    Hypothesis,
    bp_marginals,
    enumeration_size,
    exact_marginals,
    new_components,
    partition,
    track_evidence,
)
# perfbench's tracer wraps these two names here; they stay until ROADMAP item 1
from .association import detection_hypotheses, miss_hypothesis  # noqa: F401
from .models import Models
from .rfs import (
    BernoulliTrack,
    FilterState,
    Label,
    Measurement,
    ParticleSet,
    PoissonPhd,
    resample,
)
from .prediction import TrackAnnihilated, predict_phd, predict_track

# exact enumeration is honored only below these bounds; bigger clusters use BP
EXACT_DEGREE_LIMIT = 20
EXACT_SIZE_LIMIT = 1e5


@dataclass(frozen=True)
class Thresholds:
    """The four decision thresholds of the recursion."""

    gamma_c: float = 1e-10    # clustering: plausibility cutoff on detection weights
    gamma_tr: float = 1e-2    # transfer unlabeled -> labeled (inclusive)
    gamma_leg: float = 1e-2   # keep legacy track in labeled part (inclusive)
    gamma_d: float = 0.5      # declare object detected (exclusive)

    def __post_init__(self):
        if self.gamma_c < 0:
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


def select_transfers(beta: np.ndarray, mass: np.ndarray, cells: Cells,
                     states: np.ndarray, gamma_tr: float,
                     time: int) -> tuple[dict[Label, Hypothesis], tuple[int, ...]]:
    """Split the measurements' new components into transferred labels and the rest.

    `beta`, `mass` and `cells` come from `new_components` over the intensity
    particles `states`. Every measurement m whose component has existence
    mass[m-1] / beta[m-1] >= gamma_tr (inclusive) becomes a labeled
    Bernoulli with label (time, m); only these get a particle set, with
    weights row / d from the cells of row m-1. The remaining indices are
    returned for the caller to absorb or prune.
    """
    row, col, value = cells
    bounds = np.searchsorted(row, np.arange(len(beta) + 1)).tolist()
    transfers = {}
    remaining = []
    for m, (b, d) in enumerate(zip(beta, mass), start=1):
        if d / b >= gamma_tr:
            run = slice(bounds[m - 1], bounds[m])
            weights = np.zeros(len(states))
            weights[col[run]] = value[run] / d
            pdf = ParticleSet(states, weights)
            transfers[Label(time, m)] = Hypothesis(float(b), float(d / b), pdf)
        else:
            remaining.append(m)
    return transfers, tuple(remaining)


def update_legacy_track(label: Label, marginal: Mapping[int, float], miss: Hypothesis,
                        detections: Mapping[int, Hypothesis], particle_budget: int,
                        rng: np.random.Generator) -> BernoulliTrack:
    """Marginalized update of a legacy track.

    r = sum_a p(a) r(l,a); the pdf is the r(l,a)-weighted mixture of the
    per-hypothesis pdfs. Precondition: every hypothesis pdf reweights the
    same particles, those of the predicted track (as `TrackEvidence.miss`
    and `TrackEvidence.detection` build them), so the mixture is one weight
    vector over them, resampled to the track budget; a pdf on other
    particles raises ValueError. A track whose mixture mass vanishes comes back with
    r = 0 (the caller recycles it).
    """
    parts = [(marginal.get(0, 0.0) * miss.existence, miss.pdf)]
    parts += [(marginal.get(m, 0.0) * hyp.existence, hyp.pdf)
              for m, hyp in detections.items()]
    parts = [(p, pdf) for p, pdf in parts if p > 0.0 and len(pdf)]
    r = sum(p for p, _ in parts)
    if r <= 0.0:
        return BernoulliTrack(label, 0.0, ParticleSet.empty())
    support = parts[0][1].states
    weights = np.zeros(len(support))
    for p, pdf in parts:
        if not np.array_equal(pdf.states, support):
            raise ValueError("hypothesis pdfs do not share the predicted track's particles")
        weights += (p / r) * pdf.weights
    return BernoulliTrack(label, min(r, 1.0),
                          resample(ParticleSet(support, weights), particle_budget, rng))


def update_transferred_track(label: Label, p_claim: float, component: Hypothesis,
                             particle_budget: int,
                             rng: np.random.Generator) -> BernoulliTrack:
    """Update of a freshly transferred track: r = p(claim) * existence, pdf kept."""
    r = p_claim * component.existence
    if len(component.pdf) == 0:
        return BernoulliTrack(label, 0.0, ParticleSet.empty())
    return BernoulliTrack(label, r, resample(component.pdf, particle_budget, rng))


def split_by_retention(tracks: Sequence[BernoulliTrack], gamma_leg: float,
                       time: int) -> tuple[list[BernoulliTrack], list[BernoulliTrack]]:
    """Keep likely tracks; recycle unlikely legacy ones.

    Tracks transferred this step (birth_time == time) are always kept;
    legacy tracks are kept iff r >= gamma_leg (inclusive).
    """
    kept, recycled = [], []
    for track in tracks:
        if track.label.birth_time == time or track.existence >= gamma_leg:
            kept.append(track)
        else:
            recycled.append(track)
    return kept, recycled


def update_phd(recycled: Sequence[BernoulliTrack], beta: np.ndarray, cells: Cells,
               predicted_phd: PoissonPhd, pd: np.ndarray, particle_budget: int,
               rng: np.random.Generator) -> PoissonPhd:
    """Posterior intensity: undetected predicted intensity + unclaimed
    components + recycled tracks, reduced to the intensity budget.

    `beta` (K,) and `cells` (rows 0..K-1) are the `new_components` output of
    the K unclaimed measurements, and `pd` is the detection probability of
    each predicted intensity particle. The predicted particles are reweighted
    by (1 - pD) w + sum_k row_k / beta[k] (the SMC-PHD update), the recycled
    tracks' particles are appended with weights r * pdf, and the union is
    resampled once. Total mass is sum((1 - pD) w) + sum_k d_k / beta_k +
    r-sum, preserved through the reduction.
    """
    survivors = predicted_phd.particles
    row, col, value = cells
    # bincount adds each particle's terms in cell order, ascending k, as the
    # dense sum over k does
    weights = [survivors.weights * (1.0 - pd)
               + np.bincount(col, (1.0 / beta)[row] * value, minlength=len(survivors))]
    states = [survivors.states]
    for track in recycled:
        weights.append(track.existence * track.pdf.weights)
        states.append(track.pdf.states)
    union = ParticleSet(np.concatenate(states), np.concatenate(weights))
    if union.total_weight <= 0.0:
        return PoissonPhd.empty()
    return PoissonPhd(resample(union, particle_budget, rng))


def _rows_of(cells: Cells, keep: np.ndarray) -> Cells:
    """The cells in the rows where `keep` (M,) is True, the rows renumbered
    to count the kept rows only; row order is preserved."""
    row, col, value = cells
    inside = keep[row]
    return (np.cumsum(keep) - 1)[row[inside]], col[inside], value[inside]


def _marginalize(cluster: Cluster, settings: FilterSettings):
    if settings.marginals == "exact":
        if (cluster.det_beta.size <= EXACT_DEGREE_LIMIT
                and enumeration_size(cluster) <= EXACT_SIZE_LIMIT):
            return exact_marginals(cluster)
    return bp_marginals(cluster, settings.bp_iterations)


def lmbp_step(state: FilterState, frame: Sequence[Measurement], models: Models,
              thresholds: Thresholds, rng: np.random.Generator,
              prev_frame: Sequence[Measurement] = (),
              settings: FilterSettings = FilterSettings()) -> FilterState:
    """One full recursion step: predict, associate, update, transfer, recycle.

    `prev_frame` feeds the measurement-driven birth proposal (empty on the
    first step). A measurement that neither clutter nor the intensity can
    explain (beta = 0, e.g. beyond the sensor disk) is dropped before
    association, and label indices count positions in the kept frame.
    Estimation is separate; see `lmbp.estimation`.
    """
    k = state.time + 1

    # prediction; tracks whose survival mass vanishes are dropped
    predicted = []
    for track in state.tracks:
        try:
            predicted.append(predict_track(track, models.motion, rng))
        except TrackAnnihilated:
            continue
    birth = models.birth.sample_phd(prev_frame, models.motion, models.sensor, rng)
    predicted_phd = predict_phd(state.phd, birth, models.motion, rng)

    # association weights for every track/measurement pairing; row i of the
    # tables is predicted[i], column j is frame[j]
    phd_pd = models.sensor.detection_prob(predicted_phd.particles.states)
    new_beta, new_mass, new_cells = new_components(predicted_phd, phd_pd, frame,
                                                   models.sensor, models.clutter)
    supported = new_beta > 0.0
    if not supported.all():
        frame = [z for z, keep in zip(frame, supported) if keep]
        new_beta, new_mass = new_beta[supported], new_mass[supported]
        new_cells = _rows_of(new_cells, supported)
    evidence = track_evidence(predicted, frame, models.sensor)

    clusters, residual = partition(evidence.betas, thresholds.gamma_c)
    transfers, untransferred = select_transfers(new_beta, new_mass, new_cells,
                                                predicted_phd.particles.states,
                                                thresholds.gamma_tr, k)
    transferred = np.ones(len(frame), dtype=bool)
    transferred[[m - 1 for m in untransferred]] = False

    updated: list[BernoulliTrack] = []
    for rows, cols in clusters:
        problem = Cluster(evidence.miss_beta[rows], evidence.betas[np.ix_(rows, cols)],
                          new_beta[cols], transferred[cols])
        marginal = _marginalize(problem, settings)
        keys = [0] + (cols + 1).tolist()
        for i, pmf in zip(rows.tolist(), marginal.legacy.tolist()):
            # a detection pdf is built only where the marginal puts mass
            updated.append(update_legacy_track(
                predicted[i].label, dict(zip(keys, pmf)), evidence.miss(i),
                {m: evidence.detection(i, m) for m, p in zip(keys[1:], pmf[1:]) if p > 0.0},
                settings.track_particles, rng))
        claim = marginal.claim.tolist()
        for j in np.flatnonzero(problem.transferred).tolist():
            label = Label(k, keys[1 + j])
            updated.append(update_transferred_track(label, claim[j], transfers[label],
                                                    settings.track_particles, rng))

    # a residual measurement competes with no track, so its transfer claims it surely
    for j in residual[transferred[residual]].tolist():
        label = Label(k, j + 1)
        updated.append(update_transferred_track(label, 1.0, transfers[label],
                                                settings.track_particles, rng))

    kept, recycled = split_by_retention(updated, thresholds.gamma_leg, k)
    unclaimed = np.zeros(len(frame), dtype=bool)
    unclaimed[residual[~transferred[residual]]] = True
    phd = update_phd(recycled, new_beta[unclaimed], _rows_of(new_cells, unclaimed),
                     predicted_phd, phd_pd, settings.phd_particles, rng)
    kept.sort(key=lambda t: t.label)
    return FilterState(tuple(kept), phd, k)
