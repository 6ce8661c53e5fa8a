"""Two-stage approximate update: transfer selection, marginalized track update,
recycling, intensity update, and the full per-step recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import (
    Cluster,
    Hypothesis,
    bp_marginals,
    detection_hypotheses,
    enumeration_size,
    exact_marginals,
    miss_hypothesis,
    new_components,
    partition,
)
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


def select_transfers(components: Mapping[int, Hypothesis], gamma_tr: float,
                     time: int) -> tuple[dict[Label, Hypothesis], tuple[int, ...]]:
    """Split measurement components into transferred labels and the rest.

    Every index m whose component has existence >= gamma_tr (inclusive)
    becomes a labeled Bernoulli with label (time, m); the remaining indices
    are returned for the caller to absorb or prune.
    """
    transfers = {}
    remaining = []
    for m in sorted(components):
        if components[m].existence >= gamma_tr:
            transfers[Label(time, m)] = components[m]
        else:
            remaining.append(m)
    return transfers, tuple(remaining)


def _mix_particles(parts: list[tuple[float, ParticleSet]]) -> ParticleSet:
    states = np.concatenate([p.states for _, p in parts])
    weights = np.concatenate([p.weights * (w / p.total_weight) for w, p in parts])
    return ParticleSet(states, weights)


def update_legacy_track(label: Label, marginal: Mapping[int, float], miss: Hypothesis,
                        detections: Mapping[int, Hypothesis], particle_budget: int,
                        rng: np.random.Generator) -> BernoulliTrack:
    """Marginalized update of a legacy track.

    r = sum_a p(a) r(l,a); the pdf is the r(l,a)-weighted mixture of the
    per-hypothesis pdfs, realized by merging particle sets and resampling to
    the track budget. A track whose mixture mass vanishes comes back with
    r = 0 (the caller recycles it).
    """
    r = marginal.get(0, 0.0) * miss.existence
    parts = []
    if r > 0.0:
        parts.append((r, miss.pdf))
    for m, hyp in detections.items():
        p = marginal.get(m, 0.0) * hyp.existence
        if p > 0.0 and len(hyp.pdf):
            parts.append((p, hyp.pdf))
            r += p
    if r <= 0.0 or not parts:
        return BernoulliTrack(label, 0.0, ParticleSet.empty())
    mixture = _mix_particles([(w / r, pdf) for w, pdf in parts])
    return BernoulliTrack(label, min(r, 1.0), resample(mixture, particle_budget, rng))


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


def update_phd(recycled: Sequence[BernoulliTrack], untransferred: Sequence[Hypothesis],
               predicted_phd: PoissonPhd, sensor, particle_budget: int,
               rng: np.random.Generator) -> PoissonPhd:
    """Posterior intensity: recycled tracks + unclaimed residual components +
    undetected predicted intensity, reduced to the intensity budget.

    Total mass is r-sum + existence-sum + sum((1 - pD) w), preserved through
    the reduction.
    """
    parts: list[tuple[float, ParticleSet]] = []
    for track in recycled:
        if track.existence > 0.0 and len(track.pdf):
            parts.append((track.existence, track.pdf))
    for comp in untransferred:
        if comp.existence > 0.0 and len(comp.pdf):
            parts.append((comp.existence, comp.pdf))
    survivors = predicted_phd.particles
    if len(survivors):
        weights = survivors.weights * (1.0 - sensor.detection_prob(survivors.states))
        undetected = float(weights.sum())
        if undetected > 0.0:
            parts.append((undetected, ParticleSet(survivors.states, weights / undetected)))
    if not parts:
        return PoissonPhd.empty()
    union = _mix_particles(parts)
    return PoissonPhd(resample(union, particle_budget, rng))


def _marginalize(cluster: Cluster, settings: FilterSettings):
    if settings.marginals == "exact":
        degrees = len(cluster.legacy_labels) * len(cluster.meas_indices)
        if degrees <= EXACT_DEGREE_LIMIT and enumeration_size(cluster) <= EXACT_SIZE_LIMIT:
            return exact_marginals(cluster)
    return bp_marginals(cluster, settings.bp_iterations)


def lmbp_step(state: FilterState, frame: Sequence[Measurement], models: Models,
              thresholds: Thresholds, rng: np.random.Generator,
              prev_frame: Sequence[Measurement] = (),
              settings: FilterSettings = FilterSettings()) -> FilterState:
    """One full recursion step: predict, associate, update, transfer, recycle.

    `prev_frame` feeds the measurement-driven birth proposal (empty on the
    first step). Estimation is separate; see `lmbp.estimation`.
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
    # tables is predicted[i], column m - 1 is measurement m
    misses = [miss_hypothesis(track, models.sensor) for track in predicted]
    detections = [detection_hypotheses(track, frame, models.sensor) for track in predicted]
    components = new_components(predicted_phd, frame, models.sensor, models.clutter)
    miss_beta = np.array([hyp.beta for hyp in misses])
    betas = np.array([[hyp.beta for hyp in hyps] for hyps in detections]
                     ).reshape(len(predicted), len(frame))
    new_beta = np.array([comp.beta for comp in components])

    labels = [t.label for t in predicted]
    row_of = {lab: i for i, lab in enumerate(labels)}
    clusters, residual = partition(labels, betas, len(frame), thresholds.gamma_c)
    transfers, untransferred = select_transfers(dict(enumerate(components, start=1)),
                                                thresholds.gamma_tr, k)

    updated: list[BernoulliTrack] = []
    for cluster_labels, meas_indices in clusters:
        rows = [row_of[lab] for lab in cluster_labels]
        cols = [m - 1 for m in meas_indices]
        problem = Cluster(cluster_labels,
                          tuple(lab for lab in transfers if lab.index in meas_indices),
                          meas_indices, miss_beta[rows], betas[np.ix_(rows, cols)],
                          new_beta[cols])
        marginal = _marginalize(problem, settings)
        for lab, i in zip(cluster_labels, rows):
            updated.append(update_legacy_track(
                lab, marginal.legacy[lab], misses[i],
                {m: detections[i][m - 1] for m in meas_indices},
                settings.track_particles, rng))
        for lab in problem.transfer_labels:
            updated.append(update_transferred_track(
                lab, marginal.transfer[lab][1], transfers[lab],
                settings.track_particles, rng))

    # a residual measurement competes with no track, so its transfer claims it surely
    for lab, comp in transfers.items():
        if lab.index in residual:
            updated.append(update_transferred_track(lab, 1.0, comp,
                                                    settings.track_particles, rng))

    kept, recycled = split_by_retention(updated, thresholds.gamma_leg, k)
    unclaimed = [components[m - 1] for m in untransferred if m in residual]
    phd = update_phd(recycled, unclaimed, predicted_phd, models.sensor,
                     settings.phd_particles, rng)
    kept.sort(key=lambda t: t.label)
    return FilterState(tuple(kept), phd, k)
