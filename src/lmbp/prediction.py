"""Prediction step: survival-weighted track prediction and intensity prediction."""

from __future__ import annotations

import numpy as np

from .models import MotionModel
from .rfs import BernoulliTrack, ParticleSet, PoissonPhd, TrackBlock


def _survival(motion: MotionModel, states: np.ndarray) -> np.ndarray:
    """The survival probability of each state; ValueError outside [0, 1] or NaN."""
    ps = motion.survival_prob(states)
    if len(ps) and not (0.0 <= ps.min() and ps.max() <= 1.0):
        raise ValueError("survival probability outside [0, 1]")
    return ps


def predict_tracks(block: TrackBlock, motion: MotionModel,
                   rng: np.random.Generator) -> TrackBlock:
    """Predict a block of labeled Bernoulli components, group by group.

    Each existence probability is multiplied by the expected survival
    probability under its pdf; the pdf particles are reweighted by survival,
    renormalized, and advanced through the transition kernel. Labels never
    change. A group takes one survival call, one product, one row sum, one
    divide and one transition: its survivors draw their noise in one
    `rng.standard_normal` call, group after group in block order. A track
    whose survival mass vanishes is dropped and draws no noise; the
    survivors keep their row order.
    """
    totals = np.zeros(len(block.labels))
    groups = []
    for rows, states, weights in block.groups:
        weights = weights * _survival(motion, states)
        mass = weights.sum(axis=1)
        keep = mass > 0.0
        if not keep.all():
            rows, states, weights, mass = rows[keep], states[keep], weights[keep], mass[keep]
        if len(rows):
            weights /= mass[:, None]
            totals[rows] = mass
            groups.append((rows, motion.transition_sample(states, rng), weights))
    alive = totals > 0.0
    renumber = np.cumsum(alive) - 1
    return TrackBlock(tuple(label for label, kept in zip(block.labels, alive) if kept),
                      np.minimum(block.existence[alive] * totals[alive], 1.0),
                      tuple((renumber[rows], states, weights) for rows, states, weights in groups))


def predict_track(track: BernoulliTrack, motion: MotionModel,
                  rng: np.random.Generator) -> BernoulliTrack:
    """Predict one labeled Bernoulli component: a one-row `predict_tracks`.
    Raises ValueError when no particle survives."""
    block = predict_tracks(TrackBlock.of([track]), motion, rng)
    if not block.labels:
        raise ValueError("track annihilated")
    return block.tracks()[0]


def predict_phd(phd: PoissonPhd, birth: PoissonPhd, motion: MotionModel,
                rng: np.random.Generator) -> PoissonPhd:
    """Predict the unlabeled intensity: survive + move, then append birth particles.

    Output mass equals birth mass + sum of survival-weighted input weights.
    A survival probability outside [0, 1], or NaN, raises ValueError.
    Particle count grows; reduction happens once per step, after the update.
    """
    survived = phd.particles
    weights = survived.weights * _survival(motion, survived.states)
    states = motion.transition_sample(survived.states, rng)
    states = np.concatenate([states, birth.particles.states])
    weights = np.concatenate([weights, birth.particles.weights])
    return PoissonPhd(ParticleSet(states, weights))
