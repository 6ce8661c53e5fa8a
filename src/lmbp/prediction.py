"""Prediction step: survival-weighted track prediction and intensity prediction."""

from __future__ import annotations

import numpy as np

from .models import MotionModel
from .rfs import BernoulliTrack, ParticleSet, PoissonPhd, TrackBlock, row_reduce


def _survival(motion: MotionModel, states: np.ndarray) -> np.ndarray:
    """The survival probability of each state; ValueError outside [0, 1] or NaN."""
    ps = motion.survival_prob(states)
    if len(ps) and not (0.0 <= ps.min() and ps.max() <= 1.0):
        raise ValueError("survival probability outside [0, 1]")
    return ps


def predict_tracks(block: TrackBlock, motion: MotionModel,
                   rng: np.random.Generator) -> TrackBlock:
    """Predict a block of labeled Bernoulli components in one pass.

    Each existence probability is multiplied by the expected survival
    probability under its pdf; the pdf particles are reweighted by survival,
    renormalized, and advanced through the transition kernel. Labels never
    change. The block takes one survival call, one product, one `row_reduce`,
    one divide and one transition: its survivors draw their noise in one
    `rng.standard_normal` call, in row order, as `predict_track` would
    draw it track by track. A track whose survival mass vanishes is dropped
    and draws no noise; the survivors keep their row order.
    """
    weights = block.weights * _survival(motion, block.states)
    mass = row_reduce(np.add, weights, block.offsets)
    alive = mass > 0.0
    offsets, states = block.offsets, block.states
    if not alive.all():
        counts = np.diff(offsets)
        keep = alive.repeat(counts)
        offsets = np.concatenate(([0], counts[alive].cumsum()))
        states, weights, mass = states[keep], weights[keep], mass[alive]
    weights /= mass.repeat(np.diff(offsets))
    return TrackBlock(tuple(label for label, kept in zip(block.labels, alive) if kept),
                      np.minimum(block.existence[alive] * mass, 1.0), offsets,
                      motion.transition_sample(states, rng), weights)


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
