"""Prediction step: survival-weighted track prediction and intensity prediction."""

from __future__ import annotations

import itertools
from operator import itemgetter

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
    change. A group takes one survival call, one product, one row sum and
    one divide. A track whose survival mass vanishes is dropped and draws no
    noise; the survivors keep their row order and draw theirs in it, one
    transition per run of consecutive rows in one group: a block whose
    survivors are one group draws all its noise in one `rng.normal` call.
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
            groups.append((rows, states, weights))
    # the survivors in row order, as (row, group, position in the group)
    order = sorted((row, g, at) for g, (rows, _, _) in enumerate(groups)
                   for at, row in enumerate(rows.tolist()))
    moved: list[list[np.ndarray]] = [[] for _ in groups]
    for g, run in itertools.groupby(order, key=itemgetter(1)):
        run = list(run)
        at = run[0][2]
        moved[g].append(motion.transition_sample(groups[g][1][at:at + len(run)], rng))
    survivors = [row for row, _, _ in order]
    renumber = np.cumsum(totals > 0.0) - 1
    return TrackBlock(tuple(block.labels[i] for i in survivors),
                      np.minimum(block.existence[survivors] * totals[survivors], 1.0),
                      tuple((renumber[rows], parts[0] if len(parts) == 1 else np.concatenate(parts),
                             weights) for (rows, _, weights), parts in zip(groups, moved)))


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
