"""Prediction step: survival-weighted track prediction and intensity prediction."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .models import MotionModel
from .rfs import BernoulliTrack, ParticleSet, PoissonPhd, TrackBlock


def _survival(motion: MotionModel, states: np.ndarray) -> np.ndarray:
    """The survival probability of each state; ValueError outside [0, 1] or NaN."""
    ps = motion.survival_prob(states)
    if len(ps) and not (0.0 <= ps.min() and ps.max() <= 1.0):
        raise ValueError("survival probability outside [0, 1]")
    return ps


def predict_tracks(tracks: Sequence[BernoulliTrack], motion: MotionModel,
                   rng: np.random.Generator) -> TrackBlock:
    """Predict labeled Bernoulli components as one block.

    Each existence probability is multiplied by the expected survival
    probability under its pdf; the pdf particles are reweighted by survival,
    renormalized, and advanced through the transition kernel. Labels never
    change. A track whose survival mass vanishes is dropped and draws no
    noise; the survivors draw theirs in track order, and their rows keep
    that order. Each track is moved on its own, straight into its group's
    rows: the temporaries stay the size of one track, which keeps them in
    cache and off fresh pages.
    """
    weights, totals = [], []
    for track in tracks:
        weights.append(track.pdf.weights * _survival(motion, track.pdf.states))
        totals.append(float(weights[-1].sum()))
    survivors = [i for i, total in enumerate(totals) if total > 0.0]
    block = TrackBlock.empty([tracks[i].label for i in survivors],
                             [min(tracks[i].existence * totals[i], 1.0) for i in survivors],
                             [len(tracks[i].pdf) for i in survivors])
    for (states, w), i in zip(block.rows(), survivors):
        np.divide(weights[i], totals[i], out=w)
        states[:] = motion.transition_sample(tracks[i].pdf.states, rng)
    return block


def predict_track(track: BernoulliTrack, motion: MotionModel,
                  rng: np.random.Generator) -> BernoulliTrack:
    """Predict one labeled Bernoulli component: a one-row `predict_tracks`.
    Raises ValueError when no particle survives."""
    block = predict_tracks([track], motion, rng)
    if not block.labels:
        raise ValueError("track annihilated")
    [(states, weights)] = block.rows()
    return BernoulliTrack(track.label, float(block.existence[0]), ParticleSet(states, weights))


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
