"""Prediction step: survival-weighted track prediction and intensity prediction."""

from __future__ import annotations

import numpy as np

from .models import MotionModel
from .rfs import BernoulliTrack, ParticleSet, PoissonPhd


class TrackAnnihilated(ValueError):
    """The track's survival mass is zero: it cannot exist at the next step."""


def predict_track(track: BernoulliTrack, motion: MotionModel,
                  rng: np.random.Generator) -> BernoulliTrack:
    """Predict one labeled Bernoulli component.

    The existence probability is multiplied by the expected survival
    probability under the track pdf; the pdf particles are reweighted by
    survival, renormalized, and advanced through the transition kernel.
    The label never changes. Raises `TrackAnnihilated` when no particle
    survives.
    """
    ps = motion.survival_prob(track.pdf.states)
    weights = track.pdf.weights * ps
    total = float(weights.sum())
    if total <= 0.0:
        raise TrackAnnihilated("track annihilated")
    new_states = motion.transition_sample(track.pdf.states, rng)
    return BernoulliTrack(track.label, track.existence * total,
                          ParticleSet(new_states, weights / total))


def predict_phd(phd: PoissonPhd, birth: PoissonPhd, motion: MotionModel,
                rng: np.random.Generator) -> PoissonPhd:
    """Predict the unlabeled intensity: survive + move, then append birth particles.

    Output mass equals birth mass + sum of survival-weighted input weights.
    Particle count grows; reduction happens once per step, after the update.
    """
    survived = phd.particles
    if len(survived):
        ps = motion.survival_prob(survived.states)
        states = motion.transition_sample(survived.states, rng)
        weights = survived.weights * ps
        states = np.concatenate([states, birth.particles.states])
        weights = np.concatenate([weights, birth.particles.weights])
    else:
        states = birth.particles.states
        weights = birth.particles.weights
    return PoissonPhd(ParticleSet(states, weights))
