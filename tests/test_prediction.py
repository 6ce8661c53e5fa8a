import numpy as np
import pytest
from dataclasses import dataclass

from lmbp.models import MotionModel
from lmbp.prediction import predict_phd, predict_track, predict_tracks
from lmbp.rfs import BernoulliTrack, Label, ParticleSet, PoissonPhd, TrackBlock

from helpers import per_track_prediction


@dataclass(frozen=True)
class PositionGatedSurvival(MotionModel):
    """Survival 1.0 for x1 <= 0, and 0.5 beyond (test double)."""

    def survival_prob(self, states):
        states = np.asarray(states, dtype=float)
        return np.where(states[..., 0] <= 0.0, 1.0, 0.5)


def track_of(states, weights, r=0.8, label=Label(1, 1)):
    return BernoulliTrack(label, r, ParticleSet(np.asarray(states, float),
                                                np.asarray(weights, float)))


class TestPredictTrack:
    def test_constant_survival_scales_existence(self):
        model = MotionModel(sigma_u=0.0, p_survival=0.99)
        track = track_of([[0, 0, 0, 0]], [1.0], r=0.8)
        out = predict_track(track, model, np.random.default_rng(0))
        assert out.existence == pytest.approx(0.792, abs=1e-15)

    def test_unit_survival_is_identity_on_weights(self):
        model = MotionModel(sigma_u=0.0, p_survival=1.0)
        track = track_of([[1, 2, 3, 4], [5, 6, 7, 8]], [0.25, 0.75], r=0.6)
        out = predict_track(track, model, np.random.default_rng(0))
        assert out.existence == pytest.approx(0.6)
        np.testing.assert_allclose(out.pdf.weights, [0.25, 0.75])

    def test_state_dependent_survival_hand_values(self):
        # two particles, w = (0.5, 0.5), pS = (1.0, 0.5), r = 1:
        # r' = 0.75, reweighted pdf = (2/3, 1/3)
        model = PositionGatedSurvival(sigma_u=0.0)
        track = track_of([[-1, 0, 0, 0], [1, 0, 0, 0]], [0.5, 0.5], r=1.0)
        out = predict_track(track, model, np.random.default_rng(0))
        assert out.existence == pytest.approx(0.75, abs=1e-15)
        np.testing.assert_allclose(out.pdf.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_label_is_preserved(self):
        model = MotionModel()
        track = track_of([[0, 0, 1, 1]], [1.0], label=Label(3, 7))
        out = predict_track(track, model, np.random.default_rng(0))
        assert out.label == Label(3, 7)

    def test_annihilated_track_raises(self):
        @dataclass(frozen=True)
        class NoSurvival(MotionModel):
            def survival_prob(self, states):
                return np.zeros(np.asarray(states).shape[:-1])

        track = track_of([[0, 0, 0, 0]], [1.0])
        with pytest.raises(ValueError, match="track annihilated"):
            predict_track(track, NoSurvival(), np.random.default_rng(0))

    def test_existence_never_grows_when_survival_below_one(self):
        rng = np.random.default_rng(5)
        model = MotionModel(p_survival=0.97)
        for _ in range(20):
            n = rng.integers(1, 30)
            weights = rng.random(n)
            track = track_of(rng.normal(size=(n, 4)), weights / weights.sum(),
                             r=float(rng.random()))
            out = predict_track(track, model, rng)
            assert out.existence <= track.existence + 1e-15


@dataclass(frozen=True)
class FarOutDies(MotionModel):
    """Survival 0 beyond x1 = 1e4, 0.9 beyond x1 = 0 and 1 elsewhere."""

    def survival_prob(self, states):
        x1 = np.asarray(states, dtype=float)[..., 0]
        return np.where(x1 > 1e4, 0.0, np.where(x1 > 0.0, 0.9, 1.0))


class TestPredictTracks:
    def test_block_matches_per_track_prediction(self):
        # interleaved particle counts and one annihilated track: the block has
        # the survivors' per-track existence and weights, the states that
        # `predict_track` draws track by track in row order from one
        # generator, and the generator ends where those calls leave it
        rng = np.random.default_rng(21)
        tracks = []
        for i, n in enumerate((1000, 3, 1000, 50, 3, 1000, 50)):
            states = rng.normal(0.0, 50.0, (n, 4))
            if i == 3:
                states[:, 0] += 2e4
            weights = rng.random(n)
            tracks.append(track_of(states, weights / weights.sum(), r=float(rng.random()),
                                   label=Label(1, i + 1)))
        model = FarOutDies(sigma_u=0.3)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        block = predict_tracks(TrackBlock.of(tracks), model, a)
        expected = per_track_prediction(tracks, model, np.random.default_rng(0))
        moved = [predict_track(track, model, b) for track in tracks if track.label != Label(1, 4)]
        assert a.random() == b.random()
        assert block.labels == tuple(label for label, _, _, _ in expected)
        assert Label(1, 4) not in block.labels
        assert block.existence.tolist() == [r for _, r, _, _ in expected]
        for (states, weights), one, (_, _, _, ref_weights) in zip(block.rows(), moved, expected):
            assert np.array_equal(states, one.pdf.states) and np.array_equal(weights, ref_weights)
        assert np.diff(block.offsets).tolist() == [1000, 3, 1000, 3, 1000, 50]

    def test_one_group_draws_its_noise_in_one_call(self):
        # a dead row inside a block of one length: the survivors still draw
        # in one `standard_normal` call, the bits of one call per track
        class CountingRng:
            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def standard_normal(self, *args):
                self.calls += 1
                return self.rng.standard_normal(*args)

        rng = np.random.default_rng(22)
        tracks = []
        for i in range(6):
            states = rng.normal(0.0, 50.0, (64, 4))
            if i == 2:
                states[:, 0] += 2e4
            tracks.append(track_of(states, np.full(64, 1 / 64), label=Label(1, i + 1)))
        model = FarOutDies(sigma_u=0.3)
        a, b = CountingRng(9), np.random.default_rng(9)
        block = predict_tracks(TrackBlock.of(tracks), model, a)
        expected = per_track_prediction(tracks, model, b)
        assert a.calls == 1 and a.rng.random() == b.random()
        assert block.labels == tuple(label for label, _, _, _ in expected)
        assert np.diff(block.offsets).tolist() == [64] * 5
        for (states, weights), (_, _, ref_states, ref_weights) in zip(block.rows(), expected):
            assert np.array_equal(states, ref_states) and np.array_equal(weights, ref_weights)
        # three lengths, every 16-particle row dead: still one call, in row order
        tracks = []
        for i, n in enumerate((64, 8, 16, 64, 16, 8)):
            states = rng.normal(0.0, 50.0, (n, 4))
            if n == 16:
                states[:, 0] += 2e4
            tracks.append(track_of(states, np.full(n, 1 / n), label=Label(2, i + 1)))
        a, b = CountingRng(10), np.random.default_rng(10)
        block = predict_tracks(TrackBlock.of(tracks), model, a)
        expected = per_track_prediction(tracks, model, b)
        assert a.calls == 1 and a.rng.random() == b.random()
        assert np.diff(block.offsets).tolist() == [64, 8, 64, 8]
        for (states, weights), (_, _, ref_states, ref_weights) in zip(block.rows(), expected):
            assert np.array_equal(states, ref_states) and np.array_equal(weights, ref_weights)

    def test_survival_outside_unit_interval_raises(self):
        # both predictions check survival; 1.5 would grow the intensity's mass by half
        @dataclass(frozen=True)
        class FixedSurvival(MotionModel):
            survival: float = 0.0

            def survival_prob(self, states):
                return np.full(np.asarray(states).shape[:-1], self.survival)

        for survival in (np.nan, 1.5, -0.1):
            motion = FixedSurvival(survival=survival)
            with pytest.raises(ValueError, match="survival"):
                predict_tracks(TrackBlock.of([track_of([[0, 0, 0, 0]], [1.0])]), motion,
                               np.random.default_rng(0))
            with pytest.raises(ValueError, match="survival"):
                predict_phd(phd_of([[0, 0, 0, 0]], [1.0]), PoissonPhd.empty(), motion,
                            np.random.default_rng(0))


def phd_of(states, weights):
    return PoissonPhd(ParticleSet(np.asarray(states, float), np.asarray(weights, float)))


class TestPredictPhd:
    def test_pure_birth(self):
        birth = phd_of([[0, 0, 0, 0]], [0.1])
        out = predict_phd(PoissonPhd.empty(), birth, MotionModel(), np.random.default_rng(0))
        assert out.mean == pytest.approx(0.1)

    def test_unit_survival_preserves_mass(self):
        model = MotionModel(sigma_u=0.0, p_survival=1.0)
        phd = phd_of(np.random.default_rng(1).normal(size=(50, 4)), np.full(50, 0.01))
        out = predict_phd(phd, PoissonPhd.empty(), model, np.random.default_rng(0))
        assert out.mean == pytest.approx(0.5, abs=1e-12)

    def test_mass_is_linear(self):
        model = MotionModel(p_survival=0.99)
        phd = phd_of([[0, 0, 0, 0], [1, 1, 0, 0]], [0.3, 0.2])
        birth = phd_of([[5, 5, 0, 0]], [0.1])
        out = predict_phd(phd, birth, model, np.random.default_rng(0))
        assert out.mean == pytest.approx(0.595, abs=1e-12)

    def test_mass_identity_with_state_dependent_survival(self):
        model = PositionGatedSurvival()
        rng = np.random.default_rng(2)
        states = rng.normal(size=(100, 4))
        weights = rng.random(100)
        phd = phd_of(states, weights)
        birth = phd_of(rng.normal(size=(10, 4)), np.full(10, 0.01))
        out = predict_phd(phd, birth, model, rng)
        expected = 0.1 + float(np.sum(weights * model.survival_prob(states)))
        assert out.mean == pytest.approx(expected, abs=1e-9)

    def test_no_resampling_at_prediction(self):
        # particle count grows by the birth budget; reduction is the updater's job
        phd = phd_of(np.zeros((7, 4)), np.full(7, 0.1))
        birth = phd_of(np.zeros((5, 4)), np.full(5, 0.02))
        out = predict_phd(phd, birth, MotionModel(), np.random.default_rng(0))
        assert len(out.particles) == 12
