import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmbp.rfs import (
    BernoulliTrack,
    FilterState,
    Label,
    ParticleSet,
    PoissonPhd,
    read_snapshot,
    resample,
    weighted_mean,
    write_snapshot,
)


def make_pset(states, weights):
    return ParticleSet(np.asarray(states, dtype=float), np.asarray(weights, dtype=float))


class TestParticleSet:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            make_pset([[0, 0, 0, 0]], [-0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            make_pset([[0, 0, 0, 0]], [0.5, 0.5])

    def test_total_weight_and_normalization(self):
        pset = make_pset([[0, 0, 0, 0], [1, 1, 0, 0]], [0.2, 0.6])
        assert pset.total_weight == pytest.approx(0.8)
        assert not pset.is_normalized()
        assert make_pset(pset.states, pset.weights / 0.8).is_normalized(tol=1e-15)

    def test_arrays_are_read_only(self):
        pset = make_pset([[0, 0, 0, 0]], [1.0])
        with pytest.raises(ValueError):
            pset.weights[0] = 2.0

    def test_empty_is_one_shared_read_only_set(self):
        empty = ParticleSet.empty()
        assert empty is ParticleSet.empty() and len(empty) == 0
        assert not empty.states.flags.writeable and not empty.weights.flags.writeable


class TestResample:
    def test_single_support_pdf(self):
        pset = make_pset([[3, 4, 0, 0]], [1.0])
        out = resample(pset, 5, np.random.default_rng(0))
        assert len(out) == 5
        np.testing.assert_allclose(out.weights, 0.2)
        np.testing.assert_array_equal(out.states, np.tile([3, 4, 0, 0], (5, 1)))

    def test_weight_sum_preserved_for_intensity(self):
        rng = np.random.default_rng(1)
        pset = make_pset(rng.normal(size=(200, 4)), rng.random(200))
        pset = ParticleSet(pset.states, pset.weights * (0.37 / pset.total_weight))
        out = resample(pset, 5000, np.random.default_rng(2))
        np.testing.assert_allclose(out.weights, 0.37 / 5000)
        assert abs(out.total_weight - 0.37) <= 1e-12

    def test_two_point_counts_within_binomial_bound(self):
        # oracle: direct count of resampled copies; 0.999 binomial band is
        # [450, 550] for n=1000, p=0.5 (systematic is tighter still)
        pset = make_pset([[0, 0, 0, 0], [1, 0, 0, 0]], [0.5, 0.5])
        out = resample(pset, 1000, np.random.default_rng(3))
        count_a = int(np.sum(out.states[:, 0] == 0))
        assert 450 <= count_a <= 550
        assert count_a + int(np.sum(out.states[:, 0] == 1)) == 1000

    def test_zero_weight_errors(self):
        pset = make_pset([[0, 0, 0, 0]], [0.0])
        with pytest.raises(ValueError, match="degenerate particle set"):
            resample(pset, 10, np.random.default_rng(0))

    @settings(max_examples=50, deadline=None)
    @given(total=st.floats(min_value=1e-6, max_value=1e3),
           n=st.integers(min_value=1, max_value=64),
           target=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_total_weight_preserved(self, total, n, target, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(n) + 1e-9
        weights *= total / weights.sum()
        pset = make_pset(rng.normal(size=(n, 4)), weights)
        out = resample(pset, target, rng)
        assert abs(out.total_weight - pset.total_weight) <= 1e-12 * max(1.0, total)


class TestWeightedMean:
    def test_single_particle_identity(self):
        pset = make_pset([[1, 2, 0, 0]], [1.0])
        np.testing.assert_array_equal(weighted_mean(pset), [1, 2, 0, 0])

    def test_symmetric_pair(self):
        pset = make_pset([[0, 0, 0, 0], [2, 2, 0, 0]], [0.5, 0.5])
        np.testing.assert_allclose(weighted_mean(pset), [1, 1, 0, 0])

    def test_monte_carlo_clt_bound(self):
        # oracle: CLT, 4 sigma / sqrt(n) per component
        rng = np.random.default_rng(7)
        mean = np.array([3.0, -1.0, 0.1, 0.0])
        sigma = 1.5
        n = 1000
        samples = rng.normal(mean, sigma, size=(n, 4))
        pset = make_pset(samples, np.full(n, 1.0 / n))
        err = np.abs(weighted_mean(pset) - mean)
        assert np.all(err <= 4.0 * sigma / np.sqrt(n))

    def test_rejects_unnormalized(self):
        pset = make_pset([[0, 0, 0, 0]], [0.5])
        with pytest.raises(ValueError):
            weighted_mean(pset)


class TestTrackAndState:
    def test_track_validation(self):
        pdf = make_pset([[0, 0, 0, 0]], [1.0])
        with pytest.raises(ValueError):
            BernoulliTrack(Label(1, 1), 1.5, pdf)
        with pytest.raises(ValueError):
            BernoulliTrack(Label(1, 1), 0.5, make_pset([[0, 0, 0, 0]], [0.7]))

    def test_label_ordering_is_lexicographic(self):
        labels = [Label(2, 1), Label(1, 2), Label(1, 1)]
        assert sorted(labels) == [Label(1, 1), Label(1, 2), Label(2, 1)]

    def test_state_rejects_duplicate_labels(self):
        pdf = make_pset([[0, 0, 0, 0]], [1.0])
        tracks = (BernoulliTrack(Label(1, 1), 0.5, pdf),
                  BernoulliTrack(Label(1, 1), 0.4, pdf))
        with pytest.raises(ValueError):
            FilterState(tracks, PoissonPhd.empty(), 3)

    def test_state_rejects_future_birth(self):
        pdf = make_pset([[0, 0, 0, 0]], [1.0])
        with pytest.raises(ValueError):
            FilterState((BernoulliTrack(Label(5, 1), 0.5, pdf),), PoissonPhd.empty(), 3)


class TestSnapshot:
    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(11)
        tracks = []
        for i in range(3):
            states = rng.normal(scale=100, size=(4, 4))
            weights = rng.random(4)
            tracks.append(BernoulliTrack(Label(1, i + 1), float(rng.random()),
                                         make_pset(states, weights / weights.sum())))
        phd = PoissonPhd(make_pset(rng.normal(size=(6, 4)), rng.random(6)))
        state = FilterState(tuple(tracks), phd, 4)

        buf = io.StringIO()
        write_snapshot(state, buf)
        back = read_snapshot(io.StringIO(buf.getvalue()))

        assert back.time == state.time
        assert back.labels() == state.labels()
        for a, b in zip(back.tracks, state.tracks):
            assert a.existence == b.existence
            np.testing.assert_array_equal(a.pdf.states, b.pdf.states)
            np.testing.assert_array_equal(a.pdf.weights, b.pdf.weights)
        np.testing.assert_array_equal(back.phd.particles.states, phd.particles.states)
        np.testing.assert_array_equal(back.phd.particles.weights, phd.particles.weights)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            read_snapshot(io.StringIO("not,a,snapshot\n"))
