import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmbp.estimation import detect_and_estimate, write_estimates_csv
from lmbp.rfs import (
    PDF_TOL,
    BernoulliTrack,
    FilterState,
    Label,
    ParticleSet,
    PoissonPhd,
    TrackBlock,
    read_snapshot,
    resample,
    resample_rows,
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
        assert not abs(pset.total_weight - 1.0) <= PDF_TOL
        assert abs(make_pset(pset.states, pset.weights / 0.8).total_weight - 1.0) <= 1e-15

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

    def test_nonpositive_count_errors(self):
        pset = make_pset([[0, 0, 0, 0]], [1.0])
        with pytest.raises(ValueError, match="target_count must be positive"):
            resample(pset, 0, np.random.default_rng(0))

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


class NearOne:
    """Generator stand-in whose every uniform is the largest float below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def classic_resample(weights, states, count, u):
    """Systematic resampling of one set, the reference for `resample_rows`:
    the running sum's last entry as the total, positions (u + i) total /
    count, indices capped at the last positive weight."""
    last = int(np.flatnonzero(weights > 0.0)[-1])
    cum = np.cumsum(weights)
    total = cum[-1]
    idx = np.minimum(np.searchsorted(cum, (u + np.arange(count)) * (total / count),
                                     side="right"), last)
    return states[idx]


class TestResampleRows:
    def test_trailing_zero_weight_is_never_drawn(self):
        # the running sum of the positive weights can fall below their pairwise
        # total; a resample that took that total let a uniform next to 1 land
        # in the gap, on the trailing zero-weight particle
        gaps = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            weights = np.append(rng.random(20), 0.0)
            gaps += bool(np.cumsum(weights)[-1] < weights.sum())
            states = np.arange(21.0)[:, None] * np.ones(4)
            for count in (1, 7, 1000):
                out = resample(make_pset(states, weights), count, NearOne())
                assert out.states[:, 0].max() < 20.0
        assert gaps > 0

    def test_matches_one_set_at_a_time(self):
        # rows of mixed lengths, with zero weights inside and at the end
        rng = np.random.default_rng(11)
        rows = []
        for n in (1, 5, 1000, 1000, 37, 1000):
            weights = rng.random(n) * (rng.random(n) < 0.7)
            weights[rng.integers(n)] = rng.random() + 0.1
            if n > 1 and rng.random() < 0.5:
                weights[-rng.integers(1, n):] = 0.0
            if not weights.any():
                weights[0] = 1.0
            rows.append((weights, rng.normal(size=(n, 4))))
        batched, single = np.random.default_rng(5), np.random.default_rng(5)
        out = resample_rows([weights for weights, _ in rows], 300, batched)
        for (weights, states), (idx, weight) in zip(rows, out):
            ref = classic_resample(weights, states, 300, single.random())
            assert np.array_equal(states[idx], ref)
            assert weight == np.cumsum(weights)[-1] / 300
        # one draw per row, as one `random` call per set makes them
        assert batched.random() == single.random()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=50),
           lead=st.integers(min_value=0, max_value=3),
           inner=st.integers(min_value=0, max_value=10),
           trail=st.integers(min_value=0, max_value=3),
           count=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_zero_weights_anywhere_change_nothing(self, n, lead, inner, trail, count, seed):
        # zero-weight particles before, between and after the positive ones
        # leave the total, and so every draw, bit for bit as they were
        rng = np.random.default_rng(seed)
        weights = (1.0 - rng.random(n)) * 10.0 ** rng.uniform(-6.0, 0.0, n)
        states = rng.normal(size=(n, 4))
        at = np.sort(np.concatenate([np.zeros(lead, dtype=int),
                                     rng.integers(1, n, inner) if n > 1 else [],
                                     np.full(trail, n)]).astype(int))
        padded = np.insert(weights, at, 0.0)
        padded_states = np.insert(states, at, np.inf, axis=0)
        plain, plain_weight = resample_rows([weights], count, np.random.default_rng(seed))[0]
        out, weight = resample_rows([padded], count, np.random.default_rng(seed))[0]
        assert np.array_equal(padded_states[out], states[plain])
        assert weight == plain_weight == np.cumsum(padded)[-1] / count

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [-1.0, 2.0], [1.0, np.nan], []],
                             ids=["all_zero", "negative", "nan", "empty"])
    def test_bad_row_raises_naming_it(self, bad):
        # as `resample` does, rather than an IndexError on a row with no
        # positive weight, or four particles of weight 0.25 from [-1, 2]
        good, row = np.ones(2), np.array(bad)
        with pytest.raises(ValueError, match="degenerate particle set: row 1 "):
            resample_rows([good, row, good], 4, np.random.default_rng(0))


class TestWeightedMean:
    @staticmethod
    def mean(states, weights):
        # the estimate of a one-track state: its pdf's first moment
        track = BernoulliTrack(Label(1, 1), 1.0, make_pset(states, weights))
        [estimate] = detect_and_estimate(FilterState([track], PoissonPhd.empty(), 1), 0.5)
        return estimate.state

    def test_single_particle_identity(self):
        np.testing.assert_array_equal(self.mean([[1, 2, 0, 0]], [1.0]), [1, 2, 0, 0])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(self.mean([[0, 0, 0, 0], [2, 2, 0, 0]], [0.5, 0.5]),
                                   [1, 1, 0, 0])

    def test_monte_carlo_clt_bound(self):
        # oracle: CLT, 4 sigma / sqrt(n) per component
        rng = np.random.default_rng(7)
        mean = np.array([3.0, -1.0, 0.1, 0.0])
        sigma = 1.5
        n = 1000
        samples = rng.normal(mean, sigma, size=(n, 4))
        err = np.abs(self.mean(samples, np.full(n, 1.0 / n)) - mean)
        assert np.all(err <= 4.0 * sigma / np.sqrt(n))


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


def random_tracks(rng, sizes=(16, 3, 16, 3, 16)):
    """Tracks of interleaved particle counts, their labels out of order."""
    tracks = []
    for i, n in enumerate(sizes):
        weights = rng.random(n)
        tracks.append(BernoulliTrack(Label(1 + i % 2, len(sizes) - i), float(rng.random()),
                                     make_pset(rng.normal(scale=100, size=(n, 4)),
                                               weights / weights.sum())))
    return tracks


def bad_block(case):
    """A two-track block that breaks one check of `FilterState.from_block`."""
    labels, existence, sizes = [Label(1, 1), Label(2, 1)], [0.5, 0.5], [4, 4]
    if case == "empty_pdf":
        sizes = [4, 0]
    if case == "duplicate_labels":
        labels = [Label(1, 1), Label(1, 1)]
    if case == "born_after_time":
        labels = [Label(1, 1), Label(4, 1)]
    block = TrackBlock.empty(labels, existence, sizes)
    for _, states, weights in block.groups:
        states[:] = 0.0
        weights[:] = 0.25
    r = block.existence
    weights = block.groups[0][2]
    if case == "existence_above_one":
        r[1] = 1.0 + 2e-12
    if case == "existence_below_zero":
        r[1] = -1e-300
    if case == "existence_nan":
        r[1] = np.nan
    if case == "not_normalized":
        weights[1, 0] += 10 * PDF_TOL
    if case == "negative_weight":
        weights[1] = [-0.25, 0.5, 0.5, 0.25]
    if case in ("inf_weight", "nan_weight"):
        weights[1, 0] = np.inf if case == "inf_weight" else np.nan
    if case == "rows_mismatch":
        block.groups[0][0][1] = 0
    if case == "length_mismatch":
        rows, states, _ = block.groups[0]
        block = block._replace(groups=((rows, states, np.full((2, 3), 1 / 3)),))
    return block


class TestBlockState:
    CASES = ["existence_above_one", "existence_below_zero", "existence_nan", "not_normalized",
             "negative_weight", "inf_weight", "nan_weight", "empty_pdf", "duplicate_labels",
             "born_after_time", "rows_mismatch", "length_mismatch"]

    @pytest.mark.parametrize("case", CASES)
    def test_every_track_check_holds_for_a_block(self, case):
        # the checks BernoulliTrack and ParticleSet make per track, and the label rules
        FilterState.from_block(bad_block("sound"), PoissonPhd.empty(), 3)
        with pytest.raises(ValueError):
            FilterState.from_block(bad_block(case), PoissonPhd.empty(), 3)

    def test_existence_within_rounding_of_one_is_capped(self):
        block = bad_block("sound")
        block.existence[0] = 1.0 + 1e-12
        state = FilterState.from_block(block, PoissonPhd.empty(), 3)
        assert state.block.existence.tolist() == [1.0, 0.5]
        assert state.tracks[0].existence == 1.0
        assert not state.block.groups[0][1].flags.writeable

    def test_a_state_from_tracks_keeps_those_objects(self):
        tracks = random_tracks(np.random.default_rng(3))
        state = FilterState(tracks, PoissonPhd.empty(), 4)
        assert len(state.tracks) == len(tracks)
        assert all(a is b for a, b in zip(state.tracks, tracks))
        assert state.block.labels == tuple(t.label for t in tracks)

    def test_block_state_writes_the_bytes_of_the_tracks_state(self):
        # estimates and snapshot of a state built from a block and from its tracks
        rng = np.random.default_rng(5)
        tracks = random_tracks(rng)
        phd = PoissonPhd(make_pset(rng.normal(size=(6, 4)), rng.random(6)))
        from_tracks = FilterState(tracks, phd, 4)
        from_block = FilterState.from_block(TrackBlock.of(tracks), phd, 4)
        texts = []
        for state in (from_tracks, from_block):
            estimates, snapshot = io.StringIO(), io.StringIO()
            write_estimates_csv(estimates, [(4, detect_and_estimate(state, 0.2))])
            write_snapshot(state, snapshot)
            texts.append((estimates.getvalue(), snapshot.getvalue()))
        assert texts[0] == texts[1]
        # and the per-track estimate: the pdf mean of each declared track, by label
        declared = sorted((t for t in tracks if t.existence > 0.2), key=lambda t: t.label)
        estimates = detect_and_estimate(from_block, 0.2)
        assert [e.label for e in estimates] == [t.label for t in declared]
        for est, track in zip(estimates, declared):
            assert np.array_equal(est.state, track.pdf.weights @ track.pdf.states)
            assert est.existence == track.existence


# one track that breaks one track rule: (existence, pdf weights)
BAD_TRACKS = {
    "existence_negative": (-0.1, [0.25] * 4),
    "existence_above_one": (1.0 + 2e-12, [0.25] * 4),
    "existence_nan": (np.nan, [0.25] * 4),
    "negative_weight": (0.5, [-0.25, 0.5, 0.5, 0.25]),
    "nan_weight": (0.5, [np.nan, 0.25, 0.25, 0.5]),
    "inf_weight": (0.5, [np.inf, 0.25, 0.25, 0.5]),
    "not_normalized": (0.5, [0.25, 0.25, 0.25, 0.25 + 10 * PDF_TOL]),
    "empty_pdf": (0.5, []),
}


def one_track_both_ways(existence, weights):
    """The track (existence, weights) built as a `BernoulliTrack` and as the one
    row of a block state; returns each path's existence, or its ValueError."""
    weights = np.array(weights, dtype=float)
    states = np.zeros((len(weights), 4))
    block = TrackBlock.empty([Label(1, 1)], [existence], [len(weights)])
    block.groups[0][1][:], block.groups[0][2][:] = states, weights
    out = []
    for build in (lambda: BernoulliTrack(Label(1, 1), existence,
                                         ParticleSet(states, weights)).existence,
                  lambda: FilterState.from_block(block, PoissonPhd.empty(), 3).block.existence[0]):
        try:
            out.append(build())
        except ValueError as err:
            out.append(err)
    return out


class TestOneSetOfTrackChecks:
    @pytest.mark.parametrize("case", list(BAD_TRACKS))
    def test_track_and_block_raise_the_same_message(self, case):
        existence, weights = BAD_TRACKS[case]
        track, block = one_track_both_ways(existence, weights)
        assert isinstance(track, ValueError) and isinstance(block, ValueError)
        assert str(track) == str(block)
        if case.startswith("existence"):
            assert str(track) == f"existence probability out of [0,1]: {existence}"

    def test_existence_within_rounding_of_one_is_capped_on_both_paths(self):
        assert one_track_both_ways(1.0 + 1e-13, [0.25] * 4) == [1.0, 1.0]


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
        assert back.block.labels == state.block.labels
        for a, b in zip(back.tracks, state.tracks):
            assert a.existence == b.existence
            np.testing.assert_array_equal(a.pdf.states, b.pdf.states)
            np.testing.assert_array_equal(a.pdf.weights, b.pdf.weights)
        np.testing.assert_array_equal(back.phd.particles.states, phd.particles.states)
        np.testing.assert_array_equal(back.phd.particles.weights, phd.particles.weights)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            read_snapshot(io.StringIO("not,a,snapshot\n"))

    @pytest.mark.parametrize("body, line", [
        ("track,1,1,0.5,2\np,0.5,1,2,3,4\n", 4),   # one of two particles
        ("track,1,1,0.5\n", 2),                    # no particle count
        ("phd,2\np,0.5,1,2,3,4\n", 4),             # one of two particles
        ("phd,1\np,0.5,1,2\n", 3),                 # a short particle record
    ])
    def test_truncated_record_names_its_line(self, body, line):
        with pytest.raises(ValueError, match=f"snapshot line {line}:"):
            read_snapshot(io.StringIO("time,1\n" + body))

    @pytest.mark.parametrize("text, line, message", [
        ("time,x\n", 1, "bad int 'x'"),
        ("time,1\ntrack,1,1,0.5,-1\n", 2, "negative particle count -1"),
        ("time,1\ntrack,1,x,0.5,1\np,1.0,1,2,3,4\n", 2, "bad int 'x'"),
        ("time,1\ntrack,1,1,y,1\np,1.0,1,2,3,4\n", 2, "bad float 'y'"),
        ("time,1\ntrack,1,1,1.5,1\np,1.0,1,2,3,4\n", 2, "existence probability"),
        ("time,1\nphd,x\n", 2, "bad int 'x'"),
        ("time,1\nphd,2\np,0.5,1,2,3,4\np,nan,1,2,3,4\n", 4, "not finite and nonnegative"),
        ("time,1\nphd,1\np,-1.0,1,2,3,4\n", 3, "not finite and nonnegative"),
        ("time,1\nphd,1\np,1.0,1,z,3,4\n", 3, "bad float 'z'"),
        ("time,1\nphd,1\np,1.0,1,2,3,4\nphd,1\np,2.0,1,2,3,4\n", 4, "second phd record"),
        ("time,1\nphd,0\nlink,1,2\n", 3, "unknown record 'link'"),
    ])
    def test_bad_value_names_its_line(self, text, line, message):
        with pytest.raises(ValueError, match=f"snapshot line {line}: .*{message}"):
            read_snapshot(io.StringIO(text))
