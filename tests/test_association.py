import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lmbp.association
from lmbp.association import (
    EXACT_DEGREE_LIMIT,
    EXACT_SIZE_LIMIT,
    Marginals,
    _check_marginals,
    batch_bp_marginals,
    bp_marginals,
    detection_hypotheses,
    enumerate_admissible,
    exact_marginals,
    miss_hypothesis,
    new_components,
    partition,
    track_evidence,
)
from lmbp.models import SensorModel
from lmbp.rfs import BernoulliTrack, Label, Measurement, ParticleSet, PoissonPhd, TrackBlock

from helpers import (
    ClusterTables,
    StubSensor,
    count_joined_rows,
    dense_likelihood_table,
    max_label_tv,
    partition_of,
    pdf_of,
    random_cluster,
    row_sums,
    table_of,
    whole,
)

Z = Measurement(100.0, 0.0)


def evidence_of(tracks, frame, sensor, gamma_c):
    """`track_evidence` over the block of `tracks`, row i being tracks[i]."""
    return track_evidence(TrackBlock.of(tracks), frame, sensor, gamma_c)


def track_of(weights, r, label=Label(1, 1)):
    n = len(weights)
    states = np.zeros((n, 4))
    states[:, 0] = np.arange(n)
    return BernoulliTrack(label, r, ParticleSet(states, np.asarray(weights, float)))


class TestDetectionHypothesis:
    def test_nonexistent_track_detects_nothing(self):
        track = track_of([1.0], r=0.0)
        hyp = detection_hypotheses(track, [Z], StubSensor([0.7], [[0.05]]))[0]
        assert hyp.beta == 0.0

    def test_single_particle(self):
        track = track_of([1.0], r=0.5)
        hyp = detection_hypotheses(track, [Z], StubSensor([0.7], [[0.05]]))[0]
        assert hyp.beta == pytest.approx(0.0175, abs=1e-15)
        assert hyp.existence == 1.0
        np.testing.assert_allclose(hyp.weights, [1.0])

    def test_two_particle_hand_values(self):
        # w = (.5, .5), pD = 1, f = (.2, .1): b = 0.15, pdf = (2/3, 1/3)
        track = track_of([0.5, 0.5], r=1.0)
        hyp = detection_hypotheses(track, [Z], StubSensor([1.0, 1.0], [[0.2, 0.1]]))[0]
        assert hyp.beta == pytest.approx(0.15, abs=1e-15)
        np.testing.assert_allclose(hyp.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_likelihood_yields_empty_hypothesis(self):
        track = track_of([1.0], r=0.5)
        hyp = detection_hypotheses(track, [Z], StubSensor([1.0], [[0.0]]))[0]
        assert hyp.beta == 0.0 and len(hyp.weights) == 0

    def test_whole_frame_matches_single_calls(self):
        track = track_of([0.3, 0.7], r=0.9)
        lik = [[0.2, 0.1], [0.01, 0.3], [0.0, 0.0]]
        sensor = StubSensor([0.6, 0.8], lik)
        frame = [Z, Z, Z]
        hyps = detection_hypotheses(track, frame, sensor)
        for m, hyp in enumerate(hyps):
            single = detection_hypotheses(track, [Z], StubSensor([0.6, 0.8], [lik[m]]))[0]
            assert hyp.beta == pytest.approx(single.beta)


class TestMissHypothesis:
    def test_constant_pd_closed_form(self):
        track = track_of([1.0], r=0.5)
        hyp = miss_hypothesis(track, StubSensor([0.7]))
        assert hyp.beta == pytest.approx(0.65, abs=1e-15)
        assert hyp.existence == pytest.approx(0.5 * 0.3 / 0.65, abs=1e-15)

    def test_blind_sensor(self):
        track = track_of([0.4, 0.6], r=0.3)
        hyp = miss_hypothesis(track, StubSensor([0.0, 0.0]))
        assert hyp.beta == pytest.approx(1.0)
        assert hyp.existence == pytest.approx(0.3)
        np.testing.assert_allclose(hyp.weights, [0.4, 0.6])

    def test_forced_detection_degenerate(self):
        track = track_of([1.0], r=1.0)
        hyp = miss_hypothesis(track, StubSensor([1.0]))
        assert hyp.beta == 0.0 and hyp.existence == 0.0


def parent_evidence(track, frame, sensor):
    """The per-track formulas that `track_evidence` replaced, as the reference:
    miss weight and miss pdf weights, detection weights, and the detection
    pdf weights of every measurement with b > 0 (1-based keys), from a dense
    likelihood table. A pdf is None where the formula builds none."""
    states, w, r = track.pdf.states, track.pdf.weights, track.existence
    pd = sensor.detection_prob_at(sensor.range_bearing(states)[0])
    miss = w * (1.0 - pd)
    c = float(miss.sum())
    miss_beta = 1.0 - r + r * c
    miss_pdf = None if miss_beta <= 0.0 or c <= 0.0 else miss / c
    table = (w * pd) * dense_likelihood_table(sensor, frame, states)
    betas = np.zeros(len(frame))
    pdfs = {}
    for m, (row, b) in enumerate(zip(table, table.sum(axis=1)), start=1):
        if b <= 0.0:
            continue
        betas[m - 1] = r * float(b)
        pdfs[m] = row / b
    return miss_beta, miss_pdf, betas, pdfs


def assert_pdf(pdf, expected, states):
    if expected is None:
        assert len(pdf) == 0
    elif np.isfinite(expected).all():
        assert np.array_equal(pdf.weights, expected)
        assert np.array_equal(pdf.states, states)
    else:
        raise AssertionError("a non-finite pdf should not have been built")


def assert_evidence_exact(tracks, frame, sensor):
    """`track_evidence` equals the per-track formulas bit for bit: miss_beta,
    betas, and every pdf it builds on request."""
    evidence = evidence_of(tracks, frame, sensor, 0.0)
    assert evidence.miss_beta.shape == (len(tracks),)
    assert evidence.betas.shape == (len(tracks), len(frame))
    for i, track in enumerate(tracks):
        miss_beta, miss_pdf, betas, pdfs = parent_evidence(track, frame, sensor)
        assert np.array_equal(evidence.miss_beta[i], miss_beta, equal_nan=True)
        assert np.array_equal(evidence.betas[i], betas, equal_nan=True)
        states = track.pdf.states
        if np.isnan(miss_beta):
            with pytest.raises(ValueError):
                pdf_of(states, evidence.miss(i))
        else:
            assert_pdf(pdf_of(states, evidence.miss(i)), miss_pdf, track.pdf.states)
        for m in range(1, len(frame) + 1):
            if m in pdfs and not np.isfinite(pdfs[m]).all():
                with pytest.raises(ValueError):
                    pdf_of(states, evidence.detection(i, m))
                continue
            hyp = evidence.detection(i, m)
            assert hyp.beta == betas[m - 1]
            assert hyp.existence == (1.0 if m in pdfs else 0.0)
            assert_pdf(pdf_of(states, hyp), pdfs.get(m), track.pdf.states)
    return evidence


def cloud_track(rng, centre, n, r, spread=3.0, index=1):
    states = np.zeros((n, 4))
    states[:, :2] = centre + rng.normal(0.0, spread, (n, 2))
    states[:, 2:] = rng.normal(0.0, 1.0, (n, 2))
    weights = rng.random(n) + 0.01
    return BernoulliTrack(Label(1, index), r, ParticleSet(states, weights / weights.sum()))


def frame_near(rng, sensor, tracks, clutter_count):
    """One measurement near a random particle of each track, plus clutter."""
    frame = []
    for track in tracks:
        rho, theta = sensor.range_bearing(track.pdf.states[rng.integers(len(track.pdf))])
        frame.append(Measurement(float(rho + rng.normal(0.0, sensor.sigma_range)),
                                 float(theta + rng.normal(0.0, sensor.sigma_bearing))))
    frame += [Measurement(float(rng.uniform(0.0, 320.0)), float(rng.uniform(-np.pi, np.pi)))
              for _ in range(clutter_count)]
    order = rng.permutation(len(frame))
    return [frame[j] for j in order]


class TestTrackEvidence:
    """The one pass over all tracks against the parent's per-track formulas."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        sensor = SensorModel(sigma_range=float(rng.choice([0.5, 2.0, 10.0])),
                             sigma_bearing=float(rng.choice([np.deg2rad(1.0), 0.05, 0.5])),
                             pd_max=float(rng.uniform(0.3, 1.0)))
        tracks = [cloud_track(rng, sensor.position + rng.uniform(-250.0, 250.0, 2),
                              int(rng.choice([1, 3, 50, 400])),
                              float(rng.choice([0.0, 1.0, rng.random()])),
                              spread=float(rng.uniform(0.1, 20.0)), index=i + 1)
                  for i in range(int(rng.integers(1, 8)))]
        assert_evidence_exact(tracks, frame_near(rng, sensor, tracks, 30), sensor)

    def test_mixed_particle_counts_keep_track_order(self):
        rng = np.random.default_rng(30)
        sensor = SensorModel()
        sizes = [1000, 5, 1000, 1, 5]
        tracks = [cloud_track(rng, sensor.position + [40.0 * i - 80.0, 150.0], n, 0.7,
                              index=i + 1) for i, n in enumerate(sizes)]
        evidence = assert_evidence_exact(tracks, frame_near(rng, sensor, tracks, 20), sensor)
        assert [evidence.slot(i)[0].miss.shape[1] for i in range(len(sizes))] == sizes
        assert np.all(evidence.betas.max(axis=1) > 0.0)
        # the gate left pairs out
        assert sum(len(group.b) for group in evidence.groups) < evidence.betas.size

    def test_nonexistent_track_and_forced_detection(self):
        # pD is exactly 1 at the sensor: with r = 1 the miss weight vanishes
        rng = np.random.default_rng(31)
        sensor = SensorModel(pd_max=1.0)
        at_sensor = np.zeros((4, 4))
        at_sensor[:, :2] = sensor.position
        forced = BernoulliTrack(Label(1, 1), 1.0, ParticleSet(at_sensor, np.full(4, 0.25)))
        absent = cloud_track(rng, sensor.position + [0.0, 100.0], 20, 0.0, index=2)
        unsure = BernoulliTrack(Label(1, 3), 0.6, ParticleSet(at_sensor, np.full(4, 0.25)))
        frame = [Measurement(0.5, 0.0)] + frame_near(rng, sensor, [absent], 5)
        evidence = assert_evidence_exact([forced, absent, unsure], frame, sensor)
        assert evidence.miss_beta[0] == 0.0
        miss = evidence.miss(0)
        assert miss.beta == 0.0 and miss.existence == 0.0 and len(miss.weights) == 0
        assert evidence.miss_beta[1] == 1.0 and evidence.miss(1).existence == 0.0
        assert not evidence.betas[1].any() and evidence.betas[0, 0] > 0.0
        # surely detected if present, but r < 1: c = 0 while beta = 1 - r > 0
        group, k = evidence.slot(2)
        assert group.miss_mass[k] == 0.0
        miss = evidence.miss(2)
        assert miss.beta == evidence.miss_beta[2] == 1.0 - 0.6
        assert miss.existence == 0.0 and len(miss.weights) == 0

    def test_empty_frame_and_no_tracks(self):
        rng = np.random.default_rng(32)
        sensor = SensorModel()
        tracks = [cloud_track(rng, sensor.position + [0.0, 100.0], n, 0.5, index=i + 1)
                  for i, n in enumerate((10, 3))]
        evidence = assert_evidence_exact(tracks, [], sensor)
        assert evidence.betas.shape == (2, 0)
        assert not any(len(group.b) for group in evidence.groups)
        none = assert_evidence_exact([], frame_near(rng, sensor, tracks, 4), sensor)
        assert none.betas.shape == (0, 6) and none.miss_beta.shape == (0,)

    def test_non_finite_particles(self):
        rng = np.random.default_rng(33)
        sensor = SensorModel()
        tracks = [cloud_track(rng, sensor.position + [20.0 * i, 120.0], 50, 0.8, index=i + 1)
                  for i in range(3)]
        frame = frame_near(rng, sensor, tracks, 10)
        states = np.array(tracks[0].pdf.states)
        states[7] = np.nan
        tracks[0] = BernoulliTrack(Label(1, 1), 0.8, ParticleSet(states, tracks[0].pdf.weights))
        states = np.array(tracks[1].pdf.states)
        states[3, 0] = np.inf
        tracks[1] = BernoulliTrack(Label(1, 2), 0.8, ParticleSet(states, tracks[1].pdf.weights))
        evidence = assert_evidence_exact(tracks, frame, sensor)
        assert np.isnan(evidence.miss_beta[0]) and np.isnan(evidence.betas[0]).all()
        assert np.isfinite(evidence.betas[1:]).all()

    def test_bearing_arc_across_the_seam(self):
        # particles behind the sensor on both sides of bearing +-pi
        rng = np.random.default_rng(34)
        sensor = SensorModel(sigma_bearing=0.05)
        seam = cloud_track(rng, sensor.position + [-150.0, 0.0], 400, 0.9, spread=4.0)
        assert np.ptp(sensor.range_bearing(seam.pdf.states)[1]) > np.pi
        frame = [Measurement(150.0, -np.pi), Measurement(150.0, np.nextafter(np.pi, 0.0))]
        frame += frame_near(rng, sensor, [seam], 10)
        evidence = assert_evidence_exact([seam], frame, sensor)
        assert evidence.betas[0, 0] > 0.0 and evidence.betas[0, 1] > 0.0


def assert_gate_exact(tracks, frame, sensor, gamma_c):
    """`track_evidence` with gamma_c against full evaluation (gamma_c = 0):
    the evidence's labelling gives the same clusters and residual as the
    labelling of the full weights at gamma_c; every evaluated betas entry,
    and every in-cluster one and pdf, is bit-identical; a pair left
    deferred holds 0, lies in no cluster and raises in `detection`. Returns
    the counts of pairs the gate deferred and of those evaluated inside a
    cluster."""
    full = evidence_of(tracks, frame, sensor, 0.0)
    joined: Counter = Counter()
    with pytest.MonkeyPatch.context() as mp:
        count_joined_rows(mp, joined)
        gated = evidence_of(tracks, frame, sensor, gamma_c)
    assert not full.deferred.any()
    deferred = int(gated.deferred.sum())
    assert not gated.betas[gated.deferred].any()
    assert np.array_equal(gated.betas[~gated.deferred], full.betas[~gated.deferred],
                          equal_nan=True)
    clusters, residual = partition(gated.row_of, gated.col_of)
    expected, expected_residual = partition_of(full.betas, gamma_c)
    assert np.array_equal(residual, expected_residual)
    assert len(clusters) == len(expected)
    for (rows, cols), (rows_ref, cols_ref) in zip(clusters, expected):
        assert np.array_equal(rows, rows_ref) and np.array_equal(cols, cols_ref)
        block = np.ix_(rows, cols)
        assert not gated.deferred[block].any()
        assert np.array_equal(gated.betas[block], full.betas[block], equal_nan=True)
        for i in rows.tolist():
            for m in (cols + 1).tolist():
                ref = full.detection(i, m)
                hyp = gated.detection(i, m)
                assert hyp.beta == ref.beta and hyp.existence == ref.existence
                assert np.array_equal(hyp.weights, ref.weights)
                assert np.array_equal(pdf_of(tracks[i].pdf.states, hyp).states,
                                      pdf_of(tracks[i].pdf.states, ref).states)
    for group in gated.groups:
        # the cells joined after labelling are merged in (row, col) order
        assert np.all(np.diff(group.pair_row * len(frame) + group.pair_col) > 0)
    for i, j in zip(*np.nonzero(gated.deferred)):
        with pytest.raises(ValueError, match="deferred"):
            gated.detection(int(i), int(j) + 1)
    completed = joined["deferred evaluated"]
    return deferred + completed, completed


def track_at(sensor, rho, theta, n, r, index, rng, spread=0.0):
    """A track of n particles around the point at range rho, bearing theta."""
    centre = sensor.position + rho * np.array([np.cos(theta), np.sin(theta)])
    return cloud_track(rng, centre, n, r, spread=spread, index=index)


class TestPlausibilityGate:
    """Pairs whose weight bound lies below gamma_c / 2 are deferred, and the
    step reads the same clusters and the same bits as with every pair
    evaluated."""

    @pytest.mark.parametrize("gamma_c", [0.0, 1e-10, 1e-3])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cases_match_full_evaluation(self, seed, gamma_c):
        rng = np.random.default_rng(200 + seed)
        sensor = SensorModel(sigma_range=float(rng.choice([0.5, 2.0, 10.0])),
                             sigma_bearing=float(rng.choice([np.deg2rad(1.0), 0.05])),
                             pd_max=float(rng.uniform(0.3, 1.0)))
        # tracks near each other, so clusters hold several rows and columns
        centre = sensor.position + rng.uniform(-150.0, 150.0, 2)
        tracks = [cloud_track(rng, centre + rng.normal(0.0, 8.0, 2),
                              int(rng.choice([1, 50, 400])),
                              float(rng.choice([1e-6, 0.05, 1.0, rng.random()])),
                              spread=float(rng.uniform(0.5, 6.0)), index=i + 1)
                  for i in range(int(rng.integers(2, 7)))]
        frame = frame_near(rng, sensor, tracks, 20)
        deferred, _ = assert_gate_exact(tracks, frame, sensor, gamma_c)
        assert (deferred > 0) == (gamma_c > 0.0)

    def test_deferred_pair_joins_a_cluster(self):
        # A and B on one bearing at ranges 100 and 110; z1 at 105 is plausible
        # for both, z2 at 92 only for A: B's weight on z2 is ~1e-18, which the
        # gate defers, yet (B, z2) is inside the cluster {A, B} x {z1, z2}
        rng = np.random.default_rng(40)
        sensor = SensorModel()
        tracks = [track_at(sensor, 100.0, 0.3, 200, 0.8, 1, rng, spread=0.05),
                  track_at(sensor, 110.0, 0.3, 200, 0.8, 2, rng, spread=0.05)]
        frame = [Measurement(105.0, 0.3), Measurement(92.0, 0.3), Measurement(200.0, -2.0)]
        gated = evidence_of(tracks, frame, sensor, 1e-10)
        full = evidence_of(tracks, frame, sensor, 0.0)
        assert not gated.deferred.any()
        assert gated.betas[1, 1] == full.betas[1, 1]
        assert 0.0 < gated.betas[1, 1] < 1e-10
        assert np.array_equal(gated.detection(1, 2).weights, full.detection(1, 2).weights)
        clusters, residual = partition(gated.row_of, gated.col_of)
        assert [(r.tolist(), c.tolist()) for r, c in clusters] == [([0, 1], [0, 1])]
        assert residual.tolist() == [2]
        assert assert_gate_exact(tracks, frame, sensor, 1e-10) == (1, 1)

    def test_tight_bounds_need_the_margin(self):
        # every particle of a track at one point and a measurement exactly
        # there: the weight bound equals the weight up to the rounding of its
        # sum and products. gamma_c is set to the weight itself, so the pair
        # is plausible whichever way that rounding goes
        rng = np.random.default_rng(41)
        sensor = SensorModel()
        for _ in range(30):
            rho, theta = float(rng.uniform(20.0, 280.0)), float(rng.uniform(-3.0, 3.0))
            track = track_at(sensor, rho, theta, int(rng.integers(2, 300)),
                             float(rng.random()), 1, rng)
            frame = [Measurement(*map(float, sensor.range_bearing(track.pdf.states[0])))]
            gamma_c = float(evidence_of([track], frame, sensor, 0.0).betas[0, 0])
            assert gamma_c > 0.0
            assert assert_gate_exact([track], frame, sensor, gamma_c) == (0, 0)

    def test_non_finite_bounds_are_evaluated_at_once(self):
        rng = np.random.default_rng(42)
        sensor = SensorModel()
        tracks = [cloud_track(rng, sensor.position + [10.0 * i, 120.0], 50, 1e-9,
                              index=i + 1) for i in range(4)]
        frame = frame_near(rng, sensor, tracks, 10)
        states = np.array(tracks[0].pdf.states)
        states[5] = np.nan
        tracks[0] = BernoulliTrack(Label(1, 1), 1e-9, ParticleSet(states, tracks[0].pdf.weights))
        states = np.array(tracks[1].pdf.states)
        states[2, 0] = np.inf
        tracks[1] = BernoulliTrack(Label(1, 2), 1e-9, ParticleSet(states, tracks[1].pdf.weights))
        with np.errstate(over="ignore", invalid="ignore"):
            gated = evidence_of(tracks, frame, sensor, 1e-3)
            assert not gated.deferred[:2].any() and gated.deferred[2:].any()
            assert np.isnan(gated.betas[0]).all()
            assert_gate_exact(tracks, frame, sensor, 1e-3)
            # a non-finite measurement: every pair at once
            bad = frame[:-1] + [Measurement(np.inf, 0.0)]
            assert not evidence_of(tracks[2:], bad, sensor, 1e-3).deferred.any()

    def test_single_track_views_defer_nothing(self):
        rng = np.random.default_rng(43)
        sensor = SensorModel()
        track = cloud_track(rng, sensor.position + [0.0, 150.0], 100, 1e-12)
        frame = frame_near(rng, sensor, [track], 15)
        assert evidence_of([track], frame, sensor, 1e-10).deferred.any()
        hyps = detection_hypotheses(track, frame, sensor)
        full = evidence_of([track], frame, sensor, 0.0)
        for m, hyp in enumerate(hyps, start=1):
            assert hyp.beta == full.betas[0, m - 1]
            assert np.array_equal(hyp.weights, full.detection(0, m).weights)


class TestNewComponent:
    def sensor(self, pd, lik, intensity, max_range=300.0):
        """A stub sensor whose clutter intensity inside its disk is `intensity`."""
        return StubSensor(pd, lik, clutter_mean=intensity * max_range * 2 * np.pi,
                          max_range=max_range)

    def phd_of_mass(self, mass, n=4):
        states = np.zeros((n, 4))
        return PoissonPhd(ParticleSet(states, np.full(n, mass / n)))

    def components(self, phd, pd, frame, sensor):
        return new_components(phd, pd, frame, sensor, sensor.range_bearing(phd.particles.states))

    def test_pure_clutter(self):
        beta, mass, cells = self.components(PoissonPhd.empty(), np.empty(0), [Z],
                                            self.sensor([], [[]], 0.053))
        assert beta[0] == pytest.approx(0.053)
        assert mass[0] == 0.0 and all(len(a) == 0 for a in cells)  # no intensity mass

    def test_clutter_free(self):
        phd = self.phd_of_mass(0.02)
        sensor = self.sensor([1.0] * 4, [[1.0] * 4], 0.5)
        beta, mass, _ = self.components(phd, np.ones(4), [Measurement(1000.0, 0.0)], sensor)
        # measurement outside clutter ROI
        assert mass[0] / beta[0] == pytest.approx(1.0)

    def test_equal_evidence(self):
        phd = self.phd_of_mass(0.053)
        sensor = self.sensor([1.0] * 4, [[1.0] * 4], 0.053)
        beta, mass, _ = self.components(phd, np.ones(4), [Z], sensor)
        assert mass[0] / beta[0] == pytest.approx(0.5)

    def test_table_holds_weighted_likelihoods(self):
        # cell (m-1, i) holds w_i pD(x_i) f(z_m|x_i); mass(m) is its row sum,
        # and beta(m) adds the clutter intensity to it
        phd = PoissonPhd(ParticleSet(np.zeros((3, 4)), [0.1, 0.2, 0.3]))
        pd = np.array([0.5, 1.0, 0.0])
        sensor = self.sensor(pd, [[0.2, 0.4, 0.6], [0.0, 0.1, 0.0]], 0.053)
        beta, mass, cells = self.components(phd, pd, [Z, Z], sensor)
        assert cells[0].tolist() == [0, 0, 0, 1] and cells[1].tolist() == [0, 1, 2, 1]
        table = table_of(cells, (2, 3))
        np.testing.assert_allclose(table, [[0.01, 0.08, 0.0], [0.0, 0.02, 0.0]],
                                   atol=1e-15)
        assert np.array_equal(mass, row_sums(table))
        np.testing.assert_allclose(beta, [0.053 + 0.09, 0.053 + 0.02], atol=1e-15)

    def test_builds_no_particle_set(self, monkeypatch):
        phd = self.phd_of_mass(0.053)
        built = []
        init = ParticleSet.__post_init__

        def counted(pset):
            built.append(pset)
            init(pset)

        monkeypatch.setattr(ParticleSet, "__post_init__", counted)
        self.components(phd, np.ones(4), [Z, Z], self.sensor([1.0] * 4, [[1.0] * 4] * 2, 0.053))
        assert built == []

    def test_no_support_gives_zero_beta(self):
        # neither clutter nor intensity mass beyond the disk; lmbp_step drops it
        beta, mass, _ = self.components(PoissonPhd.empty(), np.empty(0),
                                        [Measurement(1000.0, 0.0)], self.sensor([], [[]], 0.5))
        assert beta[0] == 0.0 and mass[0] == 0.0


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def cc_oracle(betas, gamma):
    """Independent oracle: BFS connected components of the plausibility graph."""
    L, M = betas.shape
    adj_label = [set(np.nonzero(betas[i] >= gamma)[0]) for i in range(L)]
    adj_meas = [set(np.nonzero(betas[:, j] >= gamma)[0]) for j in range(M)]
    seen_labels, comps = set(), []
    for start in range(L):
        if start in seen_labels:
            continue
        labels, meas, queue = set(), set(), [("l", start)]
        while queue:
            kind, idx = queue.pop()
            if kind == "l":
                if idx in labels:
                    continue
                labels.add(idx)
                queue.extend(("m", j) for j in adj_label[idx])
            else:
                if idx in meas:
                    continue
                meas.add(idx)
                queue.extend(("l", i) for i in adj_meas[idx])
        seen_labels |= labels
        comps.append((frozenset(labels), frozenset(meas)))
    return set(comps)


def as_lists(clusters):
    return [(rows.tolist(), cols.tolist()) for rows, cols in clusters]


class TestPartition:
    def test_disconnected_components(self):
        betas = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        clusters, residual = partition_of(betas, gamma_c=0.5)
        assert as_lists(clusters) == [([0], [0]), ([1], [1])]
        assert residual.tolist() == [2]

    def test_shared_measurement_merges(self):
        betas = np.array([[1.0], [1.0]])
        clusters, residual = partition_of(betas, gamma_c=0.5)
        assert as_lists(clusters) == [([0, 1], [0])]
        assert residual.tolist() == []

    def test_label_with_no_plausible_measurement_is_singleton(self):
        betas = np.array([[0.0, 0.0]])
        clusters, residual = partition_of(betas, gamma_c=0.5)
        assert as_lists(clusters) == [([0], [])]
        assert residual.tolist() == [0, 1]

    def test_no_labels(self):
        clusters, residual = partition_of(np.empty((0, 3)), gamma_c=0.5)
        assert clusters == [] and residual.tolist() == [0, 1, 2]

    def test_threshold_is_inclusive(self):
        betas = np.array([[0.5]])
        clusters, _ = partition_of(betas, gamma_c=0.5)
        assert as_lists(clusters) == [([0], [0])]

    @pytest.mark.parametrize("step", [1, -1])
    def test_staircase_chains_every_row(self, step):
        # the k-th row of the chain pairs with columns k and k + 1, so the
        # first row's name has to travel the whole chain
        count = 40
        betas = np.zeros((count, count + 2))
        chain = np.arange(count)[::step]
        betas[chain, np.arange(count)] = 1.0
        betas[chain, np.arange(1, count + 1)] = 1.0
        clusters, residual = partition_of(betas, gamma_c=0.5)
        assert as_lists(clusters) == [(list(range(count)), list(range(count + 1)))]
        assert residual.tolist() == [count + 1]

    def test_zero_weights_are_not_plausible_at_gamma_c_zero(self):
        clusters, residual = partition_of(np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.7]]), 0.0)
        assert as_lists(clusters) == [([0], [0]), ([1], [2])]
        assert residual.tolist() == [1]

    def test_nan_weights_are_not_plausible(self):
        betas = np.array([[np.nan, 1.0, 0.0], [np.nan, np.nan, 0.0], [0.0, np.nan, 1.0]])
        clusters, residual = partition_of(betas, gamma_c=0.5)
        assert as_lists(clusters) == [([0], [1]), ([1], []), ([2], [2])]
        assert residual.tolist() == [0]

    def test_matches_connected_component_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            L = int(rng.integers(1, 9))
            M = int(rng.integers(0, 9))
            betas = rng.random((L, M))
            gamma = float(rng.uniform(0.3, 0.9))
            clusters, residual = partition_of(betas, gamma)
            clusters = as_lists(clusters)
            got = {(frozenset(rows), frozenset(cols)) for rows, cols in clusters}
            assert got == cc_oracle(betas, gamma)
            # ascending rows and columns, clusters in order of their first row
            assert all(rows == sorted(rows) and cols == sorted(cols) for rows, cols in clusters)
            firsts = [rows[0] for rows, _ in clusters]
            assert firsts == sorted(firsts)
            # disjointness and completeness
            all_meas = [j for _, cols in clusters for j in cols] + residual.tolist()
            assert sorted(all_meas) == list(range(M))
            all_rows = [i for rows, _ in clusters for i in rows]
            assert sorted(all_rows) == list(range(L))


# ---------------------------------------------------------------------------
# Enumeration and marginalization
# ---------------------------------------------------------------------------


def single_legacy_cluster(miss, det, new):
    return ClusterTables(np.array([miss]), np.array([det]), np.array(new),
                         np.zeros(len(new), dtype=bool))


def lone_transfer_cluster(new_beta):
    return ClusterTables(np.empty(0), np.empty((0, 1)), np.array([new_beta]), np.array([True]))


class TestMarginalAssociation:
    """`_check_marginals`, the one check every marginal path runs."""

    @pytest.mark.parametrize("legacy, claim", [
        ([[np.nan, np.nan]], [0.5]),
        ([[0.5, 0.5]], [np.nan]),
        ([[1.5, -0.5]], [0.5]),
        ([[0.5, 0.5]], [1.5]),
    ])
    def test_rejects_nan_and_out_of_range(self, legacy, claim):
        with pytest.raises(ValueError):
            _check_marginals(np.array(legacy), np.array(claim))


class TestEnumerateAdmissible:
    def test_one_legacy_one_measurement(self):
        cluster = single_legacy_cluster(0.4, [2.0], [1.5])
        legacy, _, weights = enumerate_admissible(*cluster)
        hyps = dict(zip(legacy[:, 0].tolist(), weights))
        total = 0.4 * 1.5 + 2.0
        assert hyps[0] == pytest.approx(0.4 * 1.5 / total, abs=1e-12)
        assert hyps[1] == pytest.approx(2.0 / total, abs=1e-12)

    def test_isolated_transfer_label_is_fifty_fifty(self):
        _, claims, weights = enumerate_admissible(*lone_transfer_cluster(3.7))
        assert claims.tolist() == [[False], [True]]
        for weight in weights:
            assert weight == pytest.approx(0.5, abs=1e-12)

    def test_two_legacy_one_measurement_counts(self):
        cluster = ClusterTables(np.array([0.5, 0.5]), np.array([[1.0], [2.0]]), np.array([0.3]),
                                np.zeros(1, dtype=bool))
        assert len(enumerate_admissible(*cluster)[2]) == 3

    def test_weights_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cluster = random_cluster(rng)
            _, _, weights = enumerate_admissible(*cluster)
            assert abs(sum(weights) - 1.0) <= 1e-12

    def test_no_measurement_claimed_twice(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cluster = random_cluster(rng)
            for entries, claims in zip(*enumerate_admissible(*cluster)[:2]):
                used = [m - 1 for m in entries if m > 0] + np.flatnonzero(claims).tolist()
                assert len(used) == len(set(used))
                assert cluster.transferred[claims].all()

    def test_empty_cluster(self):
        cluster = ClusterTables(np.empty(0), np.empty((0, 0)), np.empty(0), np.empty(0, dtype=bool))
        legacy, claims, weights = enumerate_admissible(*cluster)
        assert legacy.shape == (1, 0) and claims.shape == (1, 0)
        assert weights.tolist() == [1.0]

    @pytest.mark.parametrize("weight", [np.inf, np.nan, -1.0])
    def test_non_finite_weight_raises(self, weight):
        # the message names the weight, not an all-zero enumeration after
        # numpy's log of a negative weight warns
        for table in range(3):
            tables = list(single_legacy_cluster(0.4, [2.0], [1.5]))
            tables[table] = np.full_like(tables[table], weight)
            for entry_point in (enumerate_admissible, bp_marginals):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="negative or non-finite"):
                        entry_point(*tables)

    def test_tables_must_agree_in_shape(self):
        # a (2, 2) detection table against 3 miss weights must not give 2-row
        # BP marginals or seven vectors of weight 1/7
        for table in (0, 2, 3):
            tables = [np.ones(2), np.ones((2, 2)), np.ones(2), np.zeros(2, dtype=bool)]
            tables[table] = np.resize(tables[table], 3)
            for entry_point in (enumerate_admissible, bp_marginals):
                with pytest.raises(ValueError, match="shape"):
                    entry_point(*tables)

    def test_log_domain_handles_tiny_weights(self):
        cluster = ClusterTables(np.full(2, 1e-180), np.full((2, 2), 1e-180), np.full(2, 1e-180),
                                np.zeros(2, dtype=bool))
        _, _, weights = enumerate_admissible(*cluster)
        assert abs(sum(weights) - 1.0) <= 1e-12
        assert all(np.isfinite(w) for w in weights)


def brute_force_marginals(cluster):
    """Independent oracle for `exact_marginals`: every vector of legacy entries
    in {0..M} and transfer entries in {0, 1}, kept when its measurements are
    distinct, weighted by plain products of the beta factors."""
    L, M = cluster.det_beta.shape
    transfers = np.flatnonzero(cluster.transferred).tolist()
    legacy, claim, total = np.zeros((L, 1 + M)), np.zeros(M), 0.0
    for entries in itertools.product(range(M + 1), repeat=L):
        for bits in itertools.product((0, 1), repeat=len(transfers)):
            by_legacy = [m - 1 for m in entries if m > 0]
            by_transfer = [j for j, bit in zip(transfers, bits) if bit]
            if len(set(by_legacy + by_transfer)) != len(by_legacy + by_transfer):
                continue
            weight = 1.0
            for i, m in enumerate(entries):
                weight *= cluster.miss_beta[i] if m == 0 else cluster.det_beta[i, m - 1]
            for j in range(M):
                if j not in by_legacy:   # claimed by its transfer or by nothing
                    weight *= cluster.new_beta[j]
            legacy[np.arange(L), entries] += weight
            claim[by_transfer] += weight
            total += weight
    return legacy / total, claim / total


class TestExactMarginals:
    def test_balanced_pair(self):
        # beta(l,0) beta(m1) == beta(l,m1) makes both hypotheses equal
        cluster = single_legacy_cluster(0.5, [1.0], [2.0])
        marg = exact_marginals(*cluster, whole(cluster))
        assert marg.legacy[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert marg.legacy[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_no_measurements(self):
        cluster = ClusterTables(np.array([0.7]), np.empty((1, 0)), np.empty(0),
                                np.empty(0, dtype=bool))
        marg = exact_marginals(*cluster, whole(cluster))
        assert marg.legacy.tolist() == [[1.0]] and marg.claim.shape == (0,)

    def test_pmfs_normalized_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cluster = random_cluster(rng)
            marg = exact_marginals(*cluster, whole(cluster))
            assert np.all(np.abs(marg.legacy.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all((marg.legacy >= 0.0) & (marg.legacy <= 1.0))
            assert np.all((marg.claim >= 0.0) & (marg.claim <= 1.0))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        with_transfers = 0
        for _ in range(200):
            cluster = random_cluster(rng)
            with_transfers += bool(cluster.transferred.any())
            marg = exact_marginals(*cluster, whole(cluster))
            legacy, claim = brute_force_marginals(cluster)
            np.testing.assert_allclose(marg.legacy, legacy, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(marg.claim, claim, rtol=0.0, atol=1e-12)
        assert with_transfers >= 50


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as `_bp_rounds` runs
def fixed_iteration_bp(cluster, iterations):
    """Reference for `bp_marginals`: every one of `iterations` rounds run,
    with no exit at a fixed point, and every belief built label by label.
    The marginals are returned unchecked, NaN included."""
    L, M = cluster.det_beta.shape
    w = cluster.det_beta / np.maximum(cluster.new_beta, 1e-300)[None, :]
    tmask = cluster.transferred.astype(float)
    nu = np.ones((M, L))
    sum_x = np.zeros(M)
    for _ in range(iterations):
        weighted = w * nu.T
        denom = cluster.miss_beta[:, None] + weighted.sum(axis=1, keepdims=True) - weighted
        x = w / np.maximum(denom, 1e-300)
        sum_x = x.sum(axis=0)
        nu = 1.0 / np.maximum(1.0 + tmask[:, None] + sum_x[:, None] - x.T, 1e-300)
    legacy = np.zeros((L, 1 + M))
    for i in range(L):
        raw = np.concatenate([[cluster.miss_beta[i]], w[i] * nu[:, i]])
        raw /= raw.sum()
        legacy[i] = raw
    claim = np.zeros(M)
    for j in np.flatnonzero(cluster.transferred):
        # the last round's column sum, the one its nu update read
        odds = 1.0 / (1.0 + tmask[j] - 1.0 + sum_x[j])
        claim[j] = odds / (1.0 + odds)
    return Marginals(legacy, claim)


def assert_same_marginals(got, want):
    assert np.array_equal(got.legacy, want.legacy)
    assert np.array_equal(got.claim, want.claim)


class TestBpMarginals:
    def test_fixed_point_exit_equals_fixed_iterations(self):
        # criterion 1's random clusters, 20 rounds
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            cluster = random_cluster(rng)
            assert_same_marginals(bp_marginals(*cluster, 20), fixed_iteration_bp(cluster, 20))

    def test_wide_clusters_equal_fixed_iterations(self):
        # 8-12 legacy labels: columns long enough that their sums round
        # differently in another order
        rng = np.random.default_rng(2027)
        for _ in range(200):
            L, M = int(rng.integers(8, 13)), int(rng.integers(1, 7))
            cluster = ClusterTables(10.0 ** rng.uniform(-6, 2, L),
                                    10.0 ** rng.uniform(-6, 2, (L, M)),
                                    10.0 ** rng.uniform(-6, 2, M), rng.random(M) < 0.5)
            assert_same_marginals(bp_marginals(*cluster, 20), fixed_iteration_bp(cluster, 20))

    def test_single_label_cluster_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cluster = random_cluster(rng, max_legacy=1, max_transfer=0)
            assert max_label_tv(exact_marginals(*cluster, whole(cluster)),
                                bp_marginals(*cluster, 20)) <= 1e-9

    def test_single_transfer_cluster_is_exact(self):
        marg = bp_marginals(*lone_transfer_cluster(0.8), 20)
        assert marg.claim[0] == pytest.approx(0.5, abs=1e-12)

    def test_disconnected_blocks_are_exact(self):
        # two labels with disjoint plausible sets: zero cross entries
        cluster = ClusterTables(np.array([0.3, 0.9]), np.array([[2.0, 0.0], [0.0, 5.0]]),
                                np.array([1.0, 0.4]), np.zeros(2, dtype=bool))
        assert max_label_tv(exact_marginals(*cluster, whole(cluster)),
                            bp_marginals(*cluster, 20)) <= 1e-9

    def test_star_with_transfer_is_exact(self):
        # one measurement shared by a legacy and a transfer label: still a tree
        cluster = ClusterTables(np.array([0.4]), np.array([[3.0]]), np.array([0.7]),
                                np.array([True]))
        assert max_label_tv(exact_marginals(*cluster, whole(cluster)),
                            bp_marginals(*cluster, 20)) <= 1e-9

    def test_loopy_accuracy_sanity(self):
        # the acceptance suite checks the distributional bound; this is a floor
        rng = np.random.default_rng(7)
        close = 0
        for _ in range(200):
            cluster = random_cluster(rng)
            if max_label_tv(exact_marginals(*cluster, whole(cluster)),
                            bp_marginals(*cluster, 20)) <= 0.05:
                close += 1
        assert close >= 180

    def test_pmfs_normalized(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            marg = bp_marginals(*random_cluster(rng), 20)
            assert np.all(np.abs(marg.legacy.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all((marg.claim >= 0.0) & (marg.claim <= 1.0))

    def test_checks_each_marginal_once(self, monkeypatch):
        # the batch checks what it computed and the one-cluster call does not
        # check it again; a cluster 8 or more wide runs as a batch of its own
        calls = []
        check = lmbp.association._check_marginals

        def check_spy(legacy, claim):
            calls.append(len(legacy))
            return check(legacy, claim)

        monkeypatch.setattr(lmbp.association, "_check_marginals", check_spy)
        rng = np.random.default_rng(8)
        for count in range(1, 51):
            bp_marginals(*random_cluster(rng, max_legacy=10), 20)
            assert len(calls) == count

    def test_measurement_scale_invariance(self):
        # scaling the likelihood-dimension entries (detection and new-object
        # weights) by a common constant changes nothing
        rng = np.random.default_rng(9)
        for _ in range(40):
            cluster = random_cluster(rng)
            scale = 10.0 ** rng.uniform(-3, 3)
            scaled = ClusterTables(cluster.miss_beta, cluster.det_beta * scale,
                                   cluster.new_beta * scale, cluster.transferred)
            assert max_label_tv(exact_marginals(*cluster, whole(cluster)),
                                exact_marginals(*scaled, whole(scaled))) <= 1e-9
            assert max_label_tv(bp_marginals(*cluster, 20), bp_marginals(*scaled, 20)) <= 1e-9
            e1, c1, w1 = enumerate_admissible(*cluster)
            e2, c2, w2 = enumerate_admissible(*scaled)
            assert np.array_equal(e1, e2) and np.array_equal(c1, c2)
            np.testing.assert_allclose(w1, w2, rtol=0.0, atol=1e-9)


# a weight entry: 0 a fifth of the time, else spread over eight decades with
# mantissas whose sums round, so a change of summation order shows
weights = st.floats(-8.0, 2.0).map(lambda e: 0.0 if e < -6.0 else 10.0 ** e)


@st.composite
def cluster_batches(draw):
    """Clusters for one batch, shuffled: small random ones next to a track with
    no measurement, a lone transfer (no rows), one cluster beyond the
    exact-enumeration limits in pairs and one 8 or more wide, in tracks or
    in measurements plus miss, which may lie beyond them in pairs or in
    vectors. Any weight may be 0, including a miss weight (the
    forced-detection corner)."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 6)), max_size=6))
    shapes += [(1, 0), (0, 1), (4, 6),
               draw(st.sampled_from([(8, 2), (3, 7), (9, 8), (17, 1)]))]
    clusters = []
    for L, M in draw(st.permutations(shapes)):
        clusters.append(ClusterTables(draw(arrays(float, L, elements=weights)),
                                      draw(arrays(float, (L, M), elements=weights)),
                                      draw(arrays(float, M, elements=weights)),
                                      draw(arrays(bool, M)) | (L == 0)))
    return clusters


def placed_in_tables(clusters, random):
    """The clusters' tables placed in the step's tables, their rows and
    columns interleaved; one row and two columns lie in no cluster, and every
    entry outside a cluster holds 3.0, which no marginal path may read.
    Returns the tables (miss, betas, new, transferred) and each cluster's
    (cluster, rows, cols)."""
    L = sum(c.det_beta.shape[0] for c in clusters) + 1
    M = sum(c.det_beta.shape[1] for c in clusters) + 2
    row_order, col_order = random.sample(range(L), L), random.sample(range(M), M)
    miss, betas = np.full(L, 3.0), np.full((L, M), 3.0)
    new, transferred = np.full(M, 3.0), np.ones(M, dtype=bool)
    placed = []
    for cluster in clusters:
        size, meas = cluster.det_beta.shape
        rows = np.array(sorted(row_order[:size]), dtype=np.intp)
        cols = np.array(sorted(col_order[:meas]), dtype=np.intp)
        del row_order[:size], col_order[:meas]
        miss[rows], betas[np.ix_(rows, cols)] = cluster.miss_beta, cluster.det_beta
        new[cols], transferred[cols] = cluster.new_beta, cluster.transferred
        placed.append((cluster, rows, cols))
    return (miss, betas, new, transferred), placed


def within_exact_limits(cluster):
    """Whether `exact_marginals` enumerates a cluster of finite weights."""
    L, M = cluster.det_beta.shape
    return (L * M <= EXACT_DEGREE_LIMIT
            and (M + 1) ** L * 2 ** int(cluster.transferred.sum()) <= EXACT_SIZE_LIMIT)


def enumerated_marginals(cluster):
    """Reference for an enumerated cluster's marginals: each vector's weight
    added to its entries, vector by vector in enumeration order."""
    entries, claims, weights = enumerate_admissible(*cluster)
    L, M = cluster.det_beta.shape
    legacy, claim = np.zeros((L, 1 + M)), np.zeros(M)
    for entry, claimed, weight in zip(entries, claims, weights):
        legacy[np.arange(L), entry] += weight
        claim[claimed] += weight
    return Marginals(legacy, claim)


def in_step_columns(listed, L, M):
    """Each listed cluster's (marginals, rows, cols) placed in the step's
    (L, 1 + M) and (M,) layout, zeros elsewhere."""
    legacy, claim = np.zeros((L, 1 + M)), np.zeros(M)
    for want, rows, cols in listed:
        legacy[np.ix_(rows, np.append(0, 1 + cols))] = want.legacy
        claim[cols] = want.claim
    return Marginals(legacy, claim)


class TestBatchBpMarginals:
    @settings(max_examples=100, deadline=None)
    @given(cluster_batches(), st.randoms(use_true_random=False))
    def test_equals_fixed_iterations_cluster_by_cluster(self, clusters, random):
        # the cluster list goes in as placed, shuffled, and as a random
        # subset, as exact mode passes one. Every weight is a number, so a
        # NaN marginal is one that BP made, and a list with one raises
        tables, placed = placed_in_tables(clusters, random)
        (L, M), placed = tables[1].shape, [(fixed_iteration_bp(cluster, 20), rows, cols)
                                           for cluster, rows, cols in placed]

        shuffled = random.sample(placed, len(placed))
        subset = random.sample(placed, random.randint(0, len(placed)))
        for listed in (placed, shuffled, subset):
            args = (*tables, [(rows, cols) for _, rows, cols in listed], 20)
            if any(np.isnan(want.legacy).any() or np.isnan(want.claim).any()
                   for want, _, _ in listed):
                with pytest.raises(ValueError):
                    batch_bp_marginals(*args)
                continue
            # a row's entries outside its cluster's columns are 0, also in a NaN row
            legacy, claim = batch_bp_marginals(*args)
            want = in_step_columns(listed, L, M)
            assert np.array_equal(legacy, want.legacy, equal_nan=True)
            assert np.array_equal(claim, want.claim, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(cluster_batches(), st.randoms(use_true_random=False))
    def test_exact_marginals_share_the_layout(self, clusters, random):
        # exact mode on a shuffled list: the clusters within the limits are
        # enumerated and the rest go through one batch, into the same arrays.
        # A cluster whose enumeration has no weight, or whose BP marginals are
        # NaN, makes the whole list raise, so the list is also run without them
        tables, placed = placed_in_tables(clusters, random)
        enumerated, batched, failing = [], [], []
        for cluster, rows, cols in random.sample(placed, len(placed)):
            if within_exact_limits(cluster):
                try:
                    enumerated.append((enumerated_marginals(cluster), rows, cols))
                except ValueError:
                    failing.append((rows, cols))
            elif any(np.isnan(part).any() for part in fixed_iteration_bp(cluster, 20)):
                failing.append((rows, cols))
            else:
                batched.append((rows, cols))
        listed = [(rows, cols) for _, rows, cols in enumerated] + batched
        if failing:
            with pytest.raises(ValueError):
                exact_marginals(*tables, random.sample(listed + failing, len(placed)), 20)
        listed = random.sample(listed, len(listed))
        legacy, claim = exact_marginals(*tables, listed, 20)
        # the two parts share no row or column, so their sum places each
        bp_legacy, bp_claim = batch_bp_marginals(*tables, batched, 20)
        want = in_step_columns(enumerated, *tables[1].shape)
        assert np.array_equal(legacy, want.legacy + bp_legacy)
        assert np.array_equal(claim, want.claim + bp_claim)

    def test_no_clusters(self):
        legacy, claim = batch_bp_marginals(np.ones(2), np.ones((2, 3)), np.ones(3),
                                           np.ones(3, dtype=bool), [], 20)
        assert legacy.tolist() == [[0.0] * 4] * 2 and claim.tolist() == [0.0, 0.0, 0.0]

    def test_nan_weights_pass_unchecked(self):
        # inf / inf is no weight: the cluster's marginals are NaN, returned as they are
        with np.errstate(invalid="ignore"):
            legacy, claim = batch_bp_marginals(np.array([0.5]), np.array([[np.inf]]),
                                               np.array([np.inf]), np.array([True]),
                                               [(np.arange(1), np.arange(1))], 20)
        assert np.isnan(legacy).all() and np.isnan(claim).all()

    def test_rejects_a_negative_marginal(self):
        # a negative weight is no probability; the check reads the arrays
        with pytest.raises(ValueError, match="not normalized"):
            batch_bp_marginals(np.array([1.0, 0.5]), np.array([[-2.0], [1.0]]), np.ones(1),
                               np.zeros(1, dtype=bool), [(np.arange(2), np.arange(1))], 20)
