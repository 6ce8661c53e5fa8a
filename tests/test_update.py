import io
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import lmbp.association
import lmbp.update
from lmbp.association import Hypothesis, TrackEvidence, new_components
from lmbp.cli import initial_state
from lmbp.config import build_run_config
from lmbp.models import BirthModel, ClutterModel, Models, MotionModel, SensorModel
from lmbp.rfs import (
    BernoulliTrack,
    FilterState,
    Label,
    Measurement,
    ParticleSet,
    PoissonPhd,
    write_snapshot,
)
from lmbp.simulate import generate_frames, generate_truth
from lmbp.update import (
    FilterSettings,
    Pending,
    Thresholds,
    _legacy,
    _resampled,
    _rows_of,
    lmbp_step,
    select_transfers,
    split_by_retention,
    update_legacy_track,
    update_phd,
    update_transferred_track,
)

from helpers import (
    StubSensor,
    cells_of,
    count_joined_rows,
    dense_new_components,
    dense_phd_weights,
    likelihood,
    row_sums,
)


def pdf_at(x1, n=1, weight=None):
    states = np.zeros((n, 4))
    states[:, 0] = x1
    weights = np.full(n, 1.0 / n) if weight is None else np.full(n, weight / n)
    return ParticleSet(states, weights)


def component(existence, x1=0.0):
    pdf = pdf_at(x1)
    return Pending(Label(7, 1), existence, (pdf.weights, pdf.states))


def new_component_rows(*existences, n=2):
    """`new_components` output over n intensity particles at x1 = 0..n-1:
    beta 1 and a uniform weight row of mass `existence` per measurement."""
    states = np.zeros((n, 4))
    states[:, 0] = np.arange(n)
    table = np.outer(existences, np.full(n, 1.0 / n)).reshape(len(existences), n)
    return np.ones(len(existences)), table.sum(axis=1), cells_of(table), states


# One shared support for the legacy-track update: the miss pdf sits on the
# first two particles, the detection pdf on the last two.
SUPPORT = np.zeros((4, 4))
SUPPORT[:, 0] = [1.0, 2.0, 8.0, 9.0]
MISS_PDF = ParticleSet(SUPPORT, [0.5, 0.5, 0.0, 0.0])
DET_PDF = ParticleSet(SUPPORT, [0.0, 0.0, 0.25, 0.75])


def support_counts(pset, support):
    """How many particles of `pset` sit on each row of `support`."""
    return np.array([int(np.sum(np.all(pset.states == row, axis=1))) for row in support])


def assert_systematic_counts(pset, support, weights, budget):
    # systematic resampling gives each particle floor or ceil of budget * w_i / W
    counts = support_counts(pset, support)
    assert counts.sum() == budget
    expected = budget * np.asarray(weights) / np.sum(weights)
    assert np.all(np.abs(counts - expected) <= 1.0), (counts, expected)


@dataclass(frozen=True)
class ConstantPdSensor(SensorModel):
    """Range-bearing sensor with a spatially constant detection probability."""

    pd_const: float = 0.5

    def detection_prob_at(self, rho):
        return np.full(np.shape(rho), self.pd_const)


class TestThresholds:
    def test_defaults_are_ps1(self):
        thr = Thresholds()
        assert (thr.gamma_c, thr.gamma_tr, thr.gamma_leg, thr.gamma_d) == \
            (1e-10, 1e-2, 1e-2, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(gamma_c=-1.0)
        with pytest.raises(ValueError):
            Thresholds(gamma_tr=0.0)


class TestSelectTransfers:
    def test_threshold_split(self):
        beta, mass, table, states = new_component_rows(0.5, 0.001, 0.9)
        transfers, transferred = select_transfers(beta, mass, table, states, gamma_tr=0.01,
                                                  time=7)
        assert transferred.tolist() == [True, False, True]
        assert list(transfers) == [0, 2]
        assert [t.label for t in transfers.values()] == [Label(7, 1), Label(7, 3)]
        comp = transfers[0]
        weights, support = comp.row
        assert comp.existence == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_array_equal(support, states)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)
        # its resample takes the weights' running sum as the total
        track = update_transferred_track(comp, 1.0, 4, np.random.default_rng(0))
        assert track.label == Label(7, 1)
        assert np.array_equal(track.pdf.weights, np.full(4, np.cumsum(weights)[-1] / 4))

    def test_nothing_above_threshold(self):
        transfers, transferred = select_transfers(*new_component_rows(0.005, 0.001),
                                                  gamma_tr=0.01, time=7)
        assert transfers == {} and transferred.tolist() == [False, False]

    def test_boundary_is_inclusive(self):
        transfers, transferred = select_transfers(
            *new_component_rows(1e-2, np.nextafter(1e-2, 0.0)), gamma_tr=1e-2, time=7)
        assert list(transfers) == [0] and transferred.tolist() == [True, False]


class TestUpdateLegacyTrack:
    label = Label(2, 3)

    def test_pure_miss(self):
        miss = Hypothesis(0.6, 0.25, MISS_PDF)
        out = update_legacy_track(self.label, {0: 1.0}, miss, {}, 50,
                                  np.random.default_rng(0))
        assert out.existence == pytest.approx(0.25, abs=1e-15)
        assert np.all(np.isin(out.pdf.states[:, 0], [1.0, 2.0]))

    def test_pure_detection(self):
        miss = Hypothesis(0.6, 0.25, MISS_PDF)
        det = {1: Hypothesis(0.3, 1.0, DET_PDF)}
        out = update_legacy_track(self.label, {0: 0.0, 1: 1.0}, miss, det, 50,
                                  np.random.default_rng(0))
        assert out.existence == pytest.approx(1.0)
        assert np.all(np.isin(out.pdf.states[:, 0], [8.0, 9.0]))

    def test_even_mixture_hand_values(self):
        # p(0) = p(m1) = 0.5, miss existence 0.2: r = 0.6, mixture (1/6, 5/6)
        miss = Hypothesis(0.6, 0.2, MISS_PDF)
        det = {1: Hypothesis(0.3, 1.0, DET_PDF)}
        out = update_legacy_track(self.label, {0: 0.5, 1: 0.5}, miss, det, 600,
                                  np.random.default_rng(0))
        assert out.existence == pytest.approx(0.6, abs=1e-15)
        frac_miss = float(np.mean(out.pdf.states[:, 0] < 5.0))
        assert frac_miss == pytest.approx(1 / 6, abs=0.01)
        assert out.pdf.is_normalized()
        assert len(out.pdf) == 600

    @pytest.mark.parametrize("seed", range(5))
    def test_resampled_counts_match_closed_form_weights(self, seed):
        # posterior weights (0.5 * 0.2 * miss + 0.5 * 1.0 * det) / 0.6
        miss = Hypothesis(0.6, 0.2, MISS_PDF)
        det = {1: Hypothesis(0.3, 1.0, DET_PDF)}
        out = update_legacy_track(self.label, {0: 0.5, 1: 0.5}, miss, det, 600,
                                  np.random.default_rng(seed))
        weights = (0.1 * MISS_PDF.weights + 0.5 * DET_PDF.weights) / 0.6
        np.testing.assert_allclose(weights, [1 / 12, 1 / 12, 5 / 24, 5 / 8])
        assert_systematic_counts(out.pdf, SUPPORT, weights, 600)

    def test_mismatched_supports_raise(self):
        miss = Hypothesis(0.6, 0.2, MISS_PDF)
        det = {1: Hypothesis(0.3, 1.0, ParticleSet(SUPPORT + 1.0, DET_PDF.weights))}
        with pytest.raises(ValueError, match="share"):
            update_legacy_track(self.label, {0: 0.5, 1: 0.5}, miss, det, 600,
                                np.random.default_rng(0))

    def test_zero_mass_returns_dead_track(self):
        miss = Hypothesis(0.6, 0.0, ParticleSet.empty())
        out = update_legacy_track(self.label, {0: 1.0}, miss, {}, 50,
                                  np.random.default_rng(0))
        assert out.existence == 0.0 and len(out.pdf) == 0


class TestUpdateTransferredTrack:
    def test_full_claim(self):
        out = update_transferred_track(component(0.8), 1.0, 50, np.random.default_rng(0))
        assert out.existence == pytest.approx(0.8)

    def test_no_claim(self):
        out = update_transferred_track(component(0.8), 0.0, 50, np.random.default_rng(0))
        assert out.existence == 0.0

    def test_half_claim(self):
        out = update_transferred_track(component(0.8), 0.5, 50, np.random.default_rng(0))
        assert out.existence == pytest.approx(0.4, abs=1e-15)
        assert len(out.pdf) == 50


class TestOnePassUpdate:
    def test_matches_per_track_updates(self):
        # legacy tracks, one of which has no mixture mass and draws no uniform,
        # and transferred tracks: the step's one resampling pass gives the
        # per-track calls' tracks and leaves the generator where they do
        rng = np.random.default_rng(4)
        support = rng.normal(size=(40, 4))
        miss_w, det_w = rng.random(40), rng.random(40) * (rng.random(40) < 0.5)
        miss = Hypothesis(0.5, 0.3, ParticleSet(support, miss_w / miss_w.sum()))
        det = {2: Hypothesis(0.2, 1.0, ParticleSet(support, det_w / det_w.sum()))}
        marginals = [{0: 0.4, 2: 0.6}, {0: 0.0, 2: 0.0}, {0: 1.0, 2: 0.0}]
        weights = rng.random(9)
        comp = Pending(Label(2, 1), 0.7, (weights / weights.sum(), support[:9]))
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        one_by_one = [update_legacy_track(Label(1, i + 1), marginal, miss, det, 64, a)
                      for i, marginal in enumerate(marginals)]
        one_by_one += [update_transferred_track(comp, 0.5, 64, a)]
        pending = [_legacy(Label(1, i + 1),
                           [(m[0] * miss.existence, miss.pdf.weights),
                            (m[2] * 1.0, det[2].pdf.weights)], support)
                   for i, m in enumerate(marginals)]
        pending.append(comp._replace(existence=0.5 * comp.existence))
        one_pass = _resampled(pending, 64, b)
        assert a.random() == b.random()
        assert one_by_one[1].existence == 0.0 and len(one_by_one[1].pdf) == 0
        for x, y in zip(one_by_one, one_pass):
            assert (x.label, x.existence) == (y.label, y.existence)
            assert np.array_equal(x.pdf.states, y.pdf.states)
            assert np.array_equal(x.pdf.weights, y.pdf.weights)


class TestSplitByRetention:
    def test_low_legacy_recycled(self):
        track = BernoulliTrack(Label(1, 1), 0.005, pdf_at(0.0))
        kept, recycled = split_by_retention([track], gamma_leg=0.01, time=5)
        assert kept == [] and recycled == [track]

    def test_fresh_transfer_exempt(self):
        track = BernoulliTrack(Label(5, 2), 0.005, pdf_at(0.0))
        kept, recycled = split_by_retention([track], gamma_leg=0.01, time=5)
        assert kept == [track] and recycled == []

    def test_boundary_is_inclusive(self):
        track = BernoulliTrack(Label(1, 1), 0.01, pdf_at(0.0))
        kept, recycled = split_by_retention([track], gamma_leg=0.01, time=5)
        assert kept == [track] and recycled == []

    def test_no_track_in_both(self):
        rng = np.random.default_rng(0)
        tracks = [BernoulliTrack(Label(int(rng.integers(1, 6)), i + 1),
                                 float(rng.random()), pdf_at(0.0))
                  for i in range(30)]
        kept, recycled = split_by_retention(tracks, gamma_leg=0.3, time=5)
        assert len(kept) + len(recycled) == 30
        assert not ({t.label for t in kept} & {t.label for t in recycled})


def no_rows(n):
    """`new_components` output of no unclaimed measurement over n particles."""
    return np.empty(0), cells_of(np.empty((0, n)))


class TestUpdatePhd:
    def test_blind_sensor_preserves_mass(self):
        phd = PoissonPhd(pdf_at(0.0, n=40, weight=0.7))
        out = update_phd([], *no_rows(40), phd, np.zeros(40), 100,
                         np.random.default_rng(0))
        assert out.mean == pytest.approx(0.7, abs=1e-12)

    def test_perfect_sensor_empties_intensity(self):
        phd = PoissonPhd(pdf_at(0.0, n=40, weight=0.7))
        out = update_phd([], *no_rows(40), phd, np.ones(40), 100,
                         np.random.default_rng(0))
        assert out.mean == 0.0 and len(out.particles) == 0

    def test_three_term_additivity(self):
        # recycled r 0.3 + unclaimed d / beta = 0.4 / 2 + undetected 0.2 * (1 - 0.5)
        recycled = [BernoulliTrack(Label(1, 1), 0.3, pdf_at(1.0))]
        phd = PoissonPhd(pdf_at(3.0, n=10, weight=0.2))
        out = update_phd(recycled, np.array([2.0]), cells_of(np.full((1, 10), 0.04)), phd,
                         np.full(10, 0.5), 500, np.random.default_rng(0))
        assert out.mean == pytest.approx(0.3 + 0.2 + 0.1, abs=1e-9)
        assert len(out.particles) == 500

    def test_zero_mass_gives_empty(self):
        out = update_phd([], *no_rows(0), PoissonPhd.empty(), np.empty(0), 100,
                         np.random.default_rng(0))
        assert out.mean == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_resampled_counts_match_closed_form_weights(self, seed):
        # one weight vector over the predicted particles, (1 - pD) w + sum_k table[k] / beta[k],
        # followed by the recycled track's particles weighted r * pdf
        phd_states = np.zeros((4, 4))
        phd_states[:, 0] = [10.0, 20.0, 30.0, 40.0]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        pd = np.array([0.2, 0.4, 0.6, 0.8])
        beta = np.array([0.5, 2.0])
        table = np.array([[0.0, 0.05, 0.1, 0.0], [0.2, 0.0, 0.0, 0.1]])
        track_states = np.zeros((2, 4))
        track_states[:, 0] = [50.0, 60.0]
        recycled = [BernoulliTrack(Label(1, 1), 0.25, ParticleSet(track_states, [0.4, 0.6]))]
        out = update_phd(recycled, beta, cells_of(table),
                         PoissonPhd(ParticleSet(phd_states, w)), pd, 1000,
                         np.random.default_rng(seed))
        weights = np.concatenate([w * (1 - pd) + table[0] / 0.5 + table[1] / 2.0,
                                  [0.1, 0.15]])
        np.testing.assert_allclose(weights, [0.18, 0.22, 0.32, 0.13, 0.1, 0.15])
        assert out.mean == pytest.approx(weights.sum(), abs=1e-12)
        assert_systematic_counts(out.particles, np.concatenate([phd_states, track_states]),
                                 weights, 1000)


class TestSparseIntensityArithmetic:
    """`new_components`, `select_transfers` and `update_phd` over cells are
    bit-identical to the dense (M, N) formulas in `helpers`, on random sparse
    likelihoods with rows that have no cells and with no particles at all."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_formulas(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([0, 1, 7, 300, 3000]))
        m = int(rng.integers(0, 40))
        # entries of like magnitude: the order of every sum shows in the last bit
        lik = rng.random((m, n)) * (rng.random((m, n)) < rng.random())
        lik[rng.random(m) < 0.3] = 0.0
        states = rng.normal(0.0, 50.0, (n, 4))
        # intensity masses around the clutter intensity: some rows transfer, some stay
        phd = PoissonPhd(ParticleSet(states, rng.random(n) * 10.0 ** rng.uniform(-3, 0) / n))
        pd = rng.random(n)
        frame = [Measurement(float(rng.uniform(0.0, 300.0)), 0.0) for _ in range(m)]
        clutter = ClutterModel(mean_count=20.0)
        sensor = StubSensor(pd, lik)
        beta, mass, cells = new_components(phd, pd, frame, sensor, clutter,
                                           sensor.range_bearing(states))
        ref_beta, ref_mass, table = dense_new_components(
            phd, pd, lik, clutter.intensity_at(np.array([z.range for z in frame])))
        assert np.array_equal(beta, ref_beta) and np.array_equal(mass, ref_mass)

        transfers, transferred = select_transfers(beta, mass, cells, states, 0.1, time=3)
        assert list(transfers) == np.flatnonzero(transferred).tolist()
        for row, component in transfers.items():
            # the cells of the row in particle order; its resample's total is
            # the dense row added left to right
            assert component.label == Label(3, row + 1)
            dense = table[row] / mass[row]
            weights, support = component.row
            assert np.array_equal(support, states[dense > 0.0])
            assert np.array_equal(weights, dense[dense > 0.0])
            track = update_transferred_track(component, 1.0, 64, np.random.default_rng(0))
            assert np.array_equal(track.pdf.weights, np.full(64, row_sums([dense])[0] / 64))

        weights = []
        real = lmbp.update.resample

        def spy(pset, count, gen):
            weights.append(pset.weights[:n])  # the predicted particles come first
            return real(pset, count, gen)

        monkeypatch.setattr(lmbp.update, "resample", spy)
        unclaimed = np.zeros(m, dtype=bool)
        unclaimed[~transferred] = rng.random(m - transferred.sum()) < 0.8
        recycled = [BernoulliTrack(Label(1, 1), 0.5, pdf_at(0.0))]
        update_phd(recycled, beta[unclaimed], _rows_of(cells, unclaimed), phd, pd, 64, rng)
        assert np.array_equal(
            weights[0], dense_phd_weights(phd, pd, beta[unclaimed], table[unclaimed]))

    def test_claimed_rows_with_infinite_cells_are_dropped(self, monkeypatch):
        # an infinite normalizer makes every cell inf, and the track claims both
        # measurements: their rows must not reach the intensity, where an
        # infinite cell would make the weights non-finite
        @dataclass(frozen=True)
        class InfiniteNorm(SensorModel):
            def _frame_terms(self, frame):
                zr, zb, _ = super()._frame_terms(frame)
                return zr, zb, np.inf

        @dataclass(frozen=True)
        class NoBirths(BirthModel):
            def sample_phd(self, prev_measurements, motion, sensor, rng):
                return PoissonPhd.empty()

        sensor = InfiniteNorm()
        models = Models(MotionModel(sigma_u=0.0, p_survival=1.0), sensor,
                        ClutterModel(mean_count=2.0, max_range=300.0), NoBirths())
        states = np.tile([10.0, 20.0, 0.0, 0.0], (8, 1))
        rho, theta = sensor.range_bearing(states[0])
        frame = [Measurement(float(rho), float(theta)),
                 Measurement(float(rho) + 1.0, float(theta))]
        track = BernoulliTrack(Label(1, 1), 0.8, ParticleSet(states, np.full(8, 1 / 8)))
        state = FilterState((track,), PoissonPhd(ParticleSet(states, np.full(8, 0.01))), 1)

        masses = []
        components = lmbp.update.new_components

        def components_spy(*args):
            result = components(*args)
            masses.append(result[1])
            return result

        monkeypatch.setattr(lmbp.update, "new_components", components_spy)
        seen = []
        real = lmbp.update.update_phd

        def spy(recycled, beta, cells, *args):
            seen.append((beta.copy(), cells[0].copy()))
            return real(recycled, beta, cells, *args)

        monkeypatch.setattr(lmbp.update, "update_phd", spy)
        with np.errstate(invalid="ignore", over="ignore"):
            out = lmbp_step(state, frame, models, Thresholds(), np.random.default_rng(0),
                            settings=small_settings())
        [(beta, row)] = seen
        assert np.isinf(masses[0]).all()
        assert beta.size == 0 and row.size == 0
        assert np.isfinite(out.phd.particles.weights).all()
        assert out.tracks == ()


def micro_models(pd_const=0.5, p_survival=1.0, mean_births=0.0, mean_clutter=2.0,
                 birth_budget=64):
    motion = MotionModel(sigma_u=0.0, p_survival=p_survival)
    sensor = ConstantPdSensor(pd_const=pd_const)
    clutter = ClutterModel(mean_count=mean_clutter, max_range=300.0)
    birth = BirthModel(mean_births=mean_births, particle_budget=birth_budget)
    return Models(motion, sensor, clutter, birth)


def small_settings(marginals="bp"):
    return FilterSettings(track_particles=64, phd_particles=128, marginals=marginals)


class TestLmbpStep:
    def test_empty_frame_closed_form_miss_update(self):
        # r' = r pD_miss: 0.8*0.5 / (1 - 0.8 + 0.8*0.5) = 2/3
        track = BernoulliTrack(Label(1, 1), 0.8, pdf_at(10.0, n=8))
        state = FilterState((track,), PoissonPhd.empty(), 1)
        models = micro_models(pd_const=0.5, p_survival=1.0)
        out = lmbp_step(state, [], models, Thresholds(), np.random.default_rng(0),
                        settings=small_settings())
        assert out.time == 2
        assert len(out.tracks) == 1
        assert out.tracks[0].label == Label(1, 1)
        assert out.tracks[0].existence == pytest.approx(2 / 3, abs=1e-12)

    def test_prediction_drops_dead_tracks_and_raises_on_faults(self):
        @dataclass(frozen=True)
        class NanSurvival(MotionModel):
            def survival_prob(self, states):
                return np.full(np.asarray(states).shape[:-1], np.nan)

        track = BernoulliTrack(Label(1, 1), 0.8, pdf_at(10.0, n=8))
        state = FilterState((track,), PoissonPhd.empty(), 1)
        dead = micro_models(p_survival=0.0)
        out = lmbp_step(state, [], dead, Thresholds(), np.random.default_rng(0),
                        settings=small_settings())
        assert out.tracks == ()
        faulty = Models(NanSurvival(sigma_u=0.0), dead.sensor, dead.clutter, dead.birth)
        with pytest.raises(ValueError):
            lmbp_step(state, [], faulty, Thresholds(), np.random.default_rng(0),
                      settings=small_settings())

    def test_resampling_stays_on_predicted_particles(self, monkeypatch):
        # the legacy updates resample their own predicted particles, in one
        # batched call, and the intensity is resampled once, from its predicted
        # particles plus those of the recycled tracks (which come back at the
        # track budget)
        import lmbp.update

        batches, calls = [], []
        real_rows, real = lmbp.update.resample_rows, lmbp.update.resample

        def rows_spy(rows, count, rng):
            batches.append([(len(weights), count) for weights, _ in rows])
            return real_rows(rows, count, rng)

        def spy(pset, target_count, rng):
            calls.append((len(pset), target_count))
            return real(pset, target_count, rng)

        monkeypatch.setattr(lmbp.update, "resample_rows", rows_spy)
        monkeypatch.setattr(lmbp.update, "resample", spy)
        tracks = (BernoulliTrack(Label(1, 1), 0.8, pdf_at(50.0, n=8)),
                  BernoulliTrack(Label(1, 2), 0.02, pdf_at(200.0, n=8)))
        state = FilterState(tracks, PoissonPhd(pdf_at(100.0, n=32, weight=0.3)), 1)
        models = micro_models(pd_const=0.6)
        rho, theta = models.sensor.range_bearing(np.array([50.0, 0.0, 0.0, 0.0]))
        out = lmbp_step(state, [Measurement(float(rho), float(theta))], models,
                        Thresholds(), np.random.default_rng(0), settings=small_settings())
        recycled = {Label(1, 1), Label(1, 2)} - set(out.labels())
        assert recycled == {Label(1, 2)}
        assert batches == [[(8, 64), (8, 64)]]
        predicted_count = 32 + models.birth.particle_budget
        assert calls == [(predicted_count + 64 * len(recycled), 128)]

    def test_detection_pdfs_only_where_the_marginal_is_nonzero(self, monkeypatch):
        # gamma_c = 0 clusters every pair with b > 0: track 1 joins track 0's
        # measurement 0 to measurement 1, which track 0 cannot explain, so
        # that pair (key 2 of track 0's marginal) is in the cluster with b = 0
        # and gets a zero marginal, and only the other pairs may have a pdf built
        built, updates = [], []
        detection = TrackEvidence._detection
        terms = TrackEvidence.terms

        def detection_spy(evidence, i, m):
            built.append((i, m))
            return detection(evidence, i, m)

        def terms_spy(evidence, i, pmf, cols):
            result = terms(evidence, i, pmf, cols)
            updates.append((i, dict(zip([0] + [m + 1 for m in cols], pmf)), result))
            return result

        monkeypatch.setattr(TrackEvidence, "_detection", detection_spy)
        monkeypatch.setattr(TrackEvidence, "terms", terms_spy)
        models = micro_models(pd_const=0.7)
        tracks = tuple(BernoulliTrack(Label(1, i + 1), 0.6, pdf_at(x1, n=8))
                       for i, x1 in enumerate((100.0, 145.0, 250.0)))
        frame = [Measurement(float(rho), float(theta)) for rho, theta in zip(
            *models.sensor.range_bearing(np.array([[100.0, 0.0, 0.0, 0.0],
                                                   [190.0, 0.0, 0.0, 0.0],
                                                   [0.0, 200.0, 0.0, 0.0]])))]
        lmbp_step(FilterState(tracks, PoissonPhd.empty(), 1), frame, models,
                  Thresholds(gamma_c=0.0), np.random.default_rng(0), settings=small_settings())
        assert [i for i, _, _ in updates] == [0, 1, 2]
        nonzero = [(i, m) for i, marginal, _ in updates
                   for m, p in marginal.items() if m and p > 0.0]
        zero = [(i, m) for i, marginal, _ in updates
                for m, p in marginal.items() if m and p == 0.0]
        assert nonzero and (0, 2) in zero
        assert built == nonzero
        for i, marginal, result in updates:
            # detection terms have existence 1: p(a) r(i,a) is the marginal itself
            assert [p for p, _ in result[1:]] == [marginal[m] for j, m in nonzero if j == i]
            assert all(len(weights) == 8 for _, weights in result[1:])

    def test_unsupported_measurement_absorbed_with_zero_weight(self):
        # intensity far from the measurement: d = 0, no transfer, and the
        # unclaimed component adds nothing to the updated intensity
        phd = PoissonPhd(pdf_at(250.0, n=32, weight=0.4))
        state = FilterState((), phd, 0)
        models = micro_models(pd_const=0.5)
        z = Measurement(10.0, 0.0)  # ~240 units from the particles
        out = lmbp_step(state, [z], models, Thresholds(), np.random.default_rng(0),
                        settings=small_settings())
        assert out.tracks == ()
        assert out.phd.mean == pytest.approx(0.2, abs=1e-9)

    def test_out_of_disk_measurement_is_dropped(self):
        # no clutter and no intensity beyond the sensor disk (beta = 0): the
        # step runs as if the measurement were not in the frame, with an
        # empty intensity and with one populated near the later measurements,
        # whose cells move up a row: one is transferred and one unclaimed
        models = Models(MotionModel(), SensorModel(), ClutterModel(), BirthModel())
        frame = [Measurement(100.0, 0.0), Measurement(150.0, 0.5), Measurement(200.0, -1.0)]
        rng = np.random.default_rng(1)
        states, weights = [], []
        for z, mass in zip(frame[1:], (0.5, 1e-5)):
            centre = models.sensor.position + z.range * np.array([np.cos(z.bearing),
                                                                  np.sin(z.bearing)])
            states.append(np.hstack([centre + rng.normal(0.0, 1.0, (200, 2)),
                                     np.zeros((200, 2))]))
            weights.append(np.full(200, mass / 200))
        populated = PoissonPhd(ParticleSet(np.concatenate(states), np.concatenate(weights)))

        def snapshot(phd, frame):
            out = io.StringIO()
            write_snapshot(lmbp_step(FilterState((), phd, 0), frame, models, Thresholds(),
                                     np.random.default_rng(7)), out)
            return out.getvalue()

        for phd in (PoissonPhd.empty(), populated):
            expected = snapshot(phd, frame)
            assert snapshot(phd, frame[:1] + [Measurement(400.0, 0.0)] + frame[1:]) == expected
        assert "track,1,2," in expected and "track,1,3," not in expected

    @pytest.mark.parametrize("bad", [(np.nan, 0.2), (np.inf, 0.2), (120.0, np.nan)])
    def test_non_finite_measurement_is_dropped_and_seeds_no_birth(self, bad):
        # the step drops the measurement (its beta is nan), and the next
        # step's birth proposal draws from the finite measurements only
        models = Models(MotionModel(), SensorModel(), ClutterModel(), BirthModel())
        frames = [[Measurement(100.0, 0.5), Measurement(*bad)], [Measurement(100.5, 0.5)]]
        state, prev, rng = FilterState((), PoissonPhd.empty(), 0), (), np.random.default_rng(3)
        for frame in frames:
            state = lmbp_step(state, frame, models, Thresholds(), rng, prev_frame=prev,
                              settings=small_settings())
            prev = frame
            sets = [track.pdf for track in state.tracks] + [state.phd.particles]
            assert all(np.isfinite(pdf.states).all() for pdf in sets)
        assert state.tracks

    def test_step_builds_no_dense_likelihood_table(self, monkeypatch):
        # the intensity evidence stays in cells: a few steps of a small
        # simulated scenario never ask for the dense (M, N) table
        def dense(*args):
            raise AssertionError("lmbp_step built a dense likelihood table")

        monkeypatch.setattr(SensorModel, "likelihood_table", dense)
        config = build_run_config({"scenario.object_count": "2", "scenario.appear_min": "1",
                                   "scenario.appear_max": "2", "scenario.total_steps": "4",
                                   "clutter.mean_count": "5", "birth.particles": "256",
                                   "filter.track_particles": "128",
                                   "filter.phd_particles": "256", "run.seed": "99"})
        rng = np.random.default_rng(99)
        truth = generate_truth(config.scenario, rng)
        frames = generate_frames(truth, config.scenario.sensor, config.scenario.clutter, rng)
        state, prev = initial_state(config, rng), ()
        for frame in frames:
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
        assert state.time == 4 and state.tracks

    def test_one_labelling_per_step(self, monkeypatch):
        # `track_evidence` labels the plausible pairs once and `partition`
        # only reads that labelling, also on steps whose gate defers pairs
        # and evaluates some of them inside a cluster
        joined, calls, deferred = Counter(), Counter(), []
        count_joined_rows(monkeypatch, joined)

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                result = real(*args)
                if name == "track_evidence":
                    deferred.append(int(result.deferred.sum()))
                return result

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((lmbp.association, "_components"), (lmbp.update, "partition"),
                            (lmbp.update, "track_evidence")):
            spy(owner, name)
        config = build_run_config({"scenario.object_count": "3", "scenario.appear_min": "1",
                                   "scenario.appear_max": "2", "scenario.total_steps": "6",
                                   "sensor.sigma_range": "5", "sensor.sigma_bearing_deg": "5",
                                   "clutter.mean_count": "12", "birth.particles": "256",
                                   "filter.track_particles": "128",
                                   "filter.phd_particles": "256", "run.seed": "1"})
        rng = np.random.default_rng(1)
        truth = generate_truth(config.scenario, rng)
        frames = generate_frames(truth, config.scenario.sensor, config.scenario.clutter, rng)
        state, prev = initial_state(config, rng), ()
        for frame in frames:
            calls.clear()
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
            assert calls == {"_components": 1, "partition": 1, "track_evidence": 1}
        assert sum(deferred) > 0 and joined["deferred evaluated"] > 0

    @pytest.mark.parametrize("marginals", ["bp", "exact"])
    def test_one_bp_batch_per_step(self, marginals, monkeypatch):
        # BP marginalizes every cluster of a step in one batch; in BP mode the
        # step builds no `Cluster` or `MarginalAssociation` and calls neither
        # the one-cluster `bp_marginals` nor `np.ix_`
        calls = Counter()

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((lmbp.update, "batch_bp_marginals"), (lmbp.update, "Cluster"),
                            (lmbp.update, "bp_marginals"), (lmbp.association, "bp_marginals"),
                            (lmbp.association, "MarginalAssociation"), (np, "ix_")):
            spy(owner, name)
        config = build_run_config({"scenario.object_count": "3", "scenario.appear_min": "1",
                                   "scenario.appear_max": "2", "scenario.total_steps": "8",
                                   "sensor.sigma_range": "5", "sensor.sigma_bearing_deg": "5",
                                   "clutter.mean_count": "12", "birth.particles": "256",
                                   "filter.track_particles": "128",
                                   "filter.phd_particles": "256", "filter.marginals": marginals,
                                   "run.seed": "1"})
        rng = np.random.default_rng(1)
        truth = generate_truth(config.scenario, rng)
        frames = generate_frames(truth, config.scenario.sensor, config.scenario.clutter, rng)
        state, prev, clusters = initial_state(config, rng), (), 0
        for frame in frames:
            calls.clear()
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
            assert calls["batch_bp_marginals"] == 1
            if marginals == "bp":
                assert set(calls) == {"batch_bp_marginals"}
            clusters += calls["Cluster"]
        assert state.tracks
        assert (clusters > 0) == (marginals == "exact")

    def test_first_step_creates_tracks_only_via_transfers(self):
        rng = np.random.default_rng(3)
        phd = PoissonPhd(pdf_at(52.0, n=256, weight=5.0))  # strong unlabeled evidence
        state = FilterState((), phd, 0)
        models = micro_models(pd_const=0.9, mean_clutter=0.5)
        rho, theta = models.sensor.range_bearing(np.array([52.0, 0.0, 0.0, 0.0]))
        frame = [Measurement(float(rho), float(theta))]
        out = lmbp_step(state, frame, models, Thresholds(), rng,
                        settings=small_settings())
        assert len(out.tracks) == 1
        assert out.tracks[0].label == Label(1, 1)
        assert out.tracks[0].existence > 0.5

    def test_label_continuity_over_random_steps(self):
        rng = np.random.default_rng(4)
        models = micro_models(pd_const=0.7, p_survival=0.95, mean_births=0.05,
                              mean_clutter=3.0)
        state = FilterState((), PoissonPhd(pdf_at(30.0, n=64, weight=0.1)), 0)
        prev_frame = []
        for k in range(1, 12):
            frame = [Measurement(float(rng.uniform(0, 300)),
                                 float(rng.uniform(-np.pi, np.pi)))
                     for _ in range(rng.integers(0, 5))]
            before = set(state.labels())
            state = lmbp_step(state, frame, models, Thresholds(), rng,
                              prev_frame=prev_frame, settings=small_settings())
            prev_frame = frame
            for label in state.labels():
                assert label in before or label.birth_time == k
                assert 1 <= label.index
            assert len(set(state.labels())) == len(state.labels())

    def test_raising_gamma_leg_never_keeps_more(self):
        rng_master = np.random.default_rng(5)
        models = micro_models(pd_const=0.6, p_survival=0.9, mean_clutter=2.0)
        for trial in range(10):
            tracks = []
            for i in range(int(rng_master.integers(1, 5))):
                tracks.append(BernoulliTrack(Label(1, i + 1),
                                             float(rng_master.uniform(0.01, 1.0)),
                                             pdf_at(float(rng_master.uniform(0, 200)),
                                                    n=16)))
            phd = PoissonPhd(pdf_at(100.0, n=32, weight=0.2))
            state = FilterState(tuple(tracks), phd, 1)
            frame = [Measurement(float(rng_master.uniform(0, 300)),
                                 float(rng_master.uniform(-np.pi, np.pi)))
                     for _ in range(int(rng_master.integers(0, 4)))]
            seed = int(rng_master.integers(0, 2**32))
            counts = []
            for gamma_leg in (1e-3, 1e-2, 1e-1, 0.5):
                out = lmbp_step(state, frame, models,
                                Thresholds(gamma_leg=gamma_leg),
                                np.random.default_rng(seed),
                                settings=small_settings())
                counts.append(len(out.tracks))
            assert counts == sorted(counts, reverse=True)

    def test_single_track_matches_bernoulli_filter_closed_form(self):
        # with an empty unlabeled intensity the marginalized update must
        # reduce to the classical single-target Bernoulli filter posterior:
        #   r' = r_pred (c + sum_m b_m / lam_m)
        #        / (1 - r_pred + r_pred c + r_pred sum_m b_m / lam_m)
        rng_master = np.random.default_rng(21)
        for trial in range(20):
            n = 32
            states = np.zeros((n, 4))
            states[:, 0] = rng_master.uniform(20, 260)
            states[:, 1] = rng_master.normal(0, 3, n)
            pdf = ParticleSet(states, np.full(n, 1.0 / n))
            r0 = float(rng_master.uniform(0.2, 0.95))
            track = BernoulliTrack(Label(1, 1), r0, pdf)
            pd = float(rng_master.uniform(0.3, 0.9))
            ps = float(rng_master.uniform(0.8, 1.0))
            models = micro_models(pd_const=pd, p_survival=ps, mean_clutter=3.0)
            frame = []
            for _ in range(int(rng_master.integers(1, 5))):
                pick = states[rng_master.integers(0, n)]
                rho, theta = models.sensor.range_bearing(pick)
                frame.append(Measurement(
                    float(np.clip(rho + rng_master.normal(0, 5), 0, 300)),
                    float(theta + rng_master.normal(0, 0.02))))

            state = FilterState((track,), PoissonPhd.empty(), 1)
            out = lmbp_step(state, frame, models,
                            Thresholds(gamma_c=0.0, gamma_leg=1e-12),
                            np.random.default_rng(100 + trial),
                            settings=small_settings("exact"))

            # closed form from model quantities only (motion is noiseless)
            r_pred = r0 * ps
            ratio = 0.0
            for z in frame:
                b = pd * float(np.mean(likelihood(models.sensor, z, states)))
                ratio += b / float(models.clutter.intensity_at(z.range))
            expected = (r_pred * (1 - pd + ratio)
                        / (1 - r_pred + r_pred * (1 - pd) + r_pred * ratio))
            assert len(out.tracks) == 1
            assert out.tracks[0].existence == pytest.approx(expected, abs=1e-9)

    def test_exact_mode_falls_back_to_bp_on_large_clusters(self):
        # one track plausibly linked to many measurements exceeds the
        # enumeration guard; exact mode must silently use BP and agree with it
        rng = np.random.default_rng(22)
        track = BernoulliTrack(Label(1, 1), 0.7, pdf_at(50.0, n=16))
        state = FilterState((track,), PoissonPhd.empty(), 1)
        models = micro_models(pd_const=0.6, mean_clutter=2.0)
        rho, theta = models.sensor.range_bearing(np.array([50.0, 0.0, 0.0, 0.0]))
        frame = [Measurement(float(rho + rng.normal(0, 3)),
                             float(theta + rng.normal(0, 0.01))) for _ in range(25)]
        out_exact = lmbp_step(state, frame, models, Thresholds(gamma_c=0.0),
                              np.random.default_rng(5), settings=small_settings("exact"))
        out_bp = lmbp_step(state, frame, models, Thresholds(gamma_c=0.0),
                           np.random.default_rng(5), settings=small_settings("bp"))
        assert out_exact.labels() == out_bp.labels()
        for a, b in zip(out_exact.tracks, out_bp.tracks):
            assert a.existence == pytest.approx(b.existence, abs=1e-12)

    def test_exact_and_bp_marginals_agree_on_small_problems(self):
        rng = np.random.default_rng(6)
        track = BernoulliTrack(Label(1, 1), 0.7, pdf_at(50.0, n=32))
        phd = PoissonPhd(pdf_at(50.0, n=64, weight=0.3))
        state = FilterState((track,), phd, 1)
        models = micro_models(pd_const=0.8, mean_clutter=1.0)
        rho, theta = models.sensor.range_bearing(np.array([50.0, 0.0, 0.0, 0.0]))
        frame = [Measurement(float(rho) + 1.0, float(theta))]
        out_exact = lmbp_step(state, frame, models, Thresholds(),
                              np.random.default_rng(42),
                              settings=small_settings("exact"))
        out_bp = lmbp_step(state, frame, models, Thresholds(),
                           np.random.default_rng(42), settings=small_settings("bp"))
        assert out_exact.labels() == out_bp.labels()
        for a, b in zip(out_exact.tracks, out_bp.tracks):
            assert a.existence == pytest.approx(b.existence, abs=1e-9)
