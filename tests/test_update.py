import copy
import dataclasses
import io
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmbp.association
import lmbp.update
from lmbp.association import (
    EXACT_COST_LIMIT,
    Hypothesis,
    Marginals,
    TrackGroup,
    new_components,
    partition,
)
from lmbp.cli import initial_state
from lmbp.config import build_run_config
from lmbp.models import BirthModel, Models, MotionModel, SensorModel, wrap_angle
from lmbp.rfs import (
    PDF_TOL,
    BernoulliTrack,
    FilterState,
    Label,
    Measurement,
    ParticleSet,
    PoissonPhd,
    resample,
    resample_rows,
    write_snapshot,
)
from lmbp.simulate import generate_frames, generate_truth
from lmbp.update import (
    TRANSFER_CUT,
    FilterSettings,
    Thresholds,
    _carried_rows,
    _next_block,
    _rows_of,
    legacy_mixture,
    lmbp_step,
    select_transfers,
    split_by_retention,
    update_legacy_track,
    update_phd,
    update_transferred_track,
)

from helpers import (
    ClusterTables,
    StubSensor,
    block_of,
    block_row,
    carried,
    cells_of,
    dense_new_components,
    dense_phd_weights,
    light_pairs,
    likelihood,
)
from test_association import pass_marginals, within_cost_limit


def pdf_at(x1, n=1, weight=None):
    states = np.zeros((n, 4))
    states[:, 0] = x1
    weights = np.full(n, 1.0 / n) if weight is None else np.full(n, weight / n)
    return ParticleSet(states, weights)


def component(existence, x1=0.0):
    """A one-row block of `select_transfers`: the transfer (7, 1) of one particle."""
    pdf = pdf_at(x1)
    return block_of([(existence, pdf.weights, pdf.states)], birth_time=7)


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
        columns, transferred, fresh = select_transfers(beta, mass, table, states,
                                                       gamma_tr=0.01, time=7)
        assert transferred.tolist() == [True, False, True]
        assert columns.tolist() == [0, 2]
        assert fresh.labels == (Label(7, 1), Label(7, 3))
        comp = block_row(fresh, 0)
        [(support, weights)] = comp.rows()
        assert comp.existence[0] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_array_equal(support, states)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)
        # the fresh transfer enters the block as its row, not drawn to the
        # budget, and draws no uniform
        rng = np.random.default_rng(0)
        track = update_transferred_track(comp, 1.0, 4, rng)
        assert comp.labels[0].birth_time == 7 and track.label == Label(7, 1)
        assert np.array_equal(track.pdf.weights, weights)
        assert np.array_equal(track.pdf.states, support)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_cells_below_the_cut_are_left_out(self):
        # d = 1.5: the cell of exactly TRANSFER_CUT d stays (inclusive), the
        # cell of 2^-60 d and the zero cell go; the weights stay value / d
        table = np.array([[1.0, TRANSFER_CUT * 1.5, 2.0 ** -60 * 1.5, 0.0, 0.5]])
        states = np.arange(20.0).reshape(5, 4)
        *_, fresh = select_transfers(np.full(1, 2.0), np.full(1, 1.5),
                                     cells_of(table, every=True), states,
                                     gamma_tr=0.01, time=7)
        [(support, weights)] = fresh.rows()
        assert TRANSFER_CUT == 2.0 ** -53
        assert np.array_equal(weights, table[0, [0, 1, 4]] / 1.5)
        assert np.array_equal(support, states[[0, 1, 4]])

    def test_nothing_above_threshold(self):
        columns, transferred, fresh = select_transfers(*new_component_rows(0.005, 0.001),
                                                       gamma_tr=0.01, time=7)
        assert columns.size == 0 and transferred.tolist() == [False, False]
        assert fresh.labels == () and fresh.offsets.tolist() == [0] and fresh.weights.size == 0

    def test_boundary_is_inclusive(self):
        columns, transferred, fresh = select_transfers(
            *new_component_rows(1e-2, np.nextafter(1e-2, 0.0)), gamma_tr=1e-2, time=7)
        assert columns.tolist() == [0] and transferred.tolist() == [True, False]
        assert fresh.labels == (Label(7, 1),)


class TestUpdateLegacyTrack:
    label = Label(2, 3)

    def test_pure_miss(self):
        miss = Hypothesis(0.6, 0.25, MISS_PDF.weights)
        out = update_legacy_track(self.label, {0: 1.0}, miss, {}, SUPPORT, 50,
                                  np.random.default_rng(0))
        assert out.existence == pytest.approx(0.25, abs=1e-15)
        assert np.all(np.isin(out.pdf.states[:, 0], [1.0, 2.0]))

    def test_pure_detection(self):
        miss = Hypothesis(0.6, 0.25, MISS_PDF.weights)
        det = {1: Hypothesis(0.3, 1.0, DET_PDF.weights)}
        out = update_legacy_track(self.label, {0: 0.0, 1: 1.0}, miss, det, SUPPORT, 50,
                                  np.random.default_rng(0))
        assert out.existence == pytest.approx(1.0)
        assert np.all(np.isin(out.pdf.states[:, 0], [8.0, 9.0]))

    def test_even_mixture_hand_values(self):
        # p(0) = p(m1) = 0.5, miss existence 0.2: r = 0.6, mixture (1/6, 5/6)
        miss = Hypothesis(0.6, 0.2, MISS_PDF.weights)
        det = {1: Hypothesis(0.3, 1.0, DET_PDF.weights)}
        out = update_legacy_track(self.label, {0: 0.5, 1: 0.5}, miss, det, SUPPORT, 600,
                                  np.random.default_rng(0))
        assert out.existence == pytest.approx(0.6, abs=1e-15)
        frac_miss = float(np.mean(out.pdf.states[:, 0] < 5.0))
        assert frac_miss == pytest.approx(1 / 6, abs=0.01)
        assert abs(out.pdf.total_weight - 1.0) <= PDF_TOL
        assert len(out.pdf) == 600

    @pytest.mark.parametrize("seed", range(5))
    def test_resampled_counts_match_closed_form_weights(self, seed):
        # posterior weights (0.5 * 0.2 * miss + 0.5 * 1.0 * det) / 0.6
        miss = Hypothesis(0.6, 0.2, MISS_PDF.weights)
        det = {1: Hypothesis(0.3, 1.0, DET_PDF.weights)}
        out = update_legacy_track(self.label, {0: 0.5, 1: 0.5}, miss, det, SUPPORT, 600,
                                  np.random.default_rng(seed))
        weights = (0.1 * MISS_PDF.weights + 0.5 * DET_PDF.weights) / 0.6
        np.testing.assert_allclose(weights, [1 / 12, 1 / 12, 5 / 24, 5 / 8])
        assert_systematic_counts(out.pdf, SUPPORT, weights, 600)

    def test_mismatched_lengths_raise(self):
        # a weight row one particle longer lies over other particles than the track's
        miss = Hypothesis(0.6, 0.2, MISS_PDF.weights)
        det = {1: Hypothesis(0.3, 1.0, np.append(DET_PDF.weights, 0.0))}
        with pytest.raises(ValueError, match="particles"):
            update_legacy_track(self.label, {0: 0.5, 1: 0.5}, miss, det, SUPPORT, 600,
                                np.random.default_rng(0))

    def test_zero_mass_returns_dead_track(self):
        miss = Hypothesis(0.6, 0.0, np.empty(0))
        out = update_legacy_track(self.label, {0: 1.0}, miss, {}, SUPPORT, 50,
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
        # the one-particle row is carried at its own length, not drawn to 50
        out = update_transferred_track(component(0.8), 0.5, 50, np.random.default_rng(0))
        assert out.existence == pytest.approx(0.4, abs=1e-15)
        assert len(out.pdf) == 1


class TestOnePassUpdate:
    def test_matches_per_track_updates(self):
        # legacy tracks, one of which has no mixture mass and draws no uniform,
        # and transferred tracks: the step's one resampling pass gives the
        # per-track calls' tracks and leaves the generator where they do
        rng = np.random.default_rng(4)
        support = rng.normal(size=(40, 4))
        miss_w, det_w = rng.random(40), rng.random(40) * (rng.random(40) < 0.5)
        miss = Hypothesis(0.5, 0.3, miss_w / miss_w.sum())
        det = {2: Hypothesis(0.2, 1.0, det_w / det_w.sum())}
        marginals = [{0: 0.4, 2: 0.6}, {0: 0.0, 2: 0.0}, {0: 1.0, 2: 0.0}]
        weights = rng.random(9)
        comp = block_of([(0.7, weights / weights.sum(), support[:9])], birth_time=2)
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        one_by_one = [update_legacy_track(Label(1, i + 1), marginal, miss, det, support, 64, a)
                      for i, marginal in enumerate(marginals)]
        one_by_one += [update_transferred_track(comp, 0.5, 64, a)]
        # the three rows as one block's evidence over the shared support: each
        # row's miss and its detection of measurement 2 (column 1), mass 1
        cuts = np.arange(4) * 40
        group = TrackGroup(cuts, np.tile(miss.weights, 3), np.ones(3),
                           np.full(3, miss.existence), np.arange(3), np.ones(3, np.intp),
                           cuts, np.tile(det[2].weights, 3), np.ones(3))
        legacy = np.array([[m[0], 0.0, m[2] * det[2].existence] for m in marginals])
        r, mixture = legacy_mixture(group, legacy)
        pending = block_of([(row_r, weights, support)
                            for row_r, weights in zip(r.tolist(), mixture.reshape(3, 40))])
        # the step keeps the rows with a pdf only: the dead row is recycled
        one_pass = _next_block(pending, np.array([0, 2]), comp._replace(
            existence=0.5 * comp.existence), 64, b).tracks()
        assert a.random() == b.random()
        assert one_by_one[1].existence == 0.0 and len(one_by_one[1].pdf) == 0
        for x, y in zip(one_by_one[:1] + one_by_one[2:], one_pass, strict=True):
            assert (x.label, x.existence) == (y.label, y.existence)
            assert np.array_equal(x.pdf.states, y.pdf.states)
            assert np.array_equal(x.pdf.weights, y.pdf.weights)


class TestResampleGate:
    """`_next_block` copies a kept row of the budget's length whose effective
    sample size is at least half the budget and resamples every other kept
    row; a recycled row reaches `update_phd` as it is."""

    budget = 64

    def row(self, weights, existence=0.7, birth_time=1):
        """A one-row block of `weights` over random states."""
        states = np.random.default_rng(1).normal(size=(len(weights), 4))
        return block_of([(existence, np.asarray(weights, dtype=float), states)], birth_time)

    def gate(self, p, fresh=False, seed=5):
        """The next block's rows and the generator after the call, with `p`
        the one kept legacy row, or with `p` the one fresh transfer."""
        rng = np.random.default_rng(seed)
        if fresh:
            return _next_block(block_of([]), np.empty(0, np.intp), p, self.budget,
                               rng).rows(), rng
        return _next_block(p, np.zeros(1, np.intp), block_of([]), self.budget, rng).rows(), rng

    def test_healthy_row_is_copied_and_draws_nothing(self):
        weights = np.random.default_rng(2).random(self.budget) + 0.5
        p = self.row(weights / weights.sum())
        [(states, weights)], rng = self.gate(p)
        assert np.array_equal(states, p.states) and np.array_equal(weights, p.weights)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_degenerate_row_is_resampled(self):
        # 8 equal weights among 64: ESS 8 < 32
        weights = np.append(np.full(8, 1 / 8), np.zeros(self.budget - 8))
        p = self.row(weights)
        [(states, out)], rng = self.gate(p)
        [(idx, weight)] = resample_rows([weights], self.budget, np.random.default_rng(5))
        assert np.array_equal(states, p.states[idx]) and np.array_equal(out, np.full(64, weight))
        assert idx.max() < 8
        fresh = np.random.default_rng(5)
        fresh.random(1)
        assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("count", [1, 63, 65, 1000])
    def test_row_of_another_length_is_resampled(self, count):
        # uniform weights: the ESS is the row's length, at least the budget's half from 63 on
        p = self.row(np.full(count, 1.0 / count))
        [(states, weights)], _ = self.gate(p)
        [(idx, weight)] = resample_rows([p.weights], self.budget, np.random.default_rng(5))
        assert np.array_equal(states, p.states[idx])
        assert np.array_equal(weights, np.full(self.budget, weight))

    @pytest.mark.parametrize("count", [1, 63, 64, 1000])
    def test_fresh_row_is_copied_at_its_length_and_draws_nothing(self, count):
        # a degenerate fresh row is carried too: a transfer is never resampled
        weights = np.append(np.full(count - count // 2, 1.0), np.zeros(count // 2))
        p = self.row(weights / weights.sum(), birth_time=2)
        [(states, out)], rng = self.gate(p, fresh=True)
        assert np.array_equal(states, p.states) and np.array_equal(out, p.weights)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_ess_of_exactly_half_the_budget_is_kept(self):
        weights = np.append(np.full(32, 1 / 32), np.zeros(32))
        assert weights.sum() ** 2 / (weights @ weights) == self.budget / 2
        p = self.row(weights)
        [(states, out)], rng = self.gate(p)
        assert np.array_equal(states, p.states) and np.array_equal(out, weights)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_recycled_row_comes_back_with_its_own_arrays(self, monkeypatch):
        # one step of a legacy row below gamma_leg and a track with no pdf
        # left (pD = 1 beyond range 250 and nothing detected, so r = 0): both
        # are recycled and neither is copied nor resampled into the block; the
        # row reaches `update_phd` with its own arrays, the dead track not at all
        seen = {}
        evidence, split = lmbp.update.track_evidence, lmbp.update.split_by_retention
        next_block, phd_update = lmbp.update._next_block, lmbp.update.update_phd

        def evidence_spy(block, *args):
            seen["predicted"] = block
            return evidence(block, *args)

        def split_spy(existence, rows, gamma_leg):
            seen["r"] = existence
            seen["kept"], seen["recycled"] = split(existence, rows, gamma_leg)
            return seen["kept"], seen["recycled"]

        def next_block_spy(pending, kept, fresh, budget, rng):
            seen["before"], seen["pending"] = rng.bit_generator.state, pending
            block = next_block(pending, kept, fresh, budget, rng)
            seen["rows"], seen["after"] = block.rows(), rng.bit_generator.state
            return block

        def phd_spy(tracks, recycled, *args):
            seen["tracks"], seen["to_phd"] = tracks, recycled
            return phd_update(tracks, recycled, *args)

        @dataclass(frozen=True)
        class SureBeyond250(ConstantPdSensor):
            def detection_prob_at(self, rho):
                return np.where(np.asarray(rho) > 250.0, 1.0, self.pd_const)

        monkeypatch.setattr(lmbp.update, "track_evidence", evidence_spy)
        monkeypatch.setattr(lmbp.update, "split_by_retention", split_spy)
        monkeypatch.setattr(lmbp.update, "_next_block", next_block_spy)
        monkeypatch.setattr(lmbp.update, "update_phd", phd_spy)
        weights = np.append(np.full(8, 1 / 8), np.zeros(3))
        tracks = (BernoulliTrack(Label(1, 2), 0.02, ParticleSet(pdf_at(200.0, n=11).states,
                                                                weights)),
                  BernoulliTrack(Label(1, 3), 0.5, pdf_at(280.0, n=8)))
        models = micro_models()
        models = Models(models.motion, SureBeyond250(pd_const=0.6, clutter_mean=2.0),
                        models.birth)
        lmbp_step(FilterState(tracks, PoissonPhd.empty(), 1), [], models, Thresholds(),
                  np.random.default_rng(5), settings=small_settings())
        pending = seen["pending"]
        recycled, dead = seen["recycled"].tolist()
        assert (pending.labels[recycled], pending.labels[dead]) == (Label(1, 2), Label(1, 3))
        assert seen["r"][dead] == 0.0 < seen["r"][recycled]
        assert seen["kept"].size == 0 and seen["rows"] == []
        assert seen["to_phd"].tolist() == [recycled]
        # the step's pending block: the predicted states, the mixture's weights
        assert seen["tracks"] is pending and pending.states is seen["predicted"].states
        assert len(pending.rows()[recycled][1]) == 11
        assert seen["after"] == seen["before"]

    def test_nan_row_still_raises(self):
        weights = np.full(self.budget, 1.0 / self.budget)
        weights[3] = np.nan
        p = self.row(weights)
        with pytest.raises(ValueError, match="degenerate particle set: row 0"):
            self.gate(p)

    @settings(max_examples=200, deadline=None)
    @given(budget=st.integers(min_value=1, max_value=1100),
           lengths=st.lists(st.sampled_from(["budget", "other", "empty"]), max_size=24),
           special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.0]), max_size=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_block_gate_decides_every_row_as_the_row_alone(self, budget, lengths, special,
                                                            seed):
        # rows of the budget's length, of other lengths and empty, in any
        # order, some degenerate, some of an ESS of exactly half the budget,
        # some with NaN or infinite weights: the block's one pass keeps each
        # row that the one-row reference keeps, and no other
        rng = np.random.default_rng(seed)
        sizes = [budget if kind == "budget" else 0 if kind == "empty"
                 else int(rng.integers(1, 2 * budget + 2)) for kind in lengths]
        rows = []
        for size in sizes:
            w = rng.random(size) ** float(rng.choice([1.0, 8.0, 64.0]))
            if size and size % 2 == 0 and rng.random() < 0.3:   # an ESS of half the length
                w = np.append(np.full(size // 2, 2.0 / size), np.zeros(size // 2))
            rows.append(w)
        weights = np.concatenate(rows + [np.empty(0)])
        if weights.size:
            weights[rng.integers(0, weights.size, len(special))] = special
        offsets = np.append(0, np.cumsum(sizes, dtype=np.intp))
        cuts = offsets.tolist()
        with np.errstate(invalid="ignore", over="ignore"):
            expected = [carried(weights[a:b], budget) for a, b in zip(cuts, cuts[1:])]
        # each row's first `budget` weights, as `_next_block` gathers them; a
        # read past the last particle finds NaN
        heads = np.append(weights, np.nan).take(offsets[:-1, None] + np.arange(budget),
                                                mode="clip")
        assert _carried_rows(heads, np.diff(offsets)).tolist() == expected


class TestSplitByRetention:
    def test_low_legacy_recycled(self):
        kept, recycled = split_by_retention(np.array([0.005]), np.array([0]), gamma_leg=0.01)
        assert kept.tolist() == [] and recycled.tolist() == [0]

    def test_fresh_transfer_exempt(self):
        # the step splits its legacy rows only: a transfer of r < gamma_leg,
        # born this step, enters the next block all the same
        kept, recycled = split_by_retention(np.empty(0), np.empty(0, np.intp), gamma_leg=0.01)
        assert kept.size == recycled.size == 0
        fresh = component(0.005)
        block = _next_block(block_of([]), kept, fresh, 4, np.random.default_rng(0))
        assert block.labels == fresh.labels and block.existence.tolist() == [0.005]

    def test_boundary_is_inclusive(self):
        kept, recycled = split_by_retention(np.array([0.01]), np.array([0]), gamma_leg=0.01)
        assert kept.tolist() == [0] and recycled.tolist() == []

    def test_no_track_in_both(self):
        rng = np.random.default_rng(0)
        existence = rng.random(30)
        existence[[3, 7]] = 0.0, np.nan   # a dead track and a NaN one are recycled
        rows = rng.permutation(30)
        kept, recycled = split_by_retention(existence, rows, gamma_leg=0.3)
        assert len(kept) + len(recycled) == 30
        assert not (set(kept.tolist()) & set(recycled.tolist()))
        assert {3, 7} <= set(recycled.tolist())
        # each keeps the order of `rows`
        where = np.argsort(rows)
        assert (np.diff(where[kept]) > 0).all() and (np.diff(where[recycled]) > 0).all()


def recycled_rows(*rows):
    """Recycled tracks as `update_phd` takes them: a block of
    `(existence, pdf)` rows, unchecked, and every row's index."""
    return (block_of([(r, pdf.weights, pdf.states) for r, pdf in rows]),
            np.arange(len(rows)))


def no_rows(n):
    """`new_components` output of no unclaimed measurement over n particles."""
    return np.empty(0), cells_of(np.empty((0, n)))


class TestUpdatePhd:
    def test_blind_sensor_preserves_mass(self):
        phd = PoissonPhd(pdf_at(0.0, n=40, weight=0.7))
        out = update_phd(*recycled_rows(), *no_rows(40), phd, np.zeros(40), 100,
                         np.random.default_rng(0))
        assert out.mean == pytest.approx(0.7, abs=1e-12)

    def test_perfect_sensor_empties_intensity(self):
        phd = PoissonPhd(pdf_at(0.0, n=40, weight=0.7))
        out = update_phd(*recycled_rows(), *no_rows(40), phd, np.ones(40), 100,
                         np.random.default_rng(0))
        assert out.mean == 0.0 and len(out.particles) == 0

    def test_three_term_additivity(self):
        # recycled r 0.3 + unclaimed d / beta = 0.4 / 2 + undetected 0.2 * (1 - 0.5)
        recycled = recycled_rows((0.3, pdf_at(1.0)))
        phd = PoissonPhd(pdf_at(3.0, n=10, weight=0.2))
        out = update_phd(*recycled, np.array([2.0]), cells_of(np.full((1, 10), 0.04)), phd,
                         np.full(10, 0.5), 500, np.random.default_rng(0))
        assert out.mean == pytest.approx(0.3 + 0.2 + 0.1, abs=1e-9)
        assert len(out.particles) == 500

    def test_zero_mass_gives_empty(self):
        out = update_phd(*recycled_rows(), *no_rows(0), PoissonPhd.empty(), np.empty(0), 100,
                         np.random.default_rng(0))
        assert out.mean == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_draws_what_resampling_the_union_draws(self, seed):
        # the states are gathered piece by piece, never concatenated: the
        # result is `resample` of the concatenated union, bit for bit, with
        # pieces of other sizes and zero weights at the seams
        rng = np.random.default_rng(seed)
        phd = PoissonPhd(ParticleSet(rng.normal(size=(50, 4)), rng.random(50) * 0.01))
        pd = np.where(rng.random(50) < 0.2, 1.0, rng.random(50))
        rows = [(r, ParticleSet(rng.normal(size=(n, 4)), np.append(rng.random(n - 1), 0.0)))
                for r, n in [(0.2, 7), (0.01, 1000), (0.5, 3)]]
        # the block holds the three rows and two more, which stay out of the union
        block = block_of([(r, pdf.weights, pdf.states) for r, pdf in rows + rows[:2]])
        out = update_phd(block, np.array([2, 0, 1]), *no_rows(50), phd, pd, 300,
                         np.random.default_rng(seed))
        rows = rows[2:] + rows[:2]
        union = ParticleSet(
            np.concatenate([phd.particles.states] + [pdf.states for _, pdf in rows]),
            np.concatenate([phd.particles.weights * (1.0 - pd)]
                           + [r * pdf.weights for r, pdf in rows]))
        want = resample(union, 300, np.random.default_rng(seed))
        assert np.array_equal(out.particles.states, want.states)
        assert np.array_equal(out.particles.weights, want.weights)

    def test_mass_with_unresampled_recycled_rows(self):
        # recycled rows of unequal weights and of several lengths enter the
        # union as they are: the mass is the README formula,
        # sum((1 - pD) w) + sum_k d_k / beta_k + sum r
        rng = np.random.default_rng(11)
        phd = PoissonPhd(ParticleSet(rng.normal(size=(50, 4)), rng.random(50) * 0.02))
        pd = rng.random(50)
        table = rng.random((3, 50)) * 1e-3 * (rng.random((3, 50)) < 0.5)
        beta = 0.5 + rng.random(3)
        rows = []
        for r, n in [(0.004, 7), (0.009, 64), (0.002, 1), (0.006, 1000)]:
            weights = rng.random(n) ** 4
            rows.append((r, weights / weights.sum(), rng.normal(size=(n, 4))))
        out = update_phd(block_of(rows), np.arange(4), beta, cells_of(table), phd, pd, 300,
                         np.random.default_rng(0))
        want = (((1.0 - pd) * phd.particles.weights).sum() + (table.sum(axis=1) / beta).sum()
                + sum(r for r, _, _ in rows))
        assert out.mean == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_union_weight_raises(self, bad):
        # the check a `ParticleSet` of the union made: finite and nonnegative
        phd = PoissonPhd(pdf_at(0.0, n=10, weight=0.5))
        weights = np.full(4, 0.25)
        weights[2] = bad
        recycled = block_of([(0.5, weights, np.zeros((4, 4)))]), np.zeros(1, np.intp)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            update_phd(*recycled, *no_rows(10), phd, np.zeros(10), 100,
                       np.random.default_rng(0))

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
        recycled = recycled_rows((0.25, ParticleSet(track_states, [0.4, 0.6])))
        out = update_phd(*recycled, beta, cells_of(table),
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
        sensor = StubSensor(pd, lik, clutter_mean=20.0)
        beta, mass, cells = new_components(phd, pd, frame, sensor, sensor.range_bearing(states))
        ref_beta, ref_mass, table = dense_new_components(
            phd, pd, lik, sensor.clutter_intensity_at(np.array([z.range for z in frame])))
        assert np.array_equal(beta, ref_beta) and np.array_equal(mass, ref_mass)

        columns, transferred, fresh = select_transfers(beta, mass, cells, states, 0.1, time=3)
        assert columns.tolist() == np.flatnonzero(transferred).tolist()
        assert len(fresh.labels) == len(columns)
        for t, row in enumerate(columns.tolist()):
            # the cells of the row of at least TRANSFER_CUT d in particle
            # order, over d; the track carries that row, not drawn to 64
            component = block_row(fresh, t)
            assert component.labels == (Label(3, row + 1),)
            kept = table[row] >= TRANSFER_CUT * mass[row]
            dense = table[row] / mass[row]
            [(support, weights)] = component.rows()
            assert np.array_equal(support, states[kept])
            assert np.array_equal(weights, dense[kept])
            track = update_transferred_track(component, 1.0, 64, np.random.default_rng(0))
            assert np.array_equal(track.pdf.weights, dense[kept])
            assert np.array_equal(track.pdf.states, states[kept])

        weights = []
        real = lmbp.update.resample_rows

        def spy(rows, count, gen):
            weights.append(rows[0][:n])  # the predicted particles come first
            return real(rows, count, gen)

        monkeypatch.setattr(lmbp.update, "resample_rows", spy)
        unclaimed = np.zeros(m, dtype=bool)
        unclaimed[~transferred] = rng.random(m - transferred.sum()) < 0.8
        recycled = recycled_rows((0.5, pdf_at(0.0)))
        update_phd(*recycled, beta[unclaimed], _rows_of(cells, unclaimed), phd, pd, 64, rng)
        assert np.array_equal(
            weights[0], dense_phd_weights(phd, pd, beta[unclaimed], table[unclaimed]))

    def test_claimed_rows_with_infinite_cells_are_dropped(self, monkeypatch):
        # an infinite normalizer makes every cell inf, and the track claims both
        # measurements: their rows must not reach the intensity, where an
        # infinite cell would make the weights non-finite. The cluster of
        # non-finite weights gets BP's NaN marginals, so r = 0
        @dataclass(frozen=True)
        class InfiniteNorm(SensorModel):
            def _frame_terms(self, frame):
                zr, zb, _ = super()._frame_terms(frame)
                return zr, zb, np.inf

        @dataclass(frozen=True)
        class NoBirths(BirthModel):
            def sample_phd(self, prev_measurements, motion, sensor, rng):
                return PoissonPhd.empty()

        sensor = InfiniteNorm(clutter_mean=2.0)
        models = Models(MotionModel(sigma_u=0.0, p_survival=1.0), sensor, NoBirths())
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

        def spy(tracks, recycled, beta, cells, *args):
            seen.append((beta.copy(), cells[0].copy()))
            return real(tracks, recycled, beta, cells, *args)

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
    sensor = ConstantPdSensor(pd_const=pd_const, clutter_mean=mean_clutter)
    birth = BirthModel(mean_births=mean_births, particle_budget=birth_budget)
    return Models(motion, sensor, birth)


def small_settings():
    return FilterSettings(track_particles=64, phd_particles=128)


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

    def test_forced_detection_with_nothing_to_detect_raises(self):
        # r = 1 and pD = 1 with an empty frame: the miss weight is 0 and no
        # measurement is left, so every association hypothesis weighs 0; the
        # cluster has no cycle, and BP's marginal is 0 / 0, which raises
        track = BernoulliTrack(Label(1, 1), 1.0, pdf_at(10.0, n=8))
        state = FilterState((track,), PoissonPhd.empty(), 1)
        with pytest.raises(ValueError):
            lmbp_step(state, [], micro_models(pd_const=1.0, p_survival=1.0), Thresholds(),
                      np.random.default_rng(0), settings=small_settings())

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
        faulty = Models(NanSurvival(sigma_u=0.0), dead.sensor, dead.birth)
        with pytest.raises(ValueError):
            lmbp_step(state, [], faulty, Thresholds(), np.random.default_rng(0),
                      settings=small_settings())

    def test_resampling_stays_on_predicted_particles(self, monkeypatch):
        # the kept legacy update resamples its own predicted particles, in one
        # batched call, and the intensity is resampled once, from its predicted
        # particles plus those of the recycled tracks (which come back
        # unresampled, at their predicted count), in a second batched call
        import lmbp.update

        batches = []
        real_rows = lmbp.update.resample_rows

        def rows_spy(rows, count, rng):
            batches.append([(len(weights), count) for weights in rows])
            return real_rows(rows, count, rng)

        monkeypatch.setattr(lmbp.update, "resample_rows", rows_spy)
        tracks = (BernoulliTrack(Label(1, 1), 0.8, pdf_at(50.0, n=8)),
                  BernoulliTrack(Label(1, 2), 0.02, pdf_at(200.0, n=8)))
        state = FilterState(tracks, PoissonPhd(pdf_at(100.0, n=32, weight=0.3)), 1)
        models = micro_models(pd_const=0.6)
        rho, theta = models.sensor.range_bearing(np.array([50.0, 0.0, 0.0, 0.0]))
        out = lmbp_step(state, [Measurement(float(rho), float(theta))], models,
                        Thresholds(), np.random.default_rng(0), settings=small_settings())
        recycled = {Label(1, 1), Label(1, 2)} - set(out.block.labels)
        assert recycled == {Label(1, 2)}
        predicted_count = 32 + models.birth.particle_budget
        assert batches == [[(8, 64)], [(predicted_count + 8 * len(recycled), 128)]]

    def test_fresh_transfer_enters_the_block_at_its_cell_row(self, monkeypatch):
        # a kept legacy row of 8 particles is drawn to the budget of 64; the
        # measurement at the intensity transfers, and its cell row (cut at
        # TRANSFER_CUT d) enters the block last, unresampled: the block's
        # one resampling pass draws the legacy row's uniform only
        seen = {}
        select, next_block = lmbp.update.select_transfers, lmbp.update._next_block

        def select_spy(*args):
            columns, transferred, seen["transfers"] = select(*args)
            return columns, transferred, seen["transfers"]

        def next_block_spy(pending, kept, fresh, budget, rng):
            seen["before"] = copy.deepcopy(rng.bit_generator.state)
            block = next_block(pending, kept, fresh, budget, rng)
            seen["after"] = rng.bit_generator.state
            return block

        monkeypatch.setattr(lmbp.update, "select_transfers", select_spy)
        monkeypatch.setattr(lmbp.update, "_next_block", next_block_spy)
        spread = np.random.default_rng(2).normal(0.0, 3.0, (40, 4)) * [1.0, 1.0, 0.0, 0.0]
        phd = PoissonPhd(ParticleSet(spread + [150.0, 0.0, 0.0, 0.0], np.full(40, 0.02)))
        state = FilterState((BernoulliTrack(Label(1, 1), 0.9, pdf_at(50.0, n=8)),), phd, 1)
        models = micro_models(pd_const=0.9)
        frame = [Measurement(*map(float, models.sensor.range_bearing(np.array(at))))
                 for at in ([150.0, 0.0, 0.0, 0.0], [50.0, 0.0, 0.0, 0.0])]
        out = lmbp_step(state, frame, models, Thresholds(), np.random.default_rng(0),
                        settings=small_settings())
        fresh = seen["transfers"]
        assert fresh.labels == (Label(2, 1),) and out.time == 2   # born this step
        assert out.block.labels == (Label(1, 1), Label(2, 1))
        (_, legacy_weights), (states, weights) = out.block.rows()
        assert len(legacy_weights) == 64 and 0 < len(weights) != 64
        assert np.array_equal(weights, fresh.weights) and np.array_equal(states, fresh.states)
        drawn = np.random.default_rng(0)
        drawn.bit_generator.state = seen["before"]
        drawn.random(1)
        assert seen["after"] == drawn.bit_generator.state

    def test_detection_pdfs_only_where_the_marginal_is_nonzero(self, monkeypatch):
        # gamma_c = 0 clusters every pair with b > 0: track 1 joins track 0's
        # measurement 0 to measurement 1, which track 0 cannot explain, so
        # that pair (entry 2 of track 0's marginal) is in the cluster with
        # b = 0 and gets a zero marginal, and only the other pairs' likelihood
        # runs may be read, to be normalized and mixed
        read, updates, lik = [], [], []
        mixture, take_rows = lmbp.update.legacy_mixture, lmbp.update.take_rows

        def take_spy(arrays, offsets, rows):
            # the pairs whose likelihood runs the mixture gathers
            if any(a is b for a in arrays for b in lik):
                read.extend(rows.tolist())
            return take_rows(arrays, offsets, rows)

        def mixture_spy(group, legacy):
            lik[:] = [group.lik]
            updates.append((group, legacy, mixture(group, legacy)))
            return updates[-1][2]

        monkeypatch.setattr(lmbp.update, "take_rows", take_spy)
        monkeypatch.setattr(lmbp.update, "legacy_mixture", mixture_spy)
        models = micro_models(pd_const=0.7)
        tracks = tuple(BernoulliTrack(Label(1, i + 1), 0.6, pdf_at(x1, n=8))
                       for i, x1 in enumerate((100.0, 145.0, 250.0)))
        frame = [Measurement(float(rho), float(theta)) for rho, theta in zip(
            *models.sensor.range_bearing(np.array([[100.0, 0.0, 0.0, 0.0],
                                                   [190.0, 0.0, 0.0, 0.0],
                                                   [0.0, 200.0, 0.0, 0.0]])))]

        def step(tracks, gamma_c):
            """The step's one group and marginals, and its evaluated pairs:
            only those with a nonzero marginal are read."""
            read.clear()
            updates.clear()
            lmbp_step(FilterState(tracks, PoissonPhd.empty(), 1), frame, models,
                      Thresholds(gamma_c=gamma_c), np.random.default_rng(0),
                      settings=small_settings())
            [(group, legacy, (r, mixed))] = updates
            nonzero = [(i, m) for i in range(3) for m in range(1, 4) if legacy[i, m] > 0.0]
            pairs = list(zip(group.pair_row.tolist(), (group.pair_col + 1).tolist()))
            assert sorted(pairs[k] for k in read) == nonzero
            return group, legacy, r, mixed, nonzero, pairs

        group, legacy, r, mixed, nonzero, _ = step(tracks, 0.0)
        assert group.offsets.tolist() == [0, 8, 16, 24]
        zero = [(i, m) for i in range(3) for m in range(1, 4) if legacy[i, m] == 0.0]
        assert nonzero and (0, 2) in zero
        for i in range(3):
            # detection terms have existence 1: p(a) r(i,a) is the marginal itself
            expected = legacy[i, 0] * group.miss_existence[i]
            for m in (m for j, m in nonzero if j == i):
                expected += legacy[i, m]
            assert r[i] == min(expected, 1.0)
        assert mixed.shape == (24,)
        # at gamma_c = 1e-10, a particle of weight 1e-12 next to measurement 0
        # gives track 2 a pair that is evaluated but too light to be
        # plausible: it weighs nothing (b = 0) and lies outside track 2's
        # cluster, with a zero marginal
        states, weights = np.zeros((8, 4)), np.full(8, (1.0 - 1e-12) / 7)
        states[:, 0], states[0, 0], weights[0] = 250.0, 101.0, 1e-12
        light = BernoulliTrack(Label(1, 3), 0.6, ParticleSet(states, weights))
        group, legacy, *_, pairs = step(tracks[:2] + (light,), 1e-10)
        k = pairs.index((2, 1))
        assert group.lik[group.cuts[k]:group.cuts[k + 1]].sum() > 0.0
        assert group.b[k] == 0.0 and legacy[2, 1] == 0.0

    def test_rows_of_every_group_match_per_row_updates(self, monkeypatch):
        # a block of rows of 8, 5 and 1 particles, each length with a row
        # of two or more terms: every row the step resamples is
        # `update_legacy_track`'s on that row, bit for bit, and drawing the
        # rows one by one leaves a generator where the step's one pass does
        seen = {}
        real_evidence, real_marginals = lmbp.update.track_evidence, lmbp.update.exact_marginals
        real_rows = lmbp.update.resample_rows

        def evidence_spy(block, *args):
            seen["block"], seen["evidence"] = block, real_evidence(block, *args)
            return seen["evidence"]

        def marginals_spy(*args):
            seen["marginals"] = real_marginals(*args)
            return seen["marginals"]

        def rows_spy(rows, count, rng):
            first = "before" not in seen
            if first:
                seen["before"] = copy.deepcopy(rng)
            out = real_rows(rows, count, rng)
            if first:
                seen["after"] = rng.bit_generator.state
            return out

        monkeypatch.setattr(lmbp.update, "track_evidence", evidence_spy)
        monkeypatch.setattr(lmbp.update, "exact_marginals", marginals_spy)
        monkeypatch.setattr(lmbp.update, "resample_rows", rows_spy)
        models = micro_models(pd_const=0.7)
        # two close tracks share two measurements; one track sees nothing
        places = [(100.0, 8), (101.0, 8), (150.0, 5), (250.0, 5), (200.0, 1)]
        tracks = tuple(BernoulliTrack(Label(1, i + 1), 0.6, pdf_at(x1, n=n))
                       for i, (x1, n) in enumerate(places))
        frame = [Measurement(float(rho), float(theta)) for rho, theta in zip(
            *models.sensor.range_bearing(np.array([[x1, 0.0, 0.0, 0.0]
                                                   for x1 in (100.0, 101.0, 150.0, 200.0)])))]
        out = lmbp_step(FilterState(tracks, PoissonPhd.empty(), 1), frame, models,
                        Thresholds(), np.random.default_rng(3), settings=small_settings())
        block, evidence, legacy = seen["block"], seen["evidence"], seen["marginals"].legacy
        assert np.diff(block.offsets).tolist() == [8, 8, 5, 5, 1]
        stepped = dict(zip(out.block.labels, out.tracks))
        replay, multi = seen["before"], set()
        clusters, _ = partition(evidence.row_of, evidence.col_of)
        for rows, cols in clusters:
            for i in rows.tolist():
                miss = evidence.miss(i)
                marginal = {0: legacy[i, 0]} | {1 + j: legacy[i, 1 + j] for j in cols.tolist()}
                detections = {m: evidence.detection(i, m) for m in marginal if m}
                terms = (marginal[0] * miss.existence > 0.0) + sum(
                    marginal[m] > 0.0 and len(hyp.weights) > 0 for m, hyp in detections.items())
                if terms >= 2:
                    multi.add(len(block.rows()[i][1]))
                one = update_legacy_track(block.labels[i], marginal, miss, detections,
                                          block.rows()[i][0], 64, replay)
                track = stepped[one.label]
                assert (one.existence, len(one.pdf)) == (track.existence, len(track.pdf))
                assert np.array_equal(one.pdf.states, track.pdf.states)
                assert np.array_equal(one.pdf.weights, track.pdf.weights)
        assert multi == {8, 5, 1}
        assert len(stepped) == len(tracks)
        assert replay.bit_generator.state == seen["after"]

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

    def test_unexplained_measurement_is_dropped_before_association(self, monkeypatch):
        # without clutter a measurement far from the intensity has beta = 0:
        # the step drops it before association, and the transfer from the
        # other takes its index in the kept frame
        models = micro_models(pd_const=0.9, mean_clutter=0.0)
        rho, theta = models.sensor.range_bearing(np.array([52.0, 0.0, 0.0, 0.0]))
        far = models.sensor.range_bearing(np.array([-150.0, 0.0, 0.0, 0.0]))
        frame = [Measurement(float(far[0]), float(far[1])), Measurement(float(rho), float(theta))]
        assert models.sensor.screen(frame) == frame
        seen = {}
        real_components, real_evidence = lmbp.update.new_components, lmbp.update.track_evidence

        def components_spy(*args):
            out = real_components(*args)
            seen["beta"] = out[0]
            return out

        def evidence_spy(block, frame, *args):
            seen["frame"] = list(frame)
            return real_evidence(block, frame, *args)

        monkeypatch.setattr(lmbp.update, "new_components", components_spy)
        monkeypatch.setattr(lmbp.update, "track_evidence", evidence_spy)
        state = FilterState((), PoissonPhd(pdf_at(52.0, n=256, weight=5.0)), 0)
        out = lmbp_step(state, frame, models, Thresholds(), np.random.default_rng(3),
                        settings=small_settings())
        assert (seen["beta"] > 0.0).tolist() == [False, True]
        assert seen["frame"] == frame[1:]
        assert out.block.labels == (Label(1, 1),)

    def test_out_of_disk_measurement_is_dropped(self):
        # the step runs as if a measurement outside the sensor disk were not
        # in the frame: with an empty intensity (beta = 0 beyond the disk),
        # with one populated near the later measurements, whose cells move up
        # a row, so one is transferred and one unclaimed, and with intensity
        # mass near the out-of-disk measurements, where beta = d would give
        # existence d / d = 1 and a certain track
        models = Models(MotionModel(), SensorModel(), BirthModel())
        frame = [Measurement(100.0, 0.0), Measurement(150.0, 0.5), Measurement(200.0, -1.0)]
        outside = [Measurement(400.0, 0.0), Measurement(310.1, 0.0)]
        rng = np.random.default_rng(1)

        def cloud(zs, masses):
            states, weights = [], []
            for z, mass in zip(zs, masses):
                centre = models.sensor.position + z.range * np.array([np.cos(z.bearing),
                                                                      np.sin(z.bearing)])
                states.append(np.hstack([centre + rng.normal(0.0, 1.0, (200, 2)),
                                         np.zeros((200, 2))]))
                weights.append(np.full(200, mass / 200))
            return PoissonPhd(ParticleSet(np.concatenate(states), np.concatenate(weights)))

        populated = cloud(frame[1:], (0.5, 1e-5))
        near_outside = cloud(frame[1:] + outside, (0.5, 1e-5, 0.5, 0.5))

        def snapshot(phd, frame):
            out = io.StringIO()
            write_snapshot(lmbp_step(FilterState((), phd, 0), frame, models, Thresholds(),
                                     np.random.default_rng(7)), out)
            return out.getvalue()

        for phd in (PoissonPhd.empty(), populated, near_outside):
            expected = snapshot(phd, frame)
            assert snapshot(phd, frame[:1] + outside[:1] + frame[1:] + outside[1:]) == expected
            # a populated intensity transfers the second kept measurement only
            assert ("track,1,2," in expected) == (phd.mean > 0) and "track,1,3," not in expected

    @pytest.mark.parametrize("bad", [(np.nan, 0.2), (np.inf, 0.2), (120.0, np.nan),
                                     (-40.0, 0.2), (1e9, 0.2)])
    def test_non_finite_measurement_is_dropped_and_seeds_no_birth(self, bad):
        # the step drops a measurement that is not finite or lies outside the
        # sensor disk, and the next step's birth proposal draws only from the
        # measurements inside the disk with a finite bearing
        models = Models(MotionModel(), SensorModel(), BirthModel())
        frames = [[Measurement(100.0, 0.5), Measurement(*bad)], [Measurement(100.5, 0.5)]]
        state, prev, rng = FilterState((), PoissonPhd.empty(), 0), (), np.random.default_rng(3)
        for frame in frames:
            state = lmbp_step(state, frame, models, Thresholds(), rng, prev_frame=prev,
                              settings=small_settings())
            prev = frame
            sets = [track.pdf for track in state.tracks] + [state.phd.particles]
            assert all(np.isfinite(pdf.states).all() for pdf in sets)
        assert state.tracks
        # every birth particle is seeded from the one good measurement
        birth = models.birth.sample_phd(frames[0], models.motion, models.sensor,
                                        np.random.default_rng(4))
        rho, theta = models.sensor.range_bearing(birth.particles.states)
        assert np.abs(rho - 100.0).max() < 20.0
        assert np.abs(wrap_angle(theta - 0.5)).max() < 0.2

    def test_non_finite_bearing_is_screened_before_any_likelihood(self, monkeypatch):
        # a nan or inf bearing in the frame (and in the birth seeds) changes
        # nothing: no warning, the intensity cells the step evaluates are the
        # clean frame's, where an unscreened one makes all M x N of them
        # evaluated and kept, and the output is the clean frame's
        models = Models(MotionModel(), SensorModel(), BirthModel(particle_budget=256))
        clean = [Measurement(100.0, 0.5), Measurement(150.0, -1.0), Measurement(250.0, 2.0)]
        phd = dataclasses.replace(models.birth, mean_births=3.0).sample_phd(
            clean, models.motion, models.sensor, np.random.default_rng(2))
        state = FilterState((), phd, 0)
        cells, evaluate = [], SensorModel.likelihood_cells

        def spy(self, *args):
            cells.append(evaluate(self, *args))
            return cells[-1]

        monkeypatch.setattr(SensorModel, "likelihood_cells", spy)

        def run(frame):
            cells.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = lmbp_step(state, frame, models, Thresholds(), np.random.default_rng(7),
                                prev_frame=frame, settings=small_settings())
            write_snapshot(out, text := io.StringIO())
            return text.getvalue(), list(cells)

        snapshot, [want] = run(clean)
        assert 0 < want[0].size < len(clean) * len(phd.particles)
        for bad in (np.nan, np.inf, -np.inf):
            got_snapshot, [got] = run(clean[:1] + [Measurement(120.0, bad)] + clean[1:])
            assert got_snapshot == snapshot
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

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
        frames = generate_frames(truth, config.scenario.sensor, rng)
        state, prev = initial_state(config, rng), ()
        for frame in frames:
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
        assert state.time == 4 and state.tracks

    def test_one_labelling_per_step(self, monkeypatch):
        # `track_evidence` labels the plausible pairs once and `partition`
        # only reads that labelling, also on steps whose evidence holds
        # evaluated pairs below gamma_c inside a cluster, which weigh nothing
        calls, light = Counter(), []

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                result = real(*args)
                if name == "track_evidence":
                    light.append(light_pairs(result))
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
                                   "filter.phd_particles": "256", "run.seed": "3"})
        rng = np.random.default_rng(3)
        truth = generate_truth(config.scenario, rng)
        frames = generate_frames(truth, config.scenario.sensor, rng)
        state, prev = initial_state(config, rng), ()
        for frame in frames:
            calls.clear()
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
            assert calls == {"_components": 1, "partition": 1, "track_evidence": 1}
        assert sum(light) > 0

    def test_one_bp_batch_per_step(self, monkeypatch):
        # the step's one `exact_marginals` call marginalizes every cluster it
        # does not solve by the pass in one BP batch, never through the
        # one-cluster `bp_marginals`. It gathers the tables (`np.ix_`) of the
        # clusters of two or more rows and columns within the cost limit only,
        # solves those that are cyclic and finite, and writes each solved
        # cluster's marginals with one more `np.ix_`
        calls, listed, seen = Counter(), [], np.zeros(2, int)

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                if name == "exact_marginals":
                    listed.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((lmbp.update, "exact_marginals"),
                            (lmbp.association, "batch_bp_marginals"),
                            (lmbp.update, "bp_marginals"), (lmbp.association, "bp_marginals"),
                            (lmbp.association, "_pass_marginals"), (np, "ix_")):
            spy(owner, name)
        config = build_run_config({"scenario.object_count": "3", "scenario.appear_min": "1",
                                   "scenario.appear_max": "2", "scenario.total_steps": "8",
                                   "sensor.sigma_range": "5", "sensor.sigma_bearing_deg": "5",
                                   "clutter.mean_count": "12", "birth.particles": "256",
                                   "filter.track_particles": "128",
                                   "filter.phd_particles": "256", "run.seed": "1"})
        rng = np.random.default_rng(1)
        truth = generate_truth(config.scenario, rng)
        frames = generate_frames(truth, config.scenario.sensor, rng)
        state, prev = initial_state(config, rng), ()
        for frame in frames:
            calls.clear()
            listed.clear()
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
            counts = dict(calls)
            assert counts["exact_marginals"] == 1 and counts["batch_bp_marginals"] == 1
            [(miss_beta, betas, new_beta, transferred, clusters)] = listed
            gathered = [c for c in (ClusterTables(miss_beta[rows], betas[np.ix_(rows, cols)],
                                                  new_beta[cols], transferred[cols])
                                    for rows, cols in clusters) if within_cost_limit(c)]
            cyclic = [c for c in gathered if np.count_nonzero(c.det_beta) >= sum(c.det_beta.shape)
                      and all(np.isfinite(t).all() for t in c[:3])]
            assert counts.get("ix_", 0) == len(gathered) + len(cyclic)
            assert counts.get("_pass_marginals", 0) == len(cyclic)
            assert set(counts) <= {"exact_marginals", "batch_bp_marginals", "ix_",
                                   "_pass_marginals"}
            seen += len(gathered), len(cyclic)
        assert state.tracks and seen.all()

    def test_marginals_equal_the_pass_within_the_cost_limit(self, monkeypatch):
        # a short rendezvous run (ts2: 10 objects meet at step 15, clutter
        # rate 150, pD 0.5): the step's marginals of every cluster within the
        # pass's cost limit are the pass's, to 1e-12, and bit for bit on the
        # cyclic ones it solves; BP gives those of the acyclic ones. Some
        # solved clusters lie beyond the old enumeration's 20 pairs, and some
        # clusters beyond the cost limit are left to BP
        seen, solved = [], []
        marginals = lmbp.update.exact_marginals
        real_pass = lmbp.association._pass_marginals

        def marginals_spy(*args):
            seen.append((args, marginals(*args)))
            return seen[-1][1]

        def pass_spy(*tables):
            solved.append(tables[1].size)
            return real_pass(*tables)

        monkeypatch.setattr(lmbp.update, "exact_marginals", marginals_spy)
        monkeypatch.setattr(lmbp.association, "_pass_marginals", pass_spy)
        config = build_run_config({"scenario.style": "ts2", "scenario.object_count": "10",
                                   "scenario.appear_min": "1", "scenario.appear_max": "5",
                                   "scenario.disappear_after": "40", "scenario.total_steps": "25",
                                   "scenario.rendezvous_step": "15", "sensor.pd_max": "0.5",
                                   "clutter.mean_count": "150", "thresholds.gamma_tr": "1e-3",
                                   "thresholds.gamma_leg": "1e-3", "birth.particles": "2000",
                                   "filter.track_particles": "300",
                                   "filter.phd_particles": "2000", "run.seed": "1"})
        rng = np.random.default_rng(1)
        truth = generate_truth(config.scenario, rng)
        frames = generate_frames(truth, config.scenario.sensor, rng)
        state, prev = initial_state(config, rng), ()
        for frame in frames:
            state = lmbp_step(state, frame, config.models, config.thresholds, rng,
                              prev_frame=prev, settings=config.settings)
            prev = frame
        assert max(solved) > 20
        within = beyond = 0
        for (miss, betas, new, transferred, clusters), (legacy, claim) in seen:
            for rows, cols in clusters:
                cluster = ClusterTables(miss[rows], betas[np.ix_(rows, cols)], new[cols],
                                        transferred[cols])
                E, K = sorted((len(rows), len(cols)))
                if K * E * 2 ** E > EXACT_COST_LIMIT:
                    beyond += 1
                    continue
                within += 1
                want = pass_marginals(cluster)
                got = Marginals(legacy[np.ix_(rows, np.append(0, 1 + cols))], claim[cols])
                if np.count_nonzero(cluster.det_beta) >= len(rows) + len(cols):
                    assert np.array_equal(got.legacy, want.legacy)
                    assert np.array_equal(got.claim, want.claim)
                np.testing.assert_allclose(got.legacy, want.legacy, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(got.claim, want.claim, rtol=0.0, atol=1e-12)
        assert within > len(solved) > 0 and beyond > 0

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
            before = set(state.block.labels)
            state = lmbp_step(state, frame, models, Thresholds(), rng,
                              prev_frame=prev_frame, settings=small_settings())
            prev_frame = frame
            for label in state.block.labels:
                assert label in before or label.birth_time == k
                assert 1 <= label.index
            assert len(set(state.block.labels)) == len(state.block.labels)

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
                            settings=small_settings())

            # closed form from model quantities only (motion is noiseless)
            r_pred = r0 * ps
            ratio = 0.0
            for z in frame:
                b = pd * float(np.mean(likelihood(models.sensor, z, states)))
                ratio += b / float(models.sensor.clutter_intensity_at(z.range))
            expected = (r_pred * (1 - pd + ratio)
                        / (1 - r_pred + r_pred * (1 - pd) + r_pred * ratio))
            assert len(out.tracks) == 1
            assert out.tracks[0].existence == pytest.approx(expected, abs=1e-9)


class TestBlockStep:
    """The step carries the tracks as one block and builds no per-track object."""

    @staticmethod
    def state_of(count):
        # tracks spread in range, measured by a frame of every other one
        tracks = tuple(BernoulliTrack(Label(1, i + 1), 0.3 + 0.6 * (i % 2),
                                      pdf_at(20.0 + 12 * i, n=8)) for i in range(count))
        return FilterState(tracks, PoissonPhd(pdf_at(100.0, n=32, weight=0.3)), 1), tracks

    def test_no_per_track_objects_inside_the_step(self, monkeypatch):
        models = micro_models(pd_const=0.6, mean_births=0.1)
        built = Counter()
        for cls in (BernoulliTrack, ParticleSet):
            def spy(obj, post_init=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", spy)
        sets = {}
        for count in (2, 20):
            state, tracks = self.state_of(count)
            assert all(a is b for a, b in zip(state.tracks, tracks))
            frame = [Measurement(*map(float, models.sensor.range_bearing(
                np.array([20.0 + 12 * i, 0.0, 0.0, 0.0])))) for i in range(0, count, 2)]
            built.clear()
            out = lmbp_step(state, frame, models, Thresholds(), np.random.default_rng(count),
                            settings=small_settings())
            assert built["BernoulliTrack"] == 0 and len(out.block.labels) >= count // 2
            sets[count] = built["ParticleSet"]
            first = out.tracks
            assert built["BernoulliTrack"] == len(out.block.labels)
            assert out.tracks is first
            assert built["BernoulliTrack"] == len(out.block.labels)
        assert sets[2] == sets[20]


# ---------------------------------------------------------------------------
# Adversarial frames
# ---------------------------------------------------------------------------

FUZZ_SENSOR = SensorModel(clutter_mean=5.0)
# measurements the intensity is seeded from; the last sits next to the disk edge
FUZZ_SEEDS = [Measurement(100.0, 0.3), Measurement(250.0, -2.0), Measurement(299.0, 1.0)]
EDGE_RANGES = [0.0, 300.0, np.nextafter(300.0, 400.0), 310.1, 1e9, -40.0, np.nan, np.inf, -np.inf]
fuzz_measurement = st.one_of(
    # near a seed, so the step transfers and associates; near the edge seed
    # this crosses out of the disk, next to intensity mass
    st.builds(lambda z, dr, db: Measurement(z.range + dr, z.bearing + db),
              st.sampled_from(FUZZ_SEEDS), st.floats(-3.0, 3.0), st.floats(-0.03, 0.03)),
    st.builds(Measurement, st.floats(0.0, 300.0), st.floats(-np.pi, np.pi)),
    st.builds(Measurement, st.sampled_from(EDGE_RANGES),
              st.sampled_from([np.pi, -np.pi, 0.3, np.nan, np.inf])),
)


@st.composite
def fuzz_frame(draw):
    """A frame of mixed measurements, some repeated, in any order; may be empty."""
    frame = draw(st.lists(fuzz_measurement, max_size=8))
    if frame:
        frame += draw(st.lists(st.sampled_from(frame), max_size=3))
    return draw(st.permutations(frame))


@settings(max_examples=25, deadline=None)
@given(frames=st.lists(fuzz_frame(), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adversarial_frames_keep_the_state_invariants(frames, seed):
    # every step's output passes the benchmark's outside checks, every new
    # label indexes an in-disk measurement, and a run on the frames gives the
    # same snapshots as a run on their in-disk parts with finite bearings
    # (with clutter, such a measurement always has beta > 0 and is kept)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from checks import state_problems
    birth = BirthModel(mean_births=0.5, particle_budget=64)
    models = Models(MotionModel(), FUZZ_SENSOR, birth)
    settings_ = FilterSettings(track_particles=32, phd_particles=64)
    phd = dataclasses.replace(birth, mean_births=3.0).sample_phd(
        FUZZ_SEEDS, models.motion, FUZZ_SENSOR, np.random.default_rng(seed))
    kept_frames = [[z for z in frame if FUZZ_SENSOR.covers(z.range) and np.isfinite(z.bearing)]
                   for frame in frames]
    snapshots = []
    for run in (frames, kept_frames):
        state, prev, rng, out = FilterState((), phd, 0), (), np.random.default_rng(seed), []
        for frame, kept in zip(run, kept_frames):
            new = lmbp_step(state, frame, models, Thresholds(), rng, prev_frame=prev,
                            settings=settings_)
            assert state_problems(state, frame, new) == []
            born = [lab.index for lab in new.block.labels if lab.birth_time == new.time]
            assert all(index <= len(kept) for index in born)
            state, prev = new, frame
            write_snapshot(state, text := io.StringIO())
            out.append(text.getvalue())
        snapshots.append(out)
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("sensor", [
    SensorModel(clutter_mean=20.0), SensorModel(clutter_mean=100.0),
    SensorModel(clutter_mean=150.0),
], ids=["clutter-20", "clutter-100", "clutter-150"])
def test_all_clutter_frames_keep_the_state_invariants(sensor):
    # frames of clutter alone at the shipped rates keep every step's output
    # within the benchmark's checks. Three steps at the heaviest rate come
    # first, so the sensor under test meets tracks and an intensity born of
    # clutter
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from checks import state_problems
    birth = BirthModel(mean_births=0.5, particle_budget=64)
    settings_ = FilterSettings(track_particles=32, phd_particles=64)
    rng = np.random.default_rng(23)
    state, prev = FilterState((), PoissonPhd.empty(), 0), ()
    for step_sensor in [SensorModel(clutter_mean=150.0)] * 3 + [sensor] * 5:
        frame = step_sensor.sample_clutter(rng)
        new = lmbp_step(state, frame, Models(MotionModel(), step_sensor, birth), Thresholds(),
                        rng, prev_frame=prev, settings=settings_)
        assert state_problems(state, frame, new) == []
        state, prev = new, frame
    assert state.time == 8
