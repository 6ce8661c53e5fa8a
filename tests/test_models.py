import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from lmbp.cli import initial_state
from lmbp.config import build_run_config
from lmbp.models import BirthModel, ClutterModel, MotionModel, SensorModel, wrap_angle
from lmbp.rfs import Measurement, write_snapshot
from lmbp.simulate import generate_frames, generate_truth
from lmbp.update import lmbp_step

from helpers import cells_of, dense_likelihood_table, table_of


def make_sensor(**kw):
    defaults = dict(position=np.array([0.0, -50.0]), max_range=300.0, sigma_range=2.0,
                    sigma_bearing=np.deg2rad(1.0), pd_max=0.7, pd_scale=450.0)
    defaults.update(kw)
    return SensorModel(**defaults)


class TestMotionModel:
    def test_noiseless_advances_position_by_velocity(self):
        model = MotionModel(sigma_u=0.0)
        out = model.transition_sample(np.array([0.0, 0.0, 1.0, 0.0]),
                                      np.random.default_rng(0))
        np.testing.assert_allclose(out, [1, 0, 1, 0])

    def test_zero_velocity_fixed_point(self):
        model = MotionModel(sigma_u=0.0)
        out = model.transition_sample(np.array([5.0, -3.0, 0.0, 0.0]),
                                      np.random.default_rng(0))
        np.testing.assert_allclose(out, [5, -3, 0, 0])

    def test_noise_covariance_matches_model(self):
        # oracle: Monte-Carlo covariance of A x + W u equals W W^T sigma_u^2
        sigma_u = 0.01
        model = MotionModel(sigma_u=sigma_u)
        rng = np.random.default_rng(1)
        start = np.tile([10.0, -20.0, 0.5, 0.25], (100_000, 1))
        out = model.transition_sample(start, rng)
        expected = model.W @ model.W.T * sigma_u ** 2
        sample_cov = np.cov(out.T)
        scale = sigma_u ** 2
        assert np.all(np.abs(sample_cov - expected) <= 0.1 * scale + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MotionModel(sigma_u=-1.0)
        with pytest.raises(ValueError):
            MotionModel(p_survival=1.2)


class TestDetectionProb:
    def test_peak_at_sensor(self):
        sensor = make_sensor(pd_max=0.7)
        assert sensor.detection_prob(np.array([0.0, -50.0, 0, 0])) == pytest.approx(0.7)

    def test_border_value_ts1(self):
        # 0.7 * exp(-300^2/450^2) = 0.449 at the sensor-disk border
        sensor = make_sensor(pd_max=0.7)
        val = sensor.detection_prob(np.array([300.0, -50.0, 0, 0]))
        assert val == pytest.approx(0.449, abs=5e-4)

    def test_border_value_ts2(self):
        sensor = make_sensor(pd_max=0.5)
        val = sensor.detection_prob(np.array([0.0, 250.0, 0, 0]))
        assert val == pytest.approx(0.320, abs=1e-3)

    def test_monotone_in_distance(self):
        sensor = make_sensor()
        dists = np.linspace(0, 400, 100)
        states = np.zeros((100, 4))
        states[:, 0] = dists
        states[:, 1] = -50.0
        vals = sensor.detection_prob(states)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals > 0) and np.all(vals <= sensor.pd_max)


class TestLikelihood:
    def test_peak_value(self):
        sensor = make_sensor()
        state = np.array([100.0, -50.0, 0, 0])
        rho, theta = sensor.range_bearing(state)
        z = Measurement(float(rho), float(theta))
        expected = 1.0 / (2 * np.pi * sensor.sigma_range * sensor.sigma_bearing)
        assert sensor.likelihood(z, state) == pytest.approx(expected, rel=1e-12)

    def test_bearing_wrap_symmetry(self):
        sensor = make_sensor(sigma_bearing=0.5)
        state = np.array([-100.0, -50.0, 0, 0])  # true bearing = pi
        rho, theta = sensor.range_bearing(state)
        near_pi = sensor.likelihood(Measurement(float(rho), np.pi - 1e-3), state)
        near_minus_pi = sensor.likelihood(Measurement(float(rho), -np.pi + 1e-3), state)
        assert near_pi == pytest.approx(near_minus_pi, rel=1e-6)

    def test_one_sigma_offset(self):
        sensor = make_sensor(sigma_range=2.0, sigma_bearing=np.pi / 180)
        state = np.array([100.0, -50.0, 0, 0])
        rho, theta = sensor.range_bearing(state)
        z = Measurement(float(rho) + 2.0, float(theta))
        peak = 1.0 / (2 * np.pi * sensor.sigma_range * sensor.sigma_bearing)
        assert sensor.likelihood(z, state) == pytest.approx(peak * np.exp(-0.5), rel=1e-12)

    def test_table_matches_single_evaluations(self):
        sensor = make_sensor()
        rng = np.random.default_rng(31)
        states = rng.uniform(-200, 200, (50, 4))
        frame = [Measurement(float(rng.uniform(0, 300)),
                             float(rng.uniform(-np.pi, np.pi))) for _ in range(7)]
        table = sensor.likelihood_table(frame, states)
        for m, z in enumerate(frame):
            np.testing.assert_allclose(table[m], sensor.likelihood(z, states),
                                       rtol=1e-12)

    def test_integrates_to_one(self):
        # numeric quadrature over (range, bearing) within 1%
        sensor = make_sensor()
        state = np.array([120.0, 30.0, 0, 0])
        rho0, _ = sensor.range_bearing(state)
        r_grid = np.linspace(rho0 - 10 * sensor.sigma_range,
                             rho0 + 10 * sensor.sigma_range, 400)
        b_grid = np.linspace(-np.pi, np.pi, 2000, endpoint=False)
        vals = np.array([[sensor.likelihood(Measurement(r, b), state) for r in r_grid]
                         for b in b_grid])
        integral = np.trapezoid(np.trapezoid(vals, r_grid, axis=1), b_grid)
        assert integral == pytest.approx(1.0, rel=0.01)


def states_at(positions):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return np.hstack([positions, np.zeros_like(positions)])


def random_frame(rng, count, max_range=320.0):
    return [Measurement(float(rng.uniform(0.0, max_range)), float(rng.uniform(-np.pi, np.pi)))
            for _ in range(count)]


def random_case(rng):
    """A sensor, a frame and a particle set: a compact track-like cloud, a
    cloud spread over the disk, or a mixture, with a random bearing width."""
    sensor = make_sensor(sigma_range=float(rng.choice([0.5, 2.0, 10.0])),
                         sigma_bearing=float(rng.choice([np.deg2rad(1.0), 0.05, 0.5, 2.0])))
    n = int(rng.integers(0, 3000))
    shape = rng.integers(3)
    spread = sensor.position + rng.uniform(-300.0, 300.0, (n, 2))
    compact = rng.uniform(-250.0, 250.0, 2) + rng.normal(0.0, rng.uniform(0.1, 20.0), (n, 2))
    positions = spread if shape == 0 else compact if shape == 1 else \
        np.where(rng.random((n, 1)) < 0.5, spread, compact)
    return sensor, random_frame(rng, int(rng.integers(0, 120))), states_at(positions)


def assert_table_exact(sensor, frame, states):
    """The likelihood cells and their `likelihood_table` view are both
    bit-identical to the dense reference; the cells are in ascending row
    order, inside the table and each (row, col) once."""
    dense = dense_likelihood_table(sensor, frame, states)
    row, col, value = sensor.likelihood_cells(frame, states)
    assert np.all(np.diff(row) >= 0)
    assert np.all((row >= 0) & (row < dense.shape[0]) & (col >= 0) & (col < dense.shape[1]))
    flat = row * dense.shape[1] + col
    assert np.unique(flat).size == flat.size
    for table in (table_of((row, col, value), dense.shape), sensor.likelihood_table(frame, states)):
        assert np.array_equal(table, dense, equal_nan=True)


@dataclasses.dataclass(frozen=True)
class DenseSensor(SensorModel):
    """Range-bearing sensor whose likelihood cells and rows evaluate every entry."""

    def likelihood_cells(self, frame, states):
        return cells_of(dense_likelihood_table(self, frame, states), every=True)

    def likelihood_rows(self, frame, states):
        """Every (set, measurement) pair, each row from the dense reference."""
        count, n = np.shape(states)[:2]
        rows = np.array([dense_likelihood_table(self, frame, s) for s in states])
        return (np.repeat(np.arange(count), len(frame)), np.tile(np.arange(len(frame)), count),
                rows.reshape(count * len(frame), n))


@pytest.fixture
def window_calls(monkeypatch):
    """Frame sizes of the calls that took the bearing-window path."""
    calls = []
    windowed = SensorModel._windowed_exponents

    def spy(self, zr, *args):
        calls.append(len(zr))
        return windowed(self, zr, *args)

    monkeypatch.setattr(SensorModel, "_windowed_exponents", spy)
    return calls


class TestGatedLikelihoodTable:
    """`likelihood_cells` and its `likelihood_table` view are bit-identical
    to the dense reference; edge cases run with a frame below and one above
    the size that sorts by bearing."""

    SMALL, LARGE = 3, 40

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cases(self, seed):
        assert_table_exact(*random_case(np.random.default_rng(seed)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property(self, seed):
        assert_table_exact(*random_case(np.random.default_rng(seed)))

    def test_empty_frame_and_empty_particle_set(self):
        sensor = make_sensor()
        rng = np.random.default_rng(1)
        states = states_at(rng.uniform(-200.0, 200.0, (50, 2)))
        assert sensor.likelihood_table([], states).shape == (0, 50)
        assert_table_exact(sensor, [], states)
        for count in (self.SMALL, self.LARGE):
            frame = random_frame(rng, count)
            assert sensor.likelihood_table(frame, states_at([])).shape == (count, 0)
            assert_table_exact(sensor, frame, states_at([]))

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    def test_single_particle_and_one_point(self, count, window_calls):
        sensor = make_sensor()
        rng = np.random.default_rng(2)
        target = sensor.position + np.array([80.0, 60.0])
        rho, theta = sensor.range_bearing(states_at(target))
        frame = [Measurement(float(r), float(b)) for r, b in zip(
            rho[0] + rng.normal(0.0, 3.0, count), theta[0] + rng.normal(0.0, 0.03, count))]
        frame[-1] = Measurement(float(rho[0]), float(theta[0]))
        assert_table_exact(sensor, frame, states_at(target))
        assert sensor.likelihood_table(frame, states_at(target))[-1, 0] > 0.0
        window_calls.clear()
        assert_table_exact(sensor, frame, states_at(np.tile(target, (500, 1))))
        assert bool(window_calls) == (count == self.LARGE)

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    def test_bearing_seam(self, count, window_calls):
        # particles at bearing exactly pi (x2 on the sensor's y, x1 behind it)
        # and around the seam, measurements at -pi and just below pi
        sensor = make_sensor(sigma_bearing=0.05)
        rng = np.random.default_rng(3)
        x1 = sensor.position[0] - rng.uniform(1.0, 300.0, 400)
        on_seam = np.column_stack([x1, np.full(400, sensor.position[1])])
        near = on_seam + np.column_stack([np.zeros(400), rng.normal(0.0, 5.0, 400)])
        states = states_at(np.vstack([on_seam, near]))
        assert np.any(sensor.range_bearing(states)[1] == np.pi)
        seam = [Measurement(150.0, -np.pi), Measurement(150.0, np.nextafter(np.pi, 0.0)),
                Measurement(80.0, np.pi), Measurement(80.0, -np.nextafter(np.pi, 0.0))]
        near_seam = [Measurement(float(r), float(wrap_angle(np.pi + b))) for r, b in zip(
            rng.uniform(1.0, 300.0, count), rng.normal(0.0, 0.1, count))]
        frame = near_seam[:count - len(seam)] + seam if count > len(seam) else seam
        assert_table_exact(sensor, frame, states)
        assert np.all(sensor.likelihood_table(frame, states)[-4:].any(axis=1))
        assert bool(window_calls) == (count == self.LARGE)

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    def test_wide_arc_from_the_first_particle(self, count, window_calls):
        # the first particle sits at one end of a bearing arc that reaches
        # almost to pi, so a measurement just past -pi is near the other end
        sensor = make_sensor(sigma_bearing=0.05)
        rng = np.random.default_rng(8)
        bearings = np.concatenate([[0.0], rng.uniform(0.0, 3.05, 999)])
        ranges = rng.uniform(90.0, 110.0, 1000)
        states = states_at(sensor.position + np.column_stack(
            [ranges * np.cos(bearings), ranges * np.sin(bearings)]))
        frame = [Measurement(100.0, float(b)) for b in rng.uniform(0.0, 3.05, count - 1)]
        frame.append(Measurement(100.0, -3.1))
        assert_table_exact(sensor, frame, states)
        assert sensor.likelihood_table(frame, states)[-1].any()
        assert bool(window_calls) == (count == self.LARGE)

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    def test_ranges_zero_and_beyond_max_range(self, count, window_calls):
        sensor = make_sensor()
        rng = np.random.default_rng(4)
        positions = sensor.position + rng.normal(0.0, 3.0, (300, 2))
        positions = np.vstack([positions, sensor.position,
                               sensor.position + rng.uniform(-400.0, 400.0, (300, 2))])
        edges = [Measurement(0.0, 0.0), Measurement(0.0, -np.pi), Measurement(400.0, 1.0),
                 Measurement(1e6, -2.0)]
        frame = edges + random_frame(rng, max(count - len(edges), 0), max_range=500.0)
        assert_table_exact(sensor, frame, states_at(positions))
        assert bool(window_calls) == (count == self.LARGE)

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    def test_window_spans_whole_circle(self, count):
        sensor = make_sensor(sigma_bearing=0.2)  # window half-width ~7.8 rad > pi
        rng = np.random.default_rng(5)
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (2000, 2)))
        assert_table_exact(sensor, random_frame(rng, count), states)

    def test_non_finite_particles_propagate(self):
        sensor = make_sensor()
        rng = np.random.default_rng(6)
        positions = sensor.position + rng.uniform(-300.0, 300.0, (1000, 2))
        positions[7] = np.nan
        positions[8, 0] = np.inf
        assert_table_exact(sensor, random_frame(rng, self.LARGE), states_at(positions))

    def test_overflowing_normalizer(self):
        # 1 / (2 pi sigma_r sigma_b) is inf, so an underflowed entry is nan
        sensor = make_sensor(sigma_range=1e-160, sigma_bearing=1e-160)
        rng = np.random.default_rng(9)
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (1000, 2)))
        frame = random_frame(rng, self.LARGE)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(sensor.likelihood_table(frame, states)).all()
            assert_table_exact(sensor, frame, states)

    @pytest.mark.parametrize("seed", range(3))
    def test_real_budgets(self, seed, window_calls):
        # a 1000-particle track and a ~10k-particle intensity against a
        # 100-measurement frame with the default sensor
        sensor = make_sensor()
        rng = np.random.default_rng(10 + seed)
        frame = random_frame(rng, 100, max_range=300.0)
        rho, theta = sensor.range_bearing(states_at(sensor.position + [50.0, 120.0]))
        frame[0] = Measurement(float(rho[0]), float(theta[0]))
        track = states_at(sensor.position + [50.0, 120.0] + rng.normal(0.0, 2.0, (1000, 2)))
        picks = rng.integers(0, len(frame), 10_000)
        ranges = np.array([frame[i].range for i in picks]) + rng.normal(0.0, 2.0, 10_000)
        bearings = np.array([frame[i].bearing for i in picks]) + rng.normal(0.0, 0.02, 10_000)
        intensity = states_at(sensor.position + np.column_stack(
            [ranges * np.cos(bearings), ranges * np.sin(bearings)]))
        for states in (track, intensity):
            assert_table_exact(sensor, frame, states)
        table = sensor.likelihood_table(frame, track)
        assert table[0].any() and not table.all()
        assert window_calls  # the intensity sorts by bearing

    def test_frame_size_decides_the_bearing_sort(self, window_calls):
        sensor = make_sensor()
        rng = np.random.default_rng(7)
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (5000, 2)))
        assert_table_exact(sensor, random_frame(rng, self.SMALL), states)
        assert window_calls == []
        assert_table_exact(sensor, random_frame(rng, self.LARGE), states)
        assert window_calls == [self.LARGE] * 2  # the cells, then the table view


def assert_rows_exact(sensor, frame, states):
    """`likelihood_rows` keeps each pair once, in (set, measurement) order,
    its rows equal the dense reference, and every pair it leaves out has an
    all-zero dense row."""
    sets, meas, rows = sensor.likelihood_rows(frame, states)
    dense = np.array([dense_likelihood_table(sensor, frame, s) for s in states])
    dense = dense.reshape(len(states), len(frame), np.shape(states)[1])
    assert np.array_equal(rows, dense[sets, meas], equal_nan=True)
    left_out = np.ones(dense.shape[:2], dtype=bool)
    left_out[sets, meas] = False
    assert not dense[left_out].any()
    flat = sets * len(frame) + meas
    assert np.array_equal(flat, np.unique(flat))


class TestLikelihoodRows:
    """`likelihood_rows` over L stacked sets against the dense reference."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(100 + seed)
        sensor, frame, states = random_case(rng)
        count = int(rng.integers(1, 6))
        per_set = len(states) // count
        assert_rows_exact(sensor, frame, states[:count * per_set].reshape(count, per_set, 4))

    def test_each_set_keeps_only_measurements_near_it(self):
        # compact clouds at bearings 0, +-pi (across the seam) and pi/2: each
        # set is bounded from its own first bearing, so the seam cloud, which
        # straddles the antipode of the first cloud, is still a narrow arc
        sensor = make_sensor()
        rng = np.random.default_rng(11)
        centres = sensor.position + np.array([[100.0, 0.0], [-150.0, 0.0], [0.0, 250.0]])
        states = states_at(centres[:, None, :] + rng.normal(0.0, 2.0, (3, 400, 2)))
        states = states.reshape(3, 400, 4)
        rho, theta = sensor.range_bearing(centres)
        frame = [Measurement(float(r), float(b)) for r, b in zip(rho, theta)]
        frame += [Measurement(150.0, 0.0), Measurement(150.0, np.pi / 2)]
        frame += random_frame(rng, 30)
        assert_rows_exact(sensor, frame, states)
        sets, meas, _ = sensor.likelihood_rows(frame, states)
        assert {(0, 0), (1, 1), (2, 2)} <= set(zip(sets.tolist(), meas.tolist()))
        bearings = np.array([z.bearing for z in frame])
        assert np.all(np.abs(wrap_angle(bearings[meas] - theta[sets])) < 1.0)

    def test_empty_frame_no_sets_and_empty_sets(self):
        sensor = make_sensor()
        rng = np.random.default_rng(12)
        frame = random_frame(rng, 5)
        states = states_at(rng.uniform(-99.0, 99.0, (14, 2))).reshape(2, 7, 4)
        assert_rows_exact(sensor, [], states)
        assert_rows_exact(sensor, frame, np.empty((0, 7, 4)))
        assert_rows_exact(sensor, frame, np.empty((2, 0, 4)))

    def test_non_finite_states_measurements_and_normalizer(self):
        rng = np.random.default_rng(13)
        sensor = make_sensor()
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (3 * 300, 2)))
        states = states.reshape(3, 300, 4)
        states[1, 7, 0] = np.nan
        states[2, 8, 1] = np.inf
        frame = random_frame(rng, 20)
        assert_rows_exact(sensor, frame, states)
        with np.errstate(invalid="ignore"):  # inf - inf against the inf state
            assert_rows_exact(sensor, frame[:-1] + [Measurement(np.inf, 0.0)], states)
        tiny = make_sensor(sigma_range=1e-160, sigma_bearing=1e-160)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_rows_exact(tiny, frame, states)
            assert len(tiny.likelihood_rows(frame, states)[0]) == 3 * len(frame)


def test_filter_matches_dense_likelihood_reference():
    """Ten steps of a dense scenario give the same snapshots with the gated
    table as with the dense reference table."""
    config = build_run_config({"scenario.object_count": "10", "scenario.appear_min": "1",
                               "scenario.appear_max": "3", "scenario.total_steps": "10",
                               "clutter.mean_count": "100", "run.seed": "5"})
    truth_rng = np.random.default_rng(11)
    truth = generate_truth(config.scenario, truth_rng)
    frames = generate_frames(truth, config.scenario.sensor, config.scenario.clutter, truth_rng)
    stock = config.models
    dense_sensor = DenseSensor(**{f.name: getattr(stock.sensor, f.name)
                                  for f in dataclasses.fields(SensorModel)})
    texts = []
    for models in (stock, dataclasses.replace(stock, sensor=dense_sensor)):
        rng = np.random.default_rng(12)
        state = initial_state(config, rng)
        out = io.StringIO()
        prev = ()
        for frame in frames:
            state = lmbp_step(state, frame, models, config.thresholds, rng, prev_frame=prev,
                              settings=config.settings)
            write_snapshot(state, out)
            prev = frame
        assert len(state.tracks) > 0
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


class TestClutter:
    def test_intensity_value(self):
        clutter = ClutterModel(mean_count=100.0, max_range=300.0)
        z = Measurement(100.0, 0.3)
        assert clutter.intensity(z) == pytest.approx(100.0 / (300.0 * 2 * np.pi))
        assert clutter.intensity(z) == pytest.approx(0.05305, abs=2e-5)

    def test_outside_support(self):
        clutter = ClutterModel(mean_count=100.0, max_range=300.0)
        assert clutter.intensity(Measurement(301.0, 0.0)) == 0.0

    def test_zero_rate(self):
        clutter = ClutterModel(mean_count=0.0, max_range=300.0)
        assert clutter.intensity(Measurement(10.0, 0.0)) == 0.0

    def test_density_integrates_to_one_over_roi(self):
        clutter = ClutterModel(mean_count=1.0, max_range=300.0)
        assert clutter.density * clutter.max_range * 2 * np.pi == pytest.approx(1.0)


class TestBirthModel:
    def test_budget_and_total_weight(self):
        birth = BirthModel(mean_births=0.1, particle_budget=5000)
        motion = MotionModel()
        sensor = make_sensor()
        rng = np.random.default_rng(0)
        phd = birth.sample_phd([Measurement(100.0, 0.0)], motion, sensor, rng)
        assert len(phd.particles) == 5000
        np.testing.assert_allclose(phd.particles.weights, 2e-5)
        assert phd.mean == pytest.approx(0.1, abs=1e-12)

    def test_noiseless_inversion(self):
        birth = BirthModel(mean_births=0.1, velocity_sigma=0.0, particle_budget=200)
        motion = MotionModel(sigma_u=0.0)
        sensor = make_sensor(sigma_range=1e-12, sigma_bearing=1e-12)
        rng = np.random.default_rng(1)
        phd = birth.sample_phd([Measurement(100.0, 0.0)], motion, sensor, rng)
        expected = sensor.position + np.array([100.0, 0.0])
        np.testing.assert_allclose(phd.particles.states[:, :2],
                                   np.tile(expected, (200, 1)), atol=1e-6)
        np.testing.assert_allclose(phd.particles.states[:, 2:], 0.0, atol=1e-9)

    def test_empty_measurements_uniform_over_disk(self):
        # chi-square uniformity over radius^2 x angle bins at the 1% level
        birth = BirthModel(mean_births=0.1, particle_budget=10_000)
        motion = MotionModel()
        sensor = make_sensor()
        rng = np.random.default_rng(2)
        phd = birth.sample_phd([], motion, sensor, rng)
        rel = phd.particles.states[:, :2] - sensor.position
        radius = np.linalg.norm(rel, axis=1)
        angle = np.arctan2(rel[:, 1], rel[:, 0])
        assert np.all(radius <= sensor.max_range)
        r_bins = np.digitize((radius / sensor.max_range) ** 2, np.linspace(0, 1, 11)[1:-1])
        a_bins = np.digitize(angle, np.linspace(-np.pi, np.pi, 9)[1:-1])
        counts = np.bincount(r_bins * 8 + a_bins, minlength=80)
        expected = 10_000 / 80
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, 79)


def test_wrap_angle_half_open_interval():
    assert wrap_angle(np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    np.testing.assert_allclose(wrap_angle(np.array([0.1, 2 * np.pi + 0.1])), 0.1)
