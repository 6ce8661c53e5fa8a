import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from lmbp.cli import initial_state
from lmbp.config import build_run_config
from lmbp.metrics import OspaParams
from lmbp.models import (
    EXP_FLOOR,
    BirthModel,
    MotionModel,
    SensorModel,
    wrap_angle,
)
from lmbp.rfs import Measurement, write_snapshot
from lmbp.simulate import generate_frames, generate_truth
from lmbp.update import Thresholds, lmbp_step

from helpers import (
    cells_of,
    dense_likelihood_table,
    dense_polar_exponents,
    dense_polar_table,
    likelihood,
    table_of,
)


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

    @pytest.mark.parametrize("special", [False, True], ids=["random", "signed_zero_inf_nan"])
    def test_contiguous_constants_give_the_transposed_products_bits(self, special):
        # the C-contiguous A_T and W_T change the BLAS kernel, not one bit of
        # states @ A.T + noise @ W.T, NaNs included
        rng = np.random.default_rng(12)
        states = rng.normal(0.0, 100.0, (5000, 4))
        if special:
            picks = rng.integers(0, states.size, 400)
            states.reshape(-1)[picks] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], 400)
        model = MotionModel(sigma_u=0.3)
        noise = np.random.default_rng(4).normal(0.0, 0.3, (5000, 2))
        with np.errstate(invalid="ignore"):
            out = model.transition_sample(states, np.random.default_rng(4))
            old = states @ model.A.T + noise @ model.W.T
        assert np.array_equal(out, old, equal_nan=True)
        assert np.array_equal(np.isnan(out), np.isnan(old))
        assert np.array_equal(np.signbit(out), np.signbit(old))
        assert model.A_T.flags.c_contiguous and not model.A_T.flags.writeable
        assert model.W_T.flags.c_contiguous and not model.W_T.flags.writeable

    def test_equal_models_compare_equal_and_hash_alike(self):
        # the matrices are read-only class constants, not fields, so a model
        # is its two numbers
        assert MotionModel() == MotionModel() != MotionModel(sigma_u=0.0)
        assert hash(MotionModel()) == hash(MotionModel())
        with pytest.raises(ValueError):
            MotionModel.A[0, 0] = 2.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MotionModel(sigma_u=-1.0)
        with pytest.raises(ValueError):
            MotionModel(p_survival=1.2)


@pytest.mark.parametrize("make", [
    lambda: Thresholds(gamma_c=np.nan),
    lambda: MotionModel(sigma_u=np.nan),
    lambda: SensorModel(sigma_range=np.nan),
    lambda: SensorModel(pd_scale=np.nan),
    lambda: SensorModel(clutter_mean=np.nan),
    lambda: BirthModel(mean_births=np.nan),
    lambda: OspaParams(cutoff=np.nan),
    lambda: OspaParams(order=np.nan),
], ids=["gamma_c", "sigma_u", "sigma_range", "pd_scale", "clutter_mean", "mean_births",
        "cutoff", "order"])
def test_nan_parameters_are_rejected(make):
    # a NaN gamma_c would cluster nothing: betas >= nan is False everywhere
    with pytest.raises(ValueError):
        make()


def pd_of(sensor, states):
    """Detection probability of states, from their ranges."""
    return sensor.detection_prob_at(sensor.range_bearing(np.asarray(states, dtype=float))[0])


class TestDetectionProb:
    def test_peak_at_sensor(self):
        sensor = make_sensor(pd_max=0.7)
        assert pd_of(sensor, [0.0, -50.0, 0, 0]) == pytest.approx(0.7)

    def test_border_value_ts1(self):
        # 0.7 * exp(-300^2/450^2) = 0.449 at the sensor-disk border
        sensor = make_sensor(pd_max=0.7)
        val = pd_of(sensor, [300.0, -50.0, 0, 0])
        assert val == pytest.approx(0.449, abs=5e-4)

    def test_border_value_ts2(self):
        sensor = make_sensor(pd_max=0.5)
        val = pd_of(sensor, [0.0, 250.0, 0, 0])
        assert val == pytest.approx(0.320, abs=1e-3)

    def test_monotone_in_distance(self):
        sensor = make_sensor()
        dists = np.linspace(0, 400, 100)
        states = np.zeros((100, 4))
        states[:, 0] = dists
        states[:, 1] = -50.0
        vals = pd_of(sensor, states)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals > 0) and np.all(vals <= sensor.pd_max)


class TestLikelihood:
    def test_peak_value(self):
        sensor = make_sensor()
        state = np.array([100.0, -50.0, 0, 0])
        rho, theta = sensor.range_bearing(state)
        z = Measurement(float(rho), float(theta))
        expected = 1.0 / (2 * np.pi * sensor.sigma_range * sensor.sigma_bearing)
        assert likelihood(sensor, z, state) == pytest.approx(expected, rel=1e-12)

    def test_bearing_wrap_symmetry(self):
        sensor = make_sensor(sigma_bearing=0.5)
        state = np.array([-100.0, -50.0, 0, 0])  # true bearing = pi
        rho, theta = sensor.range_bearing(state)
        near_pi = likelihood(sensor, Measurement(float(rho), np.pi - 1e-3), state)
        near_minus_pi = likelihood(sensor, Measurement(float(rho), -np.pi + 1e-3), state)
        assert near_pi == pytest.approx(near_minus_pi, rel=1e-6)

    def test_one_sigma_offset(self):
        sensor = make_sensor(sigma_range=2.0, sigma_bearing=np.pi / 180)
        state = np.array([100.0, -50.0, 0, 0])
        rho, theta = sensor.range_bearing(state)
        z = Measurement(float(rho) + 2.0, float(theta))
        peak = 1.0 / (2 * np.pi * sensor.sigma_range * sensor.sigma_bearing)
        assert likelihood(sensor, z, state) == pytest.approx(peak * np.exp(-0.5), rel=1e-12)

    def test_table_matches_single_evaluations(self):
        sensor = make_sensor()
        rng = np.random.default_rng(31)
        states = rng.uniform(-200, 200, (50, 4))
        frame = [Measurement(float(rng.uniform(0, 300)),
                             float(rng.uniform(-np.pi, np.pi))) for _ in range(7)]
        table = sensor.likelihood_table(frame, states)
        for m, z in enumerate(frame):
            np.testing.assert_allclose(table[m], likelihood(sensor, z, states),
                                       rtol=1e-12)

    def test_integrates_to_one(self):
        # numeric quadrature over (range, bearing) within 1%
        sensor = make_sensor()
        state = np.array([120.0, 30.0, 0, 0])
        rho0, _ = sensor.range_bearing(state)
        r_grid = np.linspace(rho0 - 10 * sensor.sigma_range,
                             rho0 + 10 * sensor.sigma_range, 400)
        b_grid = np.linspace(-np.pi, np.pi, 2000, endpoint=False)
        vals = np.array([[likelihood(sensor, Measurement(r, b), state) for r in r_grid]
                         for b in b_grid])
        integral = np.trapezoid(np.trapezoid(vals, r_grid, axis=1), b_grid)
        assert integral == pytest.approx(1.0, rel=0.01)


def states_at(positions):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return np.hstack([positions, np.zeros_like(positions)])


def birth_cloud(sensor, frame, rng, n, sigma_range, sigma_bearing):
    """n states, each drawn around a random measurement of `frame` with
    range and bearing noise, as the birth proposal draws its particles."""
    picks = rng.integers(0, len(frame), n)
    ranges = np.array([frame[i].range for i in picks]) + rng.normal(0.0, sigma_range, n)
    bearings = np.array([frame[i].bearing for i in picks]) + rng.normal(0.0, sigma_bearing, n)
    return states_at(sensor.position + np.column_stack(
        [ranges * np.cos(bearings), ranges * np.sin(bearings)]))


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


# per-row likelihood floors, cycled over a frame's rows: raised floors mixed
# with `EXP_FLOOR` rows, 0.0, which only an exact hit clears, and 1.0, which
# nothing but the non-finite fallback keeps
ROW_FLOORS = (-78.0, EXP_FLOOR, 0.0, -200.0, -3.0, 1.0)


def row_floors(count):
    return np.resize(ROW_FLOORS, count)


def assert_cell_layout(cells, shape):
    """Cells inside the table, in strictly ascending (row, col) order."""
    row, col, _ = cells
    assert np.all((row >= 0) & (row < shape[0]) & (col >= 0) & (col < shape[1]))
    assert np.all(np.diff(row * shape[1] + col) > 0)


def assert_table_exact(sensor, frame, states, floor=None):
    """`likelihood_table` is bit-identical to the dense reference, and so are
    the likelihood cells of `states` (`assert_cells_exact`)."""
    table = sensor.likelihood_table(frame, states)
    assert np.array_equal(table, dense_likelihood_table(sensor, frame, states), equal_nan=True)
    assert_cells_exact(sensor, frame, *sensor.range_bearing(states), floor)


def assert_cells_exact(sensor, frame, rho, theta, floor=None):
    """The likelihood cells of the states with `range_bearing` rho, theta
    are bit-identical to the dense reference, inside the table, in strictly
    ascending (row, col) order. The cells under the per-row `floor` (by
    default `row_floors`) are exactly those of these cells whose exponent
    clears their row's floor, in the same order, or every cell when a state
    or measurement is not finite."""
    dense = dense_polar_table(sensor, frame, rho, theta)
    cells = sensor.likelihood_cells(frame, rho, theta)
    assert_cell_layout(cells, dense.shape)
    assert np.array_equal(table_of(cells, dense.shape), dense, equal_nan=True)

    floor = row_floors(len(frame)) if floor is None else floor
    floored = sensor.likelihood_cells(frame, rho, theta, floor)
    assert_cell_layout(floored, dense.shape)
    zr, zb = np.array([[z.range, z.bearing] for z in frame]).reshape(-1, 2).T
    every = not (np.isfinite(zr + zb).all() and np.isfinite(rho).all()
                 and np.isfinite(theta).all())
    row, col, value = cells
    if every:
        assert row.size == dense.size
        keep = np.ones(row.size, dtype=bool)
    else:
        exponent = dense_polar_exponents(sensor, frame, rho, theta)
        keep = exponent[row, col] >= np.broadcast_to(floor, (len(frame),))[row]
    expected = (row[keep], col[keep], value[keep])
    for got, want in zip(floored, expected):
        assert np.array_equal(got, want, equal_nan=True)


@dataclasses.dataclass(frozen=True)
class DenseSensor(SensorModel):
    """Range-bearing sensor whose likelihood cells and rows evaluate every
    entry from the dense reference. Its row bounds are all +inf, so the
    filter evaluates every track row at once and defers none."""

    def likelihood_cells(self, frame, rho, theta, floor=None):
        return cells_of(dense_polar_table(self, frame, rho, theta), every=True)

    def row_bounds(self, frame, rho, theta):
        return np.full((len(rho), len(frame)), np.inf), super().row_bounds(frame, rho, theta)[1]

    def likelihood_rows(self, frame, meas, rho, theta):
        rows = [dense_polar_table(self, [frame[m]], r, t) for m, r, t in zip(meas, rho, theta)]
        return np.array(rows).reshape(np.shape(rho))


@pytest.fixture
def window_calls(monkeypatch):
    """Frame sizes of the calls that took the windowed (grid) path."""
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
    the size that sorts the states on the bearing x range grid. A frame
    takes the grid when its windows, all narrower than pi, leave out more
    than three rows' worth of the circle: (pi - half-width) summed over its
    rows exceeds 3 pi, so three rows never take it."""

    SMALL, LARGE = 3, 40

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cases(self, seed):
        assert_table_exact(*random_case(np.random.default_rng(seed)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property(self, seed):
        assert_table_exact(*random_case(np.random.default_rng(seed)))

    def test_empty_frame_and_empty_particle_set(self, window_calls):
        sensor = make_sensor()
        rng = np.random.default_rng(1)
        states = states_at(rng.uniform(-200.0, 200.0, (50, 2)))
        assert sensor.likelihood_table([], states).shape == (0, 50)
        assert_table_exact(sensor, [], states)
        for count in (self.SMALL, self.LARGE):
            frame = random_frame(rng, count)
            assert sensor.likelihood_table(frame, states_at([])).shape == (count, 0)
            assert_table_exact(sensor, frame, states_at([]))
            assert_table_exact(sensor, frame, states_at([]), np.full(count, 0.5))
        # neither builds the grid
        assert window_calls == []

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
        # the four edges alone pay for the grid; the floored call leaves out
        # the rows whose floor is 1.0
        kept = np.count_nonzero(row_floors(len(frame)) <= 0.0)
        assert window_calls == [len(frame), len(frame), kept]

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
        # 2 pi sigma_r sigma_b is subnormal (1 / it is inf) or 0: every table
        # entry would be nan, so the sensor is refused
        for sigma in (1e-160, 1e-200):
            with pytest.raises(ValueError, match="normalizer overflows"):
                make_sensor(sigma_range=sigma, sigma_bearing=sigma)

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
        assert window_calls  # the intensity is sorted on the grid

    def test_frame_size_decides_the_bearing_sort(self, window_calls):
        # at EXP_FLOOR each row's window leaves out ~2.46 rad of the circle,
        # so three rows stay dense and four take the grid, whatever N
        sensor = make_sensor()
        rng = np.random.default_rng(7)
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (5000, 2)))
        assert_table_exact(sensor, random_frame(rng, self.SMALL), states)
        assert window_calls == []
        assert_table_exact(sensor, random_frame(rng, 4), states)
        # the table view, the cells, then the floored cells
        assert window_calls == [4, 4, 4]
        window_calls.clear()
        assert_table_exact(sensor, random_frame(rng, self.LARGE), states)
        # the floored call leaves out the six rows whose floor is 1.0
        assert window_calls == [self.LARGE, self.LARGE, self.LARGE - 6]

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    @pytest.mark.parametrize("pick", ["largest", "random"])
    @pytest.mark.parametrize("spread", ["cloud", "point"])
    def test_floor_on_a_cell_exponent(self, count, pick, spread, window_calls):
        # each row's floor is exactly the exponent of one of its cells, the
        # row's largest or a random one: that cell lies on the boundary of
        # the keep, and with every state on one point, so do all of the
        # row's cells
        sensor = make_sensor()
        rng = np.random.default_rng(15)
        if spread == "cloud":
            frame = random_frame(rng, count, max_range=300.0)
            picks = rng.integers(0, count, 3000)
            ranges = np.array([frame[i].range for i in picks]) + rng.normal(0.0, 4.0, 3000)
            bearings = np.array([frame[i].bearing for i in picks]) + rng.normal(0.0, 0.03, 3000)
            states = states_at(sensor.position + np.column_stack(
                [ranges * np.cos(bearings), ranges * np.sin(bearings)]))
        else:
            target = sensor.position + np.array([-60.0, 140.0])
            rho, theta = sensor.range_bearing(states_at(target))
            frame = [Measurement(float(r), float(b)) for r, b in zip(
                rho[0] + rng.normal(0.0, 6.0, count), theta[0] + rng.normal(0.0, 0.05, count))]
            states = states_at(np.tile(target, (500, 1)))
        exponent = dense_polar_exponents(sensor, frame, *sensor.range_bearing(states))
        if pick == "largest":
            floor = exponent.max(axis=1)
        else:
            above = rng.random(exponent.shape) * (exponent >= EXP_FLOOR)
            floor = exponent[np.arange(count), above.argmax(axis=1)]
        assert np.all(floor >= EXP_FLOOR)
        assert_table_exact(sensor, frame, states, floor)
        rows = sensor.likelihood_cells(frame, *sensor.range_bearing(states), floor)[0]
        assert np.array_equal(np.unique(rows), np.arange(count))
        assert bool(window_calls) == (count == self.LARGE)

    def test_floor_decides_the_bearing_sort(self, window_calls):
        # a raised floor narrows every window: with 0.05 rad bearing noise,
        # six rows leave out ~1.19 rad each at EXP_FLOOR and stay dense, and
        # ~2.52 rad each at -78, where they take the grid; rows whose
        # EXP_FLOOR window spans the whole circle keep the floored call dense
        sensor = make_sensor(sigma_bearing=0.05)
        rng = np.random.default_rng(14)
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (5000, 2)))
        frame = random_frame(rng, 6)
        assert_table_exact(sensor, frame, states, np.full(6, EXP_FLOOR))
        assert window_calls == []
        assert_table_exact(sensor, frame, states, np.full(6, -78.0))
        assert window_calls == [6]
        assert_table_exact(sensor, frame, states, -78.0)
        assert window_calls == [6, 6]
        wide = make_sensor(sigma_bearing=0.2)
        window_calls.clear()
        floor = np.where(np.arange(self.LARGE) < 3, EXP_FLOOR, -3.0)
        assert_table_exact(wide, random_frame(rng, self.LARGE), states, floor)
        assert window_calls == []
        assert_table_exact(wide, random_frame(rng, self.LARGE), states, np.full(self.LARGE, -3.0))
        assert window_calls == [self.LARGE]

    def test_row_floors_give_each_row_its_own_window(self, window_calls):
        # one frame whose floors range from EXP_FLOOR to -1, so the windows'
        # bearing and range widths differ by a factor of ~28 from row to row
        sensor = make_sensor()
        rng = np.random.default_rng(16)
        frame = random_frame(rng, self.LARGE, max_range=300.0)
        states = birth_cloud(sensor, frame, rng, 5000, 6.0, 0.06)
        floor = np.linspace(EXP_FLOOR, -1.0, self.LARGE)
        rng.shuffle(floor)
        assert_table_exact(sensor, frame, states, floor)
        assert window_calls == [self.LARGE] * 3

    @pytest.mark.parametrize("count", [SMALL, LARGE])
    def test_floors_above_zero_leave_their_rows_empty(self, count, window_calls):
        # every exponent is <= 0, so a row whose floor is above 0 has no
        # cells, while the rows below 0 beside it keep theirs
        sensor = make_sensor()
        rng = np.random.default_rng(20)
        frame = random_frame(rng, count, max_range=300.0)
        states = birth_cloud(sensor, frame, rng, 3000, 2.0, 0.02)
        floor = np.where(np.arange(count) % 3 == 1, np.resize([0.5, 1e-300, 700.0], count),
                         np.resize([-78.0, EXP_FLOOR], count))
        assert_table_exact(sensor, frame, states, floor)
        rows = sensor.likelihood_cells(frame, *sensor.range_bearing(states), floor)[0]
        assert np.array_equal(np.unique(rows), np.flatnonzero(floor <= 0.0))
        # the floored call sorts the rows below 0 alone
        below = np.count_nonzero(floor <= 0.0)
        assert window_calls == ([] if count == self.SMALL else [count, count, below, below])

    def test_frame_beyond_every_state_reach(self, window_calls):
        # every state lies within 100 of the sensor and every measurement
        # beyond 250: no row has a cell, and the grid still finds none
        sensor = make_sensor()
        rng = np.random.default_rng(21)
        bearings = rng.uniform(-np.pi, np.pi, 4000)
        ranges = rng.uniform(0.0, 100.0, 4000)
        states = states_at(sensor.position + ranges[:, None] * np.column_stack(
            [np.cos(bearings), np.sin(bearings)]))
        frame = [Measurement(float(r), float(b)) for r, b in zip(
            rng.uniform(250.0, 300.0, self.LARGE), rng.uniform(-np.pi, np.pi, self.LARGE))]
        assert_table_exact(sensor, frame, states)
        assert sensor.likelihood_cells(frame, *sensor.range_bearing(states))[0].size == 0
        assert window_calls

    def test_huge_finite_range_among_ordinary_states(self, window_calls):
        # two states at ranges near the largest float are finite: they take
        # no every-cell fallback, and the grid's range bins still cover the
        # ordinary states. The dense reference squares their range offsets,
        # which overflow to inf, an exponent of -inf; the grid never gathers
        # them, so it evaluates no such offset
        sensor = make_sensor()
        rng = np.random.default_rng(22)
        frame = random_frame(rng, self.LARGE, max_range=300.0)
        rho, theta = sensor.range_bearing(birth_cloud(sensor, frame, rng, 3000, 2.0, 0.02))
        rho[[5, 2000]] = 1e300, 1e308
        theta[2000] = frame[0].bearing
        with np.errstate(over="ignore"):
            assert_cells_exact(sensor, frame, rho, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            row, col, _ = sensor.likelihood_cells(frame, rho, theta)
        assert row.size < len(frame) * rho.size
        assert not np.isin(col, [5, 2000]).any()
        assert window_calls == [self.LARGE, self.LARGE - 6, self.LARGE]

    def test_many_states_at_one_range_in_one_bearing_bin(self, window_calls):
        # thousands of tied cell ids: every state of the tie sits at one
        # range, inside a bearing arc far narrower than a bin
        sensor = make_sensor()
        rng = np.random.default_rng(17)
        bearings = 0.4 + rng.uniform(0.0, 1e-4, 3000)
        tied = states_at(sensor.position + 120.0 * np.column_stack(
            [np.cos(bearings), np.sin(bearings)]))
        assert np.unique(sensor.range_bearing(tied)[0]).size < 10
        frame = [Measurement(float(120.0 + d), float(0.4 + b)) for d, b in zip(
            rng.normal(0.0, 4.0, self.LARGE), rng.normal(0.0, 0.03, self.LARGE))]
        spread = states_at(sensor.position + rng.uniform(-300.0, 300.0, (2000, 2)))
        assert_table_exact(sensor, frame, np.vstack([tied, spread]))
        assert window_calls

    def test_states_far_beyond_the_disk(self, window_calls):
        # states at ranges near 1e6 lie beyond every window of a frame inside
        # the disk, and share the last range bin; a measurement out there
        # too stretches the range bins over 1e6
        sensor = make_sensor()
        rng = np.random.default_rng(18)
        frame = random_frame(rng, self.LARGE, max_range=300.0)
        near = birth_cloud(sensor, frame, rng, 3000, 2.0, 0.02)
        bearings = rng.uniform(-np.pi, np.pi, 50)
        far = states_at(sensor.position + rng.uniform(0.99e6, 1.01e6, (50, 1)) * np.column_stack(
            [np.cos(bearings), np.sin(bearings)]))
        states = np.vstack([near, far])
        assert_table_exact(sensor, frame, states)
        rho, theta = sensor.range_bearing(far[0])
        frame[0] = Measurement(float(rho), float(theta))
        assert_table_exact(sensor, frame, states)
        assert sensor.likelihood_table(frame, states)[0, -50] > 0.0
        assert len(window_calls) == 7  # every call took the grid

    def test_window_just_below_pi_touches_every_bearing_bin(self, window_calls):
        # one row's half-width is just below pi, so its window covers every
        # bearing bin; the other rows are narrow enough that the grid pays
        sensor = make_sensor(sigma_bearing=0.1)
        rng = np.random.default_rng(19)
        states = states_at(sensor.position + rng.uniform(-300.0, 300.0, (4000, 2)))
        frame = random_frame(rng, self.LARGE, max_range=300.0)
        floor = np.full(self.LARGE, -78.0)
        floor[[3, 20]] = -0.5 * ((np.pi - 1e-6) / sensor.sigma_bearing) ** 2
        assert np.all(floor >= EXP_FLOOR)
        assert_table_exact(sensor, frame, states, floor)
        assert window_calls == [self.LARGE]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 120), st.integers(1, 12_000),
           st.sampled_from([0.5, 2.0, 20.0]), st.sampled_from([0.005, 0.02, 0.2]),
           st.booleans())
    def test_birth_clouds_around_the_frame(self, seed, count, n, sigma_range, spread,
                                           clutter_floor):
        # intensity-like states: each drawn around one of the frame's own
        # measurements, as the birth proposal draws them, against the
        # clutter-relative floor of `new_components` or `EXP_FLOOR`
        sensor = make_sensor(sigma_range=sigma_range)
        rng = np.random.default_rng(seed)
        frame = random_frame(rng, count, max_range=300.0)
        states = birth_cloud(sensor, frame, rng, n, 3.0 * sigma_range, spread)
        floor = np.log(2.0 ** -106 * 100.0 / (300.0 * 2.0 * np.pi) / sensor.normalizer)
        assert_table_exact(sensor, frame, states, max(floor, EXP_FLOOR) if clutter_floor else None)


def kept_pairs(sensor, frame, states):
    """The (set, measurement) pairs whose `row_bounds` clear `EXP_FLOOR`."""
    rho, theta = sensor.range_bearing(states)
    return np.nonzero(sensor.row_bounds(frame, rho, theta)[0] >= EXP_FLOOR)


def assert_rows_exact(sensor, frame, states):
    """`likelihood_rows` of the pairs the row bounds keep equal the dense
    reference, every pair left out has an all-zero dense row, and every
    finite dense entry lies under norm exp(bound), up to rounding."""
    rho, theta = sensor.range_bearing(states)
    bound, norm = sensor.row_bounds(frame, rho, theta)
    assert bound.shape == (len(states), len(frame))
    sets, meas = np.nonzero(bound >= EXP_FLOOR)
    rows = sensor.likelihood_rows(frame, meas, rho[sets], theta[sets])
    dense = np.array([dense_likelihood_table(sensor, frame, s) for s in states])
    dense = dense.reshape(len(states), len(frame), np.shape(states)[1])
    assert np.array_equal(rows, dense[sets, meas], equal_nan=True)
    assert not dense[bound < EXP_FLOOR].any()
    with np.errstate(over="ignore", invalid="ignore"):
        ceiling = norm * np.exp(bound)[:, :, None] * (1.0 + 1e-12)
        assert np.all((dense <= ceiling) | ~np.isfinite(dense))


class TestLikelihoodRows:
    """`row_bounds` and `likelihood_rows` over L stacked sets against the
    dense reference."""

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
        sets, meas = kept_pairs(sensor, frame, states)
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

    def test_non_finite_states_and_measurements(self):
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


@pytest.mark.parametrize("setting", [
    {},
    {"sensor.sigma_range": "5", "sensor.sigma_bearing_deg": "5", "clutter.mean_count": "12"},
    {"clutter.mean_count": "0"},
], ids=["dense", "golden_like", "no_clutter"])
def test_filter_matches_dense_likelihood_reference(setting):
    """Ten steps of a dense scenario give the same snapshots with the gated
    likelihood, whose intensity cells stop at the clutter-relative floor, as
    with the dense reference, which evaluates and keeps every cell."""
    config = build_run_config({"scenario.object_count": "10", "scenario.appear_min": "1",
                               "scenario.appear_max": "3", "scenario.total_steps": "10",
                               "clutter.mean_count": "100", "run.seed": "5", **setting})
    truth_rng = np.random.default_rng(11)
    truth = generate_truth(config.scenario, truth_rng)
    frames = generate_frames(truth, config.scenario.sensor, truth_rng)
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
    # a plain flag, since pytest's diff of two long snapshot texts takes minutes
    same = texts[0] == texts[1]
    assert same


class TestClutter:
    def test_intensity_value(self):
        sensor = make_sensor(clutter_mean=100.0)
        z = Measurement(100.0, 0.3)
        assert sensor.clutter_intensity_at(z.range) == pytest.approx(100.0 / (300.0 * 2 * np.pi))
        assert sensor.clutter_intensity_at(z.range) == pytest.approx(0.05305, abs=2e-5)

    def test_outside_support(self):
        sensor = make_sensor(clutter_mean=100.0)
        assert sensor.clutter_intensity_at(301.0) == 0.0

    def test_zero_rate(self):
        sensor = make_sensor(clutter_mean=0.0)
        assert sensor.clutter_intensity_at(10.0) == 0.0

    def test_intensity_at_ranges(self):
        # the array form is the constant inside the closed disk and 0.0
        # elsewhere, bit for bit the value of one range at a time; `covers`
        # is the disk test it reads
        sensor = make_sensor(clutter_mean=100.0)
        ranges = np.array([0.0, 100.0, 300.0, np.nextafter(300.0, 400.0), -1e-9, np.nan])
        assert sensor.covers(ranges).tolist() == [True] * 3 + [False] * 3
        out = sensor.clutter_intensity_at(ranges)
        assert out.shape == ranges.shape
        assert out.tolist() == [100.0 * (1.0 / (300.0 * 2.0 * np.pi))] * 3 + [0.0] * 3
        assert out.tolist() == [float(sensor.clutter_intensity_at(np.array(r))) for r in ranges]
        assert sensor.clutter_intensity_at(np.empty(0)).shape == (0,)

    def test_density_integrates_to_one_over_roi(self):
        sensor = make_sensor(clutter_mean=1.0)
        density = sensor.clutter_intensity_at(0.0)
        assert density * sensor.max_range * 2 * np.pi == pytest.approx(1.0)

    def test_samples_lie_in_the_disk(self):
        sensor = make_sensor(max_range=50.0, clutter_mean=40.0)
        frame = sensor.sample_clutter(np.random.default_rng(3))
        assert len(frame) > 0
        assert sensor.covers(np.array([z.range for z in frame])).all()
        assert all(-np.pi <= z.bearing < np.pi for z in frame)


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


def test_wrap_angle_folds_the_seam_to_minus_pi():
    # nextafter(-pi, -4) + pi is a tiny negative number; its mod rounds to 2 pi
    theta = np.array([np.nextafter(-np.pi, -4.0), -np.pi, np.pi, 3 * np.pi, -3 * np.pi])
    wrapped = wrap_angle(theta)
    assert np.all((wrapped >= -np.pi) & (wrapped < np.pi))
    np.testing.assert_array_equal(wrapped, -np.pi)
    assert wrap_angle(theta[0]) == -np.pi
