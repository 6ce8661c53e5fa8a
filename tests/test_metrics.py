import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lmbp.metrics import OspaParams, _linear_sum_assignment, mospa_curve, ospa

P = OspaParams(cutoff=20.0, order=2.0)

# 0 to 8 rows and columns, so empty matrices and both orientations appear
SHAPES = st.tuples(st.integers(0, 8), st.integers(0, 8))


@st.composite
def cost_matrices(draw):
    """Integer costs with many ties, random reals, or integer costs with
    forbidden (+inf) cells, which can leave no finite assignment."""
    elements = draw(st.sampled_from([
        st.sampled_from([0.0, 1.0, 2.0]),
        st.floats(0.0, 1e3),
        st.sampled_from([0.0, 1.0, 2.0, np.inf]),
    ]))
    return draw(arrays(float, SHAPES, elements=elements))


def point_sets(count=st.integers(0, 8)):
    """2D point sets spread over twice the cutoff, so many OSPA costs are clipped."""
    return count.flatmap(lambda n: arrays(float, (n, 2), elements=st.floats(-40.0, 40.0)))


def ospa_cost(truth, estimates, params):
    return np.minimum(np.linalg.norm(truth[:, None, :] - estimates[None, :, :], axis=-1),
                      params.cutoff) ** params.order


def reference_ospa(truth, estimates, params):
    """`ospa`'s formula on scipy's assignment."""
    if len(truth) == 0 or len(estimates) == 0:
        return 0.0 if len(truth) == len(estimates) else float(params.cutoff)
    c, p = params.cutoff, params.order
    cost = ospa_cost(truth, estimates, params)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    n = max(len(truth), len(estimates))
    total = cost[rows, cols].sum() + c ** p * (n - len(rows))
    return float((total / n) ** (1.0 / p))


def assert_same_assignment(cost):
    """The solver returns scipy's indices, or raises scipy's error."""
    try:
        expected = scipy.optimize.linear_sum_assignment(cost)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            _linear_sum_assignment(cost)
        return
    rows, cols = _linear_sum_assignment(cost)
    assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])


class TestLinearSumAssignment:
    @settings(max_examples=500, deadline=None)
    @given(cost_matrices())
    def test_equals_scipy(self, cost):
        assert_same_assignment(cost)

    @settings(max_examples=300, deadline=None)
    @given(point_sets(), point_sets())
    def test_equals_scipy_on_ospa_costs(self, truth, estimates):
        # clipped costs tie at cutoff^order; when rows outnumber columns, the
        # clipped rows chosen set the order of the sum, so ospa is compared
        # with ==
        assert_same_assignment(ospa_cost(truth, estimates, P))
        assert ospa(truth, estimates, P) == reference_ospa(truth, estimates, P)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_and_negative_inf_are_invalid(self, bad):
        cost = np.ones((3, 2))
        cost[1, 0] = bad
        for solve in (_linear_sum_assignment, scipy.optimize.linear_sum_assignment):
            with pytest.raises(ValueError, match="matrix contains invalid numeric entries"):
                solve(cost)

    def test_inf_is_allowed_unless_nothing_finite_remains(self):
        rows, cols = _linear_sum_assignment(np.array([[np.inf, 1.0], [2.0, np.inf]]))
        assert (rows, cols) == ([0, 1], [1, 0])
        with pytest.raises(ValueError, match="cost matrix is infeasible"):
            _linear_sum_assignment(np.array([[np.inf, 1.0], [np.inf, 2.0]]))

    def test_ospa_raises_on_nan_and_on_an_infinite_cost(self):
        with pytest.raises(ValueError, match="matrix contains invalid numeric entries"):
            ospa([(np.nan, 0.0)], [(0.0, 0.0)], P)
        with pytest.raises(ValueError, match="cost matrix is infeasible"):
            ospa([(np.inf, 0.0)], [(0.0, 0.0)], OspaParams(cutoff=np.inf))


class TestOspa:
    def test_identical_sets(self):
        pts = [(0.0, 0.0), (5.0, 5.0)]
        assert ospa(pts, pts, P) == 0.0

    def test_empty_vs_empty(self):
        assert ospa([], [], P) == 0.0

    def test_empty_vs_nonempty_equals_cutoff(self):
        assert ospa([(1.0, 2.0)], [], P) == 20.0
        assert ospa([], [(1.0, 2.0)], P) == 20.0

    def test_single_pair_euclidean(self):
        assert ospa([(0.0, 0.0)], [(3.0, 4.0)], P) == pytest.approx(5.0, abs=1e-12)

    def test_cardinality_penalty(self):
        # one matched pair at distance 0, one unmatched: ((0 + c^2)/2)^(1/2)
        val = ospa([(0.0, 0.0), (100.0, 100.0)], [(0.0, 0.0)], P)
        assert val == pytest.approx(20.0 / np.sqrt(2), abs=1e-12)

    def test_symmetry_and_cutoff_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n, m = rng.integers(0, 6, 2)
            x = rng.uniform(-100, 100, (n, 2))
            y = rng.uniform(-100, 100, (m, 2))
            d_xy = ospa(x, y, P)
            d_yx = ospa(y, x, P)
            assert d_xy == pytest.approx(d_yx, abs=1e-12)
            assert 0.0 <= d_xy <= P.cutoff + 1e-12
            if (n == 0) != (m == 0):
                assert d_xy == P.cutoff

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sets = [rng.uniform(-50, 50, (rng.integers(0, 6), 2)) for _ in range(3)]
            d = {(i, j): ospa(sets[i], sets[j], P)
                 for i, j in itertools.permutations(range(3), 2)}
            for i, j, k in itertools.permutations(range(3), 3):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_uses_optimal_assignment(self):
        # greedy nearest-neighbor would mismatch this crossing pattern
        truth = [(0.0, 0.0), (10.0, 0.0)]
        est = [(9.0, 0.0), (19.0, 0.0)]
        # optimal pairing: 0->9 is worse than 0<-9? brute force the assignment
        def brute(truth, est):
            n = max(len(truth), len(est))
            best = np.inf
            for perm in itertools.permutations(range(len(est))):
                cost = sum(min(np.hypot(*(np.array(truth[i]) - np.array(est[j]))),
                               P.cutoff) ** 2
                           for i, j in enumerate(perm))
                best = min(best, cost)
            return (best / n) ** 0.5
        assert ospa(truth, est, P) == pytest.approx(brute(truth, est), abs=1e-12)


class TestMospaCurve:
    def test_single_run_identity(self):
        np.testing.assert_allclose(mospa_curve([[1.0, 2.0, 3.0]]), [1, 2, 3])

    def test_two_constant_runs(self):
        np.testing.assert_allclose(mospa_curve([[2.0] * 4, [4.0] * 4]), [3.0] * 4)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            mospa_curve([[1.0, 2.0], [1.0]])

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="no runs"):
            mospa_curve([])

    def test_monte_carlo_mean_within_clt_bound(self):
        rng = np.random.default_rng(2)
        runs = rng.exponential(scale=3.0, size=(1000, 5))
        curve = mospa_curve(runs)
        half_width = 4 * 3.0 / np.sqrt(1000)
        assert np.all(np.abs(curve - 3.0) <= half_width)
