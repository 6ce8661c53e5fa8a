import io

import numpy as np
import pytest

from lmbp.estimation import detect_and_estimate, write_estimates_csv
from lmbp.rfs import BernoulliTrack, FilterState, Label, ParticleSet, PoissonPhd


def track_at(label, r, x1):
    states = np.zeros((4, 4))
    states[:, 0] = x1
    return BernoulliTrack(label, r, ParticleSet(states, np.full(4, 0.25)))


def state_of(*tracks):
    return FilterState(tuple(tracks), PoissonPhd.empty(), 9)


class TestDetectAndEstimate:
    def test_above_threshold_included(self):
        state = state_of(track_at(Label(1, 1), 0.51, 5.0))
        out = detect_and_estimate(state, 0.5)
        assert len(out) == 1
        assert out[0].label == Label(1, 1)
        np.testing.assert_allclose(out[0].state, [5, 0, 0, 0])

    def test_boundary_excluded(self):
        state = state_of(track_at(Label(1, 1), 0.5, 5.0))
        assert detect_and_estimate(state, 0.5) == []

    def test_empty_state(self):
        assert detect_and_estimate(state_of(), 0.5) == []

    def test_ordered_by_label_and_subset(self):
        state = state_of(track_at(Label(2, 1), 0.9, 1.0),
                         track_at(Label(1, 2), 0.8, 2.0),
                         track_at(Label(1, 1), 0.2, 3.0))
        out = detect_and_estimate(state, 0.5)
        assert [e.label for e in out] == [Label(1, 2), Label(2, 1)]
        assert {e.label for e in out} <= set(state.block.labels)

    def test_deterministic(self):
        state = state_of(track_at(Label(1, 1), 0.7, 4.0))
        a = detect_and_estimate(state, 0.5)
        b = detect_and_estimate(state, 0.5)
        assert a[0].existence == b[0].existence
        np.testing.assert_array_equal(a[0].state, b[0].state)


def test_csv_schema():
    state = state_of(track_at(Label(3, 2), 0.75, 1.5))
    estimates = detect_and_estimate(state, 0.5)
    buf = io.StringIO()
    write_estimates_csv(buf, [(9, estimates)])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,label_birth,label_index,x1,x2,v1,v2,existence"
    fields = lines[1].split(",")
    assert fields[:3] == ["9", "3", "2"]
    assert float(fields[3]) == pytest.approx(1.5)
    assert float(fields[7]) == pytest.approx(0.75)
