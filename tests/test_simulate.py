import io

import numpy as np
import pytest

from lmbp.models import MotionModel, SensorModel
from lmbp.rfs import Measurement
from lmbp.simulate import (
    ScenarioConfig,
    generate_frame,
    generate_frames,
    generate_truth,
    write_truth_csv,
)


def ts1_config(**kw):
    defaults = dict(style="ts1", object_count=10, appear_window=(1, 40),
                    disappear_after=150, total_steps=200)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestGenerateTruth:
    def test_ts1_birth_death_windows(self):
        config = ts1_config()
        truth = generate_truth(config, np.random.default_rng(0))
        assert len(truth.objects) == 10
        for obj in truth.objects:
            assert 1 <= obj.birth_step <= 40
            assert obj.death_step == 150
            assert obj.states.shape == (150 - obj.birth_step + 1, 4)

    def test_birth_positions_inside_roi(self):
        config = ts1_config()
        for seed in range(5):
            truth = generate_truth(config, np.random.default_rng(seed))
            for obj in truth.objects:
                rel = obj.states[0, :2] - config.sensor.position
                assert np.linalg.norm(rel) <= config.sensor.max_range + 1e-9

    def test_ts2_rendezvous(self):
        config = ScenarioConfig(style="ts2", object_count=20, appear_window=(1, 100),
                                disappear_after=140, total_steps=250,
                                rendezvous_step=120,
                                motion=MotionModel(sigma_u=1e-4))
        truth = generate_truth(config, np.random.default_rng(1))
        for obj in truth.objects:
            assert obj.alive_at(120)
            pos = obj.state_at(120)[:2]
            assert np.linalg.norm(pos) <= 20.0

    def test_ts2_spawn_beyond_the_disk_is_clamped(self):
        # a spawn point speed * (rendezvous_step - birth) from the origin
        # lies beyond the disk; it is pulled in to 0.98 max_range from the sensor
        config = ScenarioConfig(style="ts2", object_count=5, appear_window=(1, 1),
                                disappear_after=10, total_steps=10, rendezvous_step=120,
                                max_speed=10.0)
        truth = generate_truth(config, np.random.default_rng(2))
        for obj in truth.objects:
            off = obj.states[0, :2] - config.sensor.position
            assert np.linalg.norm(off) == pytest.approx(0.98 * config.sensor.max_range,
                                                        rel=1e-12)

    def test_zero_objects(self):
        truth = generate_truth(ts1_config(object_count=0), np.random.default_rng(0))
        assert truth.objects == ()
        assert truth.alive_states(10).shape == (0, 4)

    def test_same_seed_same_truth(self):
        config = ts1_config(object_count=4)
        a = generate_truth(config, np.random.default_rng(7))
        b = generate_truth(config, np.random.default_rng(7))
        for oa, ob in zip(a.objects, b.objects):
            assert oa.birth_step == ob.birth_step
            np.testing.assert_array_equal(oa.states, ob.states)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            ts1_config(appear_window=(0, 40))
        with pytest.raises(ValueError):
            ts1_config(appear_window=(10, 5))
        with pytest.raises(ValueError):
            ts1_config(disappear_after=30)


class TestGenerateFrame:
    # effectively pD = 1, and no clutter
    sensor = SensorModel(pd_max=1.0, pd_scale=1e9, clutter_mean=0.0)

    def test_certain_detection_no_clutter(self):
        state = np.array([[50.0, 0.0, 0.0, 0.0]])
        frame = generate_frame(state, self.sensor, np.random.default_rng(0))
        assert len(frame) == 1
        rho, theta = self.sensor.range_bearing(state[0])
        assert frame[0].range == pytest.approx(float(rho), abs=10 * self.sensor.sigma_range)
        assert frame[0].bearing == pytest.approx(float(theta), abs=0.1)

    def test_mean_clutter_count(self):
        sensor = SensorModel(clutter_mean=100.0)
        rng = np.random.default_rng(1)
        counts = [len(generate_frame(np.empty((0, 4)), sensor, rng))
                  for _ in range(10_000)]
        assert np.mean(counts) == pytest.approx(100.0, rel=0.01)

    def test_object_beyond_range_never_detected(self):
        state = np.array([[400.0, -50.0, 0.0, 0.0]])  # 400 from sensor at (0,-50)
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert generate_frame(state, self.sensor, rng) == []

    def test_noisy_range_clamped_to_roi(self):
        sensor = SensorModel(pd_max=1.0, pd_scale=1e9, sigma_range=50.0, clutter_mean=0.0)
        state = np.array([[299.0, -50.0, 0.0, 0.0]])
        rng = np.random.default_rng(3)
        for _ in range(200):
            frame = generate_frame(state, sensor, rng)
            for z in frame:
                assert 0.0 <= z.range <= sensor.max_range

    def test_same_seed_same_frames(self):
        config = ts1_config(object_count=3)
        truth = generate_truth(config, np.random.default_rng(5))
        a = generate_frames(truth, config.sensor, np.random.default_rng(6))
        b = generate_frames(truth, config.sensor, np.random.default_rng(6))
        assert a == b

    def test_frame_carries_no_identity(self):
        frame = generate_frame(np.array([[50.0, 0, 0, 0]]),
                               SensorModel(pd_max=1.0, pd_scale=1e9, clutter_mean=5.0),
                               np.random.default_rng(7))
        assert all(isinstance(z, Measurement) for z in frame)
        assert all(len(z) == 2 for z in frame)


def test_csv_exports():
    config = ts1_config(object_count=2, total_steps=30, appear_window=(1, 5),
                        disappear_after=10)
    truth = generate_truth(config, np.random.default_rng(0))
    buf = io.StringIO()
    write_truth_csv(buf, truth)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "object_id,k,x1,x2,v1,v2"
    assert len(lines) == 1 + sum(o.death_step - o.birth_step + 1 for o in truth.objects)
