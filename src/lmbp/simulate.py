"""Ground-truth scenario generation and synthetic range-bearing frames.

Two scenario styles:

* ``ts1``: objects appear at uniform positions in the surveillance disk at
  uniform times inside the appear window and move freely.
* ``ts2``: objects are placed around the origin with velocities aimed so that
  everybody reaches (0, 0) at the rendezvous step.

Same seed, same outputs: generation is fully deterministic given the stream.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .models import ClutterModel, MotionModel, SensorModel, uniform_disk_positions
from .rfs import Measurement, STATE_DIM


@dataclass(frozen=True)
class ScenarioConfig:
    style: str = "ts1"                      # "ts1" or "ts2"
    object_count: int = 10
    appear_window: tuple[int, int] = (1, 40)
    disappear_after: int = 150
    total_steps: int = 200
    rendezvous_step: int = 120              # ts2 only
    max_speed: float = 1.5                  # ts2 approach speed bound
    velocity_sigma: float = 0.5             # newborn velocity prior (ts1)
    motion: MotionModel = field(default_factory=MotionModel)
    sensor: SensorModel = field(default_factory=SensorModel)
    clutter: ClutterModel = field(default_factory=ClutterModel)

    def __post_init__(self):
        if self.style not in ("ts1", "ts2"):
            raise ValueError("style must be 'ts1' or 'ts2'")
        lo, hi = self.appear_window
        if not 1 <= lo <= hi <= self.total_steps:
            raise ValueError("appear window must lie within [1, total_steps]")
        if self.disappear_after < hi:
            raise ValueError("disappear_after must not precede the appear window")


@dataclass(frozen=True)
class ObjectTruth:
    object_id: int
    birth_step: int
    death_step: int
    states: np.ndarray  # (death - birth + 1, 4)

    def alive_at(self, k: int) -> bool:
        return self.birth_step <= k <= self.death_step

    def state_at(self, k: int) -> np.ndarray:
        return self.states[k - self.birth_step]


@dataclass(frozen=True)
class GroundTruth:
    objects: tuple[ObjectTruth, ...]
    total_steps: int

    def alive_states(self, k: int) -> np.ndarray:
        alive = [o.state_at(k) for o in self.objects if o.alive_at(k)]
        return np.array(alive).reshape(-1, STATE_DIM)

    def alive_positions(self, k: int) -> np.ndarray:
        return self.alive_states(k)[:, :2]


def _evolve(initial: np.ndarray, birth: int, death: int, motion: MotionModel,
            rng: np.random.Generator) -> np.ndarray:
    states = np.empty((death - birth + 1, STATE_DIM))
    states[0] = initial
    for i in range(1, len(states)):
        states[i] = motion.transition_sample(states[i - 1], rng)
    return states


def generate_truth(config: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw object births, initial states, and full trajectories."""
    objects = []
    lo, hi = config.appear_window
    death = min(config.disappear_after, config.total_steps)
    for i in range(config.object_count):
        birth = int(rng.integers(lo, hi + 1))
        if config.style == "ts1":
            pos = uniform_disk_positions(config.sensor.position,
                                         config.sensor.max_range, 1, rng)[0]
            vel = rng.normal(0.0, config.velocity_sigma, 2)
        else:
            speed = rng.uniform(0.5 * config.max_speed, config.max_speed)
            angle = rng.uniform(-np.pi, np.pi)
            radius = speed * max(config.rendezvous_step - birth, 1)
            pos = radius * np.array([np.cos(angle), np.sin(angle)])
            # keep the spawn point inside the surveillance disk
            off = pos - config.sensor.position
            limit = 0.98 * config.sensor.max_range
            norm = np.linalg.norm(off)
            if norm > limit:
                pos = config.sensor.position + off * (limit / norm)
            steps_to_origin = max(config.rendezvous_step - birth, 1)
            vel = -pos / steps_to_origin
        initial = np.concatenate([pos, vel])
        objects.append(ObjectTruth(i, birth, death,
                                   _evolve(initial, birth, death, config.motion, rng)))
    return GroundTruth(tuple(objects), config.total_steps)


def generate_frame(truth_states: np.ndarray, sensor: SensorModel, clutter: ClutterModel,
                   rng: np.random.Generator) -> list[Measurement]:
    """One measurement frame: detections of the given states plus clutter.

    Objects beyond the sensor range are never detected; detections are noisy
    range-bearing pairs with the range clamped to the sensor disk. The frame
    order is shuffled so it carries no identity information.
    """
    frame: list[Measurement] = []
    truth_states = np.asarray(truth_states, dtype=float).reshape(-1, STATE_DIM)
    for state in truth_states:
        rho, _ = sensor.range_bearing(state)
        if rho > sensor.max_range:
            continue
        if rng.random() < sensor.detection_prob(state):
            frame.append(sensor.sample_measurement(state, rng))
    frame.extend(clutter.sample(rng))
    order = rng.permutation(len(frame))
    return [frame[i] for i in order]


def generate_frames(truth: GroundTruth, sensor: SensorModel, clutter: ClutterModel,
                    rng: np.random.Generator) -> list[list[Measurement]]:
    """Frames for steps 1..total_steps (index 0 is step 1)."""
    return [generate_frame(truth.alive_states(k), sensor, clutter, rng)
            for k in range(1, truth.total_steps + 1)]


TRUTH_HEADER = "object_id,k,x1,x2,v1,v2"
FRAME_HEADER = "k,range,bearing"


def write_truth_csv(out: io.TextIOBase, truth: GroundTruth) -> None:
    out.write(TRUTH_HEADER + "\n")
    for obj in truth.objects:
        for k in range(obj.birth_step, obj.death_step + 1):
            vals = ",".join(f"{v:.17g}" for v in obj.state_at(k))
            out.write(f"{obj.object_id},{k},{vals}\n")


def write_frames_csv(out: io.TextIOBase, frames: Sequence[Sequence[Measurement]]) -> None:
    out.write(FRAME_HEADER + "\n")
    for k, frame in enumerate(frames, start=1):
        for z in frame:
            out.write(f"{k},{z.range:.17g},{z.bearing:.17g}\n")
