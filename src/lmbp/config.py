"""Run configuration: flat `key = value` text with dotted section prefixes.

Example::

    # desk-scale benchmark
    scenario.style = ts1
    scenario.object_count = 3
    clutter.mean_count = 20
    thresholds.gamma_tr = 1e-2
    run.mc_runs = 50
    run.seed = 1
    run.out_dir = out

Unknown keys and malformed values raise `ConfigError` naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .metrics import OspaParams
from .models import BirthModel, ClutterModel, Models, MotionModel, SensorModel
from .simulate import ScenarioConfig
from .update import FilterSettings, Thresholds


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"field '{key}': expected integer, got {value!r}") from None


def _to_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"field '{key}': expected number, got {value!r}") from None


def _to_str(key, value):
    return value


_SCHEMA = {
    "scenario.style": (_to_str, "ts1"),
    "scenario.object_count": (_to_int, 10),
    "scenario.appear_min": (_to_int, 1),
    "scenario.appear_max": (_to_int, 40),
    "scenario.disappear_after": (_to_int, 150),
    "scenario.total_steps": (_to_int, 200),
    "scenario.rendezvous_step": (_to_int, 120),
    "scenario.max_speed": (_to_float, 1.5),
    "scenario.velocity_sigma": (_to_float, 0.5),
    "motion.sigma_u": (_to_float, 0.01),
    "motion.p_survival": (_to_float, 0.99),
    "sensor.x": (_to_float, 0.0),
    "sensor.y": (_to_float, -50.0),
    "sensor.max_range": (_to_float, 300.0),
    "sensor.sigma_range": (_to_float, 2.0),
    "sensor.sigma_bearing_deg": (_to_float, 1.0),
    "sensor.pd_max": (_to_float, 0.7),
    "sensor.pd_scale": (_to_float, 450.0),
    "clutter.mean_count": (_to_float, 100.0),
    "birth.mean_births": (_to_float, 0.1),
    "birth.velocity_sigma": (_to_float, 0.5),
    "birth.particles": (_to_int, 5000),
    "filter.track_particles": (_to_int, 1000),
    "filter.phd_particles": (_to_int, 5000),
    "filter.bp_iterations": (_to_int, 20),
    "filter.marginals": (_to_str, "bp"),
    "filter.initial_phd_mass": (_to_float, 0.01),
    "thresholds.gamma_c": (_to_float, 1e-10),
    "thresholds.gamma_tr": (_to_float, 1e-2),
    "thresholds.gamma_leg": (_to_float, 1e-2),
    "thresholds.gamma_d": (_to_float, 0.5),
    "ospa.cutoff": (_to_float, 20.0),
    "ospa.order": (_to_float, 2.0),
    "run.mc_runs": (_to_int, 1),
    "run.seed": (_to_int, 0),
    "run.out_dir": (_to_str, "out"),
}


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    thresholds: Thresholds
    settings: FilterSettings
    birth: BirthModel
    ospa: OspaParams
    initial_phd_mass: float
    mc_runs: int
    seed: int
    out_dir: str
    raw: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.mc_runs < 1:
            raise ConfigError("field 'run.mc_runs': must be >= 1")
        if self.initial_phd_mass < 0:
            raise ConfigError("field 'filter.initial_phd_mass': must be nonnegative")

    @property
    def models(self) -> Models:
        return Models(self.scenario.motion, self.scenario.sensor,
                      self.scenario.clutter, self.birth)


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Validate raw key/value pairs against the schema and assemble a RunConfig."""
    unknown = sorted(set(values) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}'")
    parsed = {}
    for key, (cast, default) in _SCHEMA.items():
        parsed[key] = cast(key, values[key]) if key in values else default

    def section(name, builder, keys):
        try:
            return builder(**keys)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid '{name}.*' settings: {exc}") from None

    motion = section("motion", MotionModel, dict(
        sigma_u=parsed["motion.sigma_u"], p_survival=parsed["motion.p_survival"]))
    sensor = section("sensor", SensorModel, dict(
        position=np.array([parsed["sensor.x"], parsed["sensor.y"]]),
        max_range=parsed["sensor.max_range"],
        sigma_range=parsed["sensor.sigma_range"],
        sigma_bearing=np.deg2rad(parsed["sensor.sigma_bearing_deg"]),
        pd_max=parsed["sensor.pd_max"], pd_scale=parsed["sensor.pd_scale"]))
    clutter = section("clutter", ClutterModel, dict(
        mean_count=parsed["clutter.mean_count"], max_range=parsed["sensor.max_range"]))
    scenario = section("scenario", ScenarioConfig, dict(
        style=parsed["scenario.style"],
        object_count=parsed["scenario.object_count"],
        appear_window=(parsed["scenario.appear_min"], parsed["scenario.appear_max"]),
        disappear_after=parsed["scenario.disappear_after"],
        total_steps=parsed["scenario.total_steps"],
        rendezvous_step=parsed["scenario.rendezvous_step"],
        max_speed=parsed["scenario.max_speed"],
        velocity_sigma=parsed["scenario.velocity_sigma"],
        motion=motion, sensor=sensor, clutter=clutter))
    thresholds = section("thresholds", Thresholds, dict(
        gamma_c=parsed["thresholds.gamma_c"], gamma_tr=parsed["thresholds.gamma_tr"],
        gamma_leg=parsed["thresholds.gamma_leg"], gamma_d=parsed["thresholds.gamma_d"]))
    settings = section("filter", FilterSettings, dict(
        track_particles=parsed["filter.track_particles"],
        phd_particles=parsed["filter.phd_particles"],
        bp_iterations=parsed["filter.bp_iterations"],
        marginals=parsed["filter.marginals"]))
    birth = section("birth", BirthModel, dict(
        mean_births=parsed["birth.mean_births"],
        velocity_sigma=parsed["birth.velocity_sigma"],
        particle_budget=parsed["birth.particles"]))
    ospa_params = section("ospa", OspaParams, dict(
        cutoff=parsed["ospa.cutoff"], order=parsed["ospa.order"]))

    echo = {key: str(parsed[key]) for key in _SCHEMA}
    return RunConfig(scenario=scenario, thresholds=thresholds, settings=settings,
                     birth=birth, ospa=ospa_params,
                     initial_phd_mass=parsed["filter.initial_phd_mass"],
                     mc_runs=parsed["run.mc_runs"], seed=parsed["run.seed"],
                     out_dir=parsed["run.out_dir"], raw=echo)


def load_run_config(path: str | Path) -> RunConfig:
    return build_run_config(parse_config_text(Path(path).read_text()))
