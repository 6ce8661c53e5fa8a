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

Key `section.name` sets field `name` of the section's dataclass (`filter`
is `FilterSettings`, `run` is `RunConfig`), except: `sensor.x`/`sensor.y`
make `position`, `sensor.sigma_bearing_deg` is `sigma_bearing` in radians,
`scenario.appear_min`/`appear_max` make `appear_window`, `birth.particles` is
`particle_budget`, `filter.initial_phd_mass` is RunConfig's, and
`clutter.mean_count` is the sensor's `clutter_mean`. Unknown keys and
malformed values raise `ConfigError` naming the key, and a bad section, or
a schema key that sets no field, raises it naming the section. A section's
error names a routed field by the key that sets it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .metrics import OspaParams
from .models import BirthModel, Models, MotionModel, SensorModel
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
            raise ConfigError(f"line {lineno}: empty key or value in {raw.strip()!r}")
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
        if np.isfinite(number := float(value)):
            return number
    except ValueError:
        pass
    raise ConfigError(f"field '{key}': expected a finite number, got {value!r}")


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


# the routed fields a section's check can name, and the keys that set them
_KEY_OF_FIELD = {"sigma_bearing": "sensor.sigma_bearing_deg", "clutter_mean": "clutter.mean_count",
                 "appear_window": "scenario.appear_min and scenario.appear_max",
                 "particle_budget": "birth.particles"}
_ROUTED_FIELD = re.compile(r"\b(?:" + "|".join(_KEY_OF_FIELD) + r")\b")


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
        if self.seed < 0:
            raise ConfigError("field 'run.seed': must be nonnegative")
        if self.initial_phd_mass < 0:
            raise ConfigError("field 'filter.initial_phd_mass': must be nonnegative")

    @property
    def models(self) -> Models:
        return Models(self.scenario.motion, self.scenario.sensor, self.birth)


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Validate raw key/value pairs against the schema and assemble a RunConfig."""
    unknown = sorted(set(values) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}'")
    parsed, fields = {}, {}
    for key, (cast, default) in _SCHEMA.items():
        parsed[key] = cast(key, values[key]) if key in values else default
        section_name, name = key.split(".")
        fields.setdefault(section_name, {})[name] = parsed[key]
    sensor, scenario = fields["sensor"], fields["scenario"]
    sensor["position"] = np.array([sensor.pop("x"), sensor.pop("y")])
    sensor["sigma_bearing"] = np.deg2rad(sensor.pop("sigma_bearing_deg"))
    scenario["appear_window"] = (scenario.pop("appear_min"), scenario.pop("appear_max"))
    fields["birth"]["particle_budget"] = fields["birth"].pop("particles")
    fields["run"]["initial_phd_mass"] = fields["filter"].pop("initial_phd_mass")
    sensor["clutter_mean"] = fields["clutter"].pop("mean_count")

    def section(name, builder, **built):
        try:
            return builder(**fields.pop(name), **built)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            message = _ROUTED_FIELD.sub(lambda match: _KEY_OF_FIELD[match[0]], str(exc))
            raise ConfigError(f"invalid '{name}.*' settings: {message}") from None

    # sections are built in this order, so the first bad one names itself
    config = section(
        "run", RunConfig,
        scenario=section("scenario", ScenarioConfig, motion=section("motion", MotionModel),
                         sensor=section("sensor", SensorModel)),
        thresholds=section("thresholds", Thresholds), settings=section("filter", FilterSettings),
        birth=section("birth", BirthModel), ospa=section("ospa", OspaParams),
        raw={key: str(value) for key, value in parsed.items()})
    if unbuilt := sorted(name for name, rest in fields.items() if rest):
        raise ConfigError(f"invalid '{unbuilt[0]}.*' settings: no such section")
    return config


def load_run_config(path: str | Path) -> RunConfig:
    return build_run_config(parse_config_text(Path(path).read_text()))
