import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmbp.cli import main, run_experiment
from lmbp.config import (
    _SCHEMA,
    ConfigError,
    _to_float,
    build_run_config,
    load_run_config,
    parse_config_text,
)

TINY = """
# tiny smoke scenario
scenario.style = ts1
scenario.object_count = 1
scenario.appear_min = 1
scenario.appear_max = 3
scenario.disappear_after = 10
scenario.total_steps = 10
clutter.mean_count = 2
birth.particles = 128
filter.track_particles = 64
filter.phd_particles = 128
run.seed = 3
"""


_cfg_counter = iter(range(10_000))

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, text, **overrides):
    lines = [text]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / f"run{next(_cfg_counter)}.cfg"
    path.write_text("\n".join(lines))
    return path


# a valid value other than the default for every schema key
NON_DEFAULT = {
    "scenario.style": "ts2", "scenario.object_count": "11", "scenario.appear_min": "2",
    "scenario.appear_max": "41", "scenario.disappear_after": "151",
    "scenario.total_steps": "201", "scenario.rendezvous_step": "121",
    "scenario.max_speed": "1.25", "scenario.velocity_sigma": "0.75",
    "motion.sigma_u": "0.02", "motion.p_survival": "0.95",
    "sensor.x": "10.5", "sensor.y": "-40.5", "sensor.max_range": "250", "sensor.sigma_range": "3",
    "sensor.sigma_bearing_deg": "2", "sensor.pd_max": "0.9", "sensor.pd_scale": "400",
    "clutter.mean_count": "20",
    "birth.mean_births": "0.2", "birth.velocity_sigma": "0.25", "birth.particles": "600",
    "filter.track_particles": "300", "filter.phd_particles": "700",
    "filter.initial_phd_mass": "0.5",
    "thresholds.gamma_c": "1e-6", "thresholds.gamma_tr": "0.05", "thresholds.gamma_leg": "0.2",
    "thresholds.gamma_d": "0.6",
    "ospa.cutoff": "10", "ospa.order": "1",
    "run.mc_runs": "3", "run.seed": "7", "run.out_dir": "elsewhere",
}

# the keys that do not set the field of their own name, and what they set,
# in the key's units
ROUTED = {
    "sensor.x": lambda config: config.scenario.sensor.position[0],
    "sensor.y": lambda config: config.scenario.sensor.position[1],
    "sensor.sigma_bearing_deg": lambda config: np.rad2deg(config.scenario.sensor.sigma_bearing),
    "scenario.appear_min": lambda config: config.scenario.appear_window[0],
    "scenario.appear_max": lambda config: config.scenario.appear_window[1],
    "birth.particles": lambda config: config.birth.particle_budget,
    "filter.initial_phd_mass": lambda config: config.initial_phd_mass,
    "clutter.mean_count": lambda config: config.scenario.sensor.clutter_mean,
}

# a value each routed key rejects, and the field it routes to
BAD_ROUTED = {
    "sensor.x": ("nan", "position"), "sensor.y": ("inf", "position"),
    "sensor.sigma_bearing_deg": ("0", "sigma_bearing"),
    "scenario.appear_min": ("0", "appear_window"), "scenario.appear_max": ("11", "appear_window"),
    "birth.particles": ("0", "particle_budget"),
    "filter.initial_phd_mass": ("-1", "initial_phd_mass"),
    "clutter.mean_count": ("-1", "clutter_mean"),
}


def field_set_by(config, key):
    section, name = key.split(".")
    if key in ROUTED:
        return ROUTED[key](config)
    scenario = config.scenario
    owner = {"scenario": scenario, "motion": scenario.motion, "sensor": scenario.sensor,
             "thresholds": config.thresholds, "filter": config.settings, "birth": config.birth,
             "ospa": config.ospa, "run": config}[section]
    return getattr(owner, name)


class TestConfigParsing:
    def test_parse_values_and_comments(self):
        out = parse_config_text("a.b = 1  # trailing\n\n# full comment\nc.d = x\n")
        assert out == {"a.b": "1", "c.d": "x"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("no equals sign here")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="scenario.objects"):
            build_run_config({"scenario.objects": "3"})
        # no key chooses the marginals: every step solves exactly where BP is not exact
        with pytest.raises(ConfigError, match="filter.marginals"):
            build_run_config({"filter.marginals": "bp"})

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="run.mc_runs"):
            build_run_config({"run.mc_runs": "many"})

    def test_bad_model_value_names_section(self):
        with pytest.raises(ConfigError, match="sensor"):
            build_run_config({"sensor.pd_max": "1.5"})

    @pytest.mark.parametrize("key", list(ROUTED))
    def test_bad_routed_value_names_the_key(self, key):
        # the error names the key that was written, not the field it sets
        value, field = BAD_ROUTED[key]
        with pytest.raises(ConfigError) as error:
            build_run_config({**parse_config_text(TINY), key: value})
        message = str(error.value)
        assert key in message
        assert not re.search(rf"(?<![.\w]){field}\b", message), message

    @pytest.mark.parametrize("key", list(_SCHEMA))
    def test_every_key_sets_its_field(self, key):
        cast, default = _SCHEMA[key]
        value = cast(key, NON_DEFAULT[key])
        assert value != default
        config = build_run_config({key: NON_DEFAULT[key]})
        assert field_set_by(config, key) == (value if isinstance(value, str)
                                             else pytest.approx(value, rel=1e-15))
        assert config.raw[key] == str(value)

    @pytest.mark.parametrize("key", ["motion.drag", "run.drag", "radar.gain"])
    def test_schema_key_without_a_field_names_its_section(self, key, monkeypatch):
        # a key the schema parses but no field takes is refused, not ignored
        monkeypatch.setitem(_SCHEMA, key, (_to_float, 1.0))
        with pytest.raises(ConfigError, match=rf"'{key.split('.')[0]}\.\*'"):
            build_run_config({})

    def test_shipped_configs_load(self):
        # every value a shipped config sets is the one its run echoes
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert [p.name for p in paths] == ["desk_ts1.cfg", "full_ts1.cfg", "full_ts2.cfg",
                                              "short_ts2.cfg"]
        for path in paths:
            config = load_run_config(path)
            for key, value in parse_config_text(path.read_text()).items():
                echoed = config.raw[key]
                assert echoed == value or float(echoed) == float(value), (path.name, key)
            assert config.scenario.style == path.stem[-3:]

    def test_defaults_match_headline_experiment(self):
        config = build_run_config({})
        assert config.thresholds.gamma_tr == 1e-2
        assert config.thresholds.gamma_c == 1e-10
        assert config.thresholds.gamma_leg == 1e-2
        assert config.thresholds.gamma_d == 0.5
        assert config.settings.track_particles == 1000
        assert config.settings.phd_particles == 5000
        assert config.birth.particle_budget == 5000
        assert config.ospa.cutoff == 20.0 and config.ospa.order == 2.0
        assert config.scenario.sensor.clutter_mean == 100.0
        assert config.scenario.sensor.pd_max == 0.7
        np.testing.assert_allclose(config.scenario.sensor.position, [0.0, -50.0])


class TestRunExperiment:
    def test_outputs_and_row_counts(self, tmp_path):
        path = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "out"})
        config = load_run_config(path)
        summary = run_experiment(config, quiet=True)
        mospa = (tmp_path / "out" / "mospa.csv").read_text().strip().splitlines()
        assert mospa[0] == "k,mospa"
        assert len(mospa) == 1 + 10
        assert (tmp_path / "out" / "estimates_r000.csv").exists()
        assert (tmp_path / "out" / "truth_r000.csv").exists()
        assert summary.mospa.shape == (10,)
        assert summary.mean_step_seconds > 0

    def test_thresholds_echoed_in_summary(self, tmp_path):
        path = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "out"})
        run_experiment(load_run_config(path), quiet=True)
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "thresholds.gamma_tr = 0.01" in summary
        assert "thresholds.gamma_c = 1e-10" in summary
        assert "thresholds.gamma_leg = 0.01" in summary
        assert "thresholds.gamma_d = 0.5" in summary
        assert "mean_step_seconds" in summary and "mean_track_count" in summary

    def test_byte_identical_reruns(self, tmp_path):
        path_a = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "a",
                                                 "run.mc_runs": 2})
        path_b = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "b",
                                                 "run.mc_runs": 2})
        run_experiment(load_run_config(path_a), quiet=True)
        run_experiment(load_run_config(path_b), quiet=True)
        for name in ("mospa.csv", "estimates_r000.csv", "estimates_r001.csv",
                     "truth_r000.csv", "truth_r001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestFailureCleanup:
    def test_partial_outputs_removed(self, tmp_path, monkeypatch):
        import lmbp.cli as cli_mod

        calls = {"n": 0}
        real = cli_mod.execute_run

        def flaky(config, master):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("forced failure")
            return real(config, master)

        monkeypatch.setattr(cli_mod, "execute_run", flaky)
        path = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "out",
                                               "run.mc_runs": 2})
        with pytest.raises(RuntimeError):
            run_experiment(load_run_config(path), quiet=True)
        assert list((tmp_path / "out").glob("*.csv")) == []

    def test_main_reports_failure(self, tmp_path, monkeypatch, capsys):
        import lmbp.cli as cli_mod

        def boom(config, master):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(cli_mod, "execute_run", boom)
        path = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "out"})
        assert main(["run", str(path), "--quiet"]) == 1
        assert "forced failure" in capsys.readouterr().err


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY, **{"run.out_dir": tmp_path / "out"})
        assert main(["run", str(path), "--quiet"]) == 0
        assert (tmp_path / "out" / "mospa.csv").exists()

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, TINY)
        out = tmp_path / "flagged"
        assert main(["run", str(path), "--out", str(out), "--runs", "2",
                     "--seed", "9", "--quiet"]) == 0
        assert (out / "estimates_r001.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "run.seed = 9" in summary

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense.key = 1\n")
        assert main(["run", str(path), "--quiet"]) == 2
        assert "nonsense.key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, flag", [
        ("run.seed", "-1", None),
        ("run.seed", "-1", "--seed"),
        ("filter.track_particles", "0", None),
        ("filter.phd_particles", "0", None),
        ("filter.track_particles", "-3", None),
        ("filter.phd_particles", "-3", None),
        ("thresholds.gamma_c", "nan", None),
        ("clutter.mean_count", "nan", None),
        ("sensor.max_range", "inf", None),
        ("scenario.object_count", "-2", None),
        ("run.seed", "", None),
        ("clutter.mean_count", "lots", None),
        ("run.mc_runs", "0", None),
        ("filter.initial_phd_mass", "-1", None),
        ("filter.marginals", "x", None),
        ("filter.bp_iterations", "0", None),
        ("scenario.style", "ts3", None),
        # 1 / (2 pi sigma_range sigma_bearing) overflows
        ("sensor.sigma_range", "1e-320", None),
    ])
    def test_bad_value_exits_2_naming_the_field(self, tmp_path, capsys, key, value, flag):
        out = tmp_path / "out"
        values = {**parse_config_text(TINY), "run.out_dir": str(out)}
        if flag is None:
            values[key] = value
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = [flag, value] if flag else []
        assert main(["run", str(path), "--quiet", *argv]) == 2
        section, name = key.split(".")
        err = capsys.readouterr().err
        assert section in err and name in err
        assert not out.exists()

    def test_negative_clutter_mean_exits_2_naming_clutter(self, tmp_path, capsys):
        # `clutter.mean_count` routes to the sensor's `clutter_mean`, which the
        # sensor model rejects below 0
        values = {**parse_config_text(TINY), "run.out_dir": str(tmp_path / "out"),
                  "clutter.mean_count": "-1"}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["run", str(path), "--quiet"]) == 2
        assert "clutter.mean_count must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runs_without_scipy(self, tmp_path):
        # the package needs numpy alone: importing it loads no scipy module,
        # and a run succeeds with scipy made unimportable
        values = {**parse_config_text((CONFIGS / "desk_ts1.cfg").read_text()),
                  "scenario.total_steps": "2", "scenario.appear_max": "2"}
        path = tmp_path / "desk.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = tmp_path / "out"
        script = "\n".join([
            "import sys",
            "import lmbp, lmbp.cli",
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']",
            "assert not loaded, loaded",
            "sys.modules['scipy'] = None",
            f"sys.exit(lmbp.cli.main(['run', {str(path)!r}, '--runs', '1', '--quiet',"
            f" '--out', {str(out)!r}]))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len((out / "mospa.csv").read_text().splitlines()) == 1 + 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
