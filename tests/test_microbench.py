"""Smoke test of the replayable microbenchmarks under `microbench/`: each
runs a few steps of a small config, asserts that its replay returns what
the steps got, and prints one JSON record."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = """
scenario.style = ts1
scenario.object_count = 2
scenario.appear_min = 1
scenario.appear_max = 2
scenario.total_steps = 5
clutter.mean_count = 20
run.mc_runs = 1
"""


def test_likelihood_cells_replays_the_steps_calls(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    result = subprocess.run([sys.executable, "microbench/likelihood_cells.py",
                             "--config", str(config)],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    # one intensity call per step, each of them timed in every pass
    assert record["calls"] == 5 and record["cells"] > 0
    assert len(record["per_call_ms_passes"]) == record["passes"] >= 5
    assert record["per_call_ms_q1"] <= record["per_call_ms_p50"] <= record["per_call_ms_q3"]
    assert len(record["sha256"]) == 64


def test_resample_rows_replays_the_steps_calls(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    result = subprocess.run([sys.executable, "microbench/resample_rows.py",
                             "--config", str(config)],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    # one intensity call per step, the whole union in one row
    assert record["steps"] == 5 and record["phd_calls"] == record["phd_rows"] == 5
    assert record["track_rows"] > 0
    for kind in ("track", "phd"):
        assert len(record[f"{kind}_per_step_ms_passes"]) == record["passes"] >= 5
        assert (record[f"{kind}_per_step_ms_q1"] <= record[f"{kind}_per_step_ms_p50"]
                <= record[f"{kind}_per_step_ms_q3"])
    assert len(record["sha256"]) == 64
