"""Smoke test of the replayable microbenchmarks under `microbench/`: each
runs a few steps of a small config, asserts that its replay returns what
the steps got, and prints one JSON record. The shared runner's bit check,
digest and import are tested in process."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def load_runner():
    """A fresh import of `microbench/replay.py`."""
    spec = importlib.util.spec_from_file_location("replay", ROOT / "microbench" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_stage(tmp_path, script):
    """The JSON record of `microbench/<script>` run on the small config."""
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    result = subprocess.run([sys.executable, f"microbench/{script}", "--config", str(config)],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_likelihood_cells_replays_the_steps_calls(tmp_path):
    record = run_stage(tmp_path, "likelihood_cells.py")
    # one intensity call per step, each of them timed in every pass
    assert record["calls"] == 5 and record["cells"] > 0
    assert len(record["per_call_ms_passes"]) == record["passes"] >= 5
    assert record["per_call_ms_q1"] <= record["per_call_ms_p50"] <= record["per_call_ms_q3"]
    assert len(record["sha256"]) == 64


def test_resample_rows_replays_the_steps_calls(tmp_path):
    record = run_stage(tmp_path, "resample_rows.py")
    # one intensity call per step, the whole union in one row
    assert record["steps"] == 5 and record["phd_calls"] == record["phd_rows"] == 5
    assert record["track_rows"] > 0
    for kind in ("track", "phd"):
        assert len(record[f"{kind}_per_step_ms_passes"]) == record["passes"] >= 5
        assert (record[f"{kind}_per_step_ms_q1"] <= record[f"{kind}_per_step_ms_p50"]
                <= record[f"{kind}_per_step_ms_q3"])
    assert len(record["sha256"]) == 64


def test_exact_marginals_replays_the_steps_calls(tmp_path):
    record = run_stage(tmp_path, "exact_marginals.py")
    # the step's one marginal call per step, over every cluster of the step
    assert record["calls"] == 5 and record["clusters"] > 0
    assert len(record["per_call_ms_passes"]) == record["passes"] >= 5
    assert record["per_call_ms_q1"] <= record["per_call_ms_p50"] <= record["per_call_ms_q3"]
    assert len(record["sha256"]) == 64


def test_predict_tracks_replays_the_steps_calls(tmp_path):
    record = run_stage(tmp_path, "predict_tracks.py")
    # one block prediction per step, each from its captured generator state
    assert record["steps"] == record["calls"] == 5
    assert 0 < record["rows"] <= record["particles"]
    assert len(record["per_step_ms_passes"]) == record["passes"] >= 5
    assert record["per_step_ms_q1"] <= record["per_step_ms_p50"] <= record["per_step_ms_q3"]
    assert len(record["sha256"]) == 64


def test_digest_reads_a_label_by_its_digits():
    runner = load_runner()
    assert list(runner.leaves([(3, 12)])) == [b"3", b"12"]


def draw(scale, rng):
    return scale * rng.random(3), float(rng.random())


@pytest.mark.parametrize("leaf", ["array", "float"])
def test_replay_check_names_the_call_whose_output_differs_by_one_bit(leaf):
    runner = load_runner()
    calls = [(caller, (scale, np.random.default_rng(seed)),
              draw(scale, np.random.default_rng(seed)))
             for caller, scale, seed in (("predict", 1.0, 1), ("update_phd", 2.0, 2))]
    # each replay draws from a copy of the captured generator, so both pass
    runner.check_replay(draw, calls)
    runner.check_replay(draw, calls)
    caller, args, (values, weight) = calls[1]
    if leaf == "array":
        values = values.copy()
        values.view(np.uint64)[2] ^= 1
    else:
        weight = float(np.nextafter(weight, 1.0))
    calls[1] = (caller, args, (values, weight))
    with pytest.raises(AssertionError, match=r"call 1 \(from update_phd\)"):
        runner.check_replay(draw, calls)


def test_digest_hashes_each_dtype_array_and_float_in_call_order():
    ints, floats = np.arange(5, dtype=np.int64), np.linspace(0.0, 1.0, 4)
    want = hashlib.sha256(b"<i8" + ints.tobytes() + b"<f8" + floats.tobytes()
                          + (0.1).hex().encode())
    assert load_runner().digest([(ints, floats), [np.float64(0.1)]]) == want.hexdigest()


def test_importing_the_runner_leaves_the_environment_alone(monkeypatch):
    # unset, so that pinning the thread pools on import would show
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    load_runner()
    assert dict(os.environ) == before
