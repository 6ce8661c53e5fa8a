"""Runs the benchmark's self-test (`python3 perfbench/selftest.py`, a few
seconds) as part of the suite. The traced pass wraps names in `lmbp.update`
and `lmbp.cli` and reads hypothesis and transfer results, so a change that
breaks those names fails here. `test_tracer_pins_resolve` checks the same
names in process, in well under a second, and names the one that is gone."""

import inspect
import subprocess
import sys
from pathlib import Path

import lmbp.update

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_pins_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    targets = [(owner, attr) for owner, attr, _ in tracing.SPANS] + list(tracing.COUNTED)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert not missing, f"names the tracer wraps are gone: {missing}"
    bound = inspect.signature(lmbp.update.update_legacy_track).parameters
    assert {"marginal", "detections"} <= set(bound)
    tracer = tracing.Tracer(gamma_c=1e-10)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
