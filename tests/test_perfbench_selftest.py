"""Runs the benchmark's self-test (`python3 perfbench/selftest.py`, a few
seconds) as part of the suite. The traced pass wraps names in `lmbp.update`
and `lmbp.cli` and reads hypothesis and transfer results, so a change that
breaks those names fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
