"""Runs the benchmark's self-test (`python3 perfbench/selftest.py`, a few
seconds) as part of the suite. The traced pass wraps names in `lmbp.update`
and `lmbp.cli` and reads hypothesis and transfer results, so a change that
breaks those names fails here. `test_tracer_pins_resolve` checks the same
names in process, in well under a second, and names the one that is gone."""

import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

import lmbp.update

from helpers import cells_of, partition_of

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
    # the cluster counter reads `partition`'s result: clusters of 2 and 1 rows
    betas = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    result = partition_of(betas, 0.5)
    tracer._count_clusters((betas, 0.5), {}, result, "association.partition")
    assert tracer.counts["association.clusters"] == 2
    assert tracer.counts["association.cluster_labels_max"] == 2
    # the transfer counter reads `select_transfers`' result: 2 of 3 rows transfer
    table = np.array([[0.5, 0.0], [0.0, 1e-3], [0.2, 0.3]])
    counted = tracer._count_wrapper(lmbp.update.select_transfers, "select_transfers")
    columns, transferred, fresh = counted(np.ones(3), table.sum(axis=1), cells_of(table),
                                          np.zeros((2, 4)), 1e-2, 5)
    assert tracer.counts["update.transfers"] == transferred.sum() == len(columns) == 2
    assert len(fresh.labels) == 2
    # the recycle counter reads `split_by_retention`'s result: of four legacy
    # rows, one below gamma_leg and one dead (r = 0) are recycled
    counted = tracer._count_wrapper(lmbp.update.split_by_retention, "split_by_retention")
    kept, recycled = counted(np.array([0.5, 0.005, 0.0, 0.01]), np.array([3, 2, 1, 0]), 1e-2)
    assert tracer.counts["update.recycles"] == len(recycled) == 2
    assert recycled.tolist() == [2, 1] and kept.tolist() == [3, 0]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
