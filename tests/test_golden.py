"""Golden trace: a small Monte-Carlo run reproduces committed CSVs byte for byte.

The fixture under `tests/golden/` holds `mospa.csv` and `estimates_r*.csv` of
one scenario. The scenario is chosen so that every association path runs:
transfers inside clusters, transfers of residual measurements, deferred
track evidence evaluated inside a cluster, the enumeration of cyclic
clusters and the BP batch of the rest. The test checks that these paths
ran, so a fixture that stops exercising them fails loudly. The bytes were
produced with numpy 2.4 on x86-64; another numpy or platform may round
differently.

The golden scenario's 5 degree bearing sigma never takes the sensor's
windowed (grid) path, so `test_benchmark_workload_digests` also pins the
output digests of the two benchmark workloads (`perfbench/workloads`, one
instance at `run.seed = 1000`, as `perfbench/run.py --seed 1` runs them).

A deliberate numerical change regenerates both pins in the same change with
one command, `PYTHONPATH=src python tests/test_golden.py`: it rewrites the
fixture and prints `WORKLOAD_DIGESTS` as it should now read, to paste below.
`perfbench/run.py --seed 1 --trace 1` reports the same digests. The change
says why in CHANGES.md.
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

import lmbp.association
import lmbp.update
from lmbp.cli import run_experiment
from lmbp.config import build_run_config, parse_config_text

from helpers import count_joined_rows

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# leading hex digits of the estimates and mospa digests, per workload
WORKLOAD_DIGESTS = {
    "desk": ("890254b653989910", "5f17e082b8655f97"),
    "dense": ("b7a3d0f4a52ef906", "bbea2b985dfc460b"),
}

SCENARIO = {
    "scenario.object_count": "3",
    "scenario.appear_min": "1",
    "scenario.appear_max": "8",
    "scenario.disappear_after": "25",
    "scenario.total_steps": "25",
    "sensor.sigma_range": "5",
    "sensor.sigma_bearing_deg": "5",
    "clutter.mean_count": "12",
    "birth.particles": "256",
    "filter.track_particles": "128",
    "filter.phd_particles": "256",
    "run.mc_runs": "3",
    "run.seed": "2",
}


def run_case(out_dir: Path) -> list[str]:
    config = build_run_config({**SCENARIO, "run.out_dir": str(out_dir)})
    run_experiment(config, quiet=True)
    return ["mospa.csv"] + [f"estimates_r{r:03d}.csv" for r in range(config.mc_runs)]


def count_paths(monkeypatch) -> Counter:
    """Count the association paths `lmbp_step` takes, from the names it and
    its `exact_marginals` call."""
    counts: Counter = Counter()
    residual: set[int] = set()
    partition = lmbp.update.partition
    select_transfers = lmbp.update.select_transfers
    enumerate_admissible = lmbp.association.enumerate_admissible
    batch_bp_marginals = lmbp.association.batch_bp_marginals

    def partition_spy(*args, **kwargs):
        result = partition(*args, **kwargs)
        residual.clear()
        residual.update((result[1] + 1).tolist())  # label indices count from 1
        return result

    def select_transfers_spy(*args, **kwargs):
        result = select_transfers(*args, **kwargs)
        for transfer in result[0].values():
            counts["residual transfers" if transfer.label.index in residual
                   else "cluster transfers"] += 1
        return result

    def enumerate_spy(*args, **kwargs):
        counts["enumerated"] += 1   # one enumerated cluster
        return enumerate_admissible(*args, **kwargs)

    def bp_spy(miss_beta, betas, new_beta, transferred, clusters, *args):
        counts["batched"] += len(clusters)   # the clusters the batch marginalizes
        return batch_bp_marginals(miss_beta, betas, new_beta, transferred, clusters, *args)

    monkeypatch.setattr(lmbp.update, "partition", partition_spy)
    monkeypatch.setattr(lmbp.update, "select_transfers", select_transfers_spy)
    monkeypatch.setattr(lmbp.association, "enumerate_admissible", enumerate_spy)
    monkeypatch.setattr(lmbp.association, "batch_bp_marginals", bp_spy)
    count_joined_rows(monkeypatch, counts)
    return counts


def test_golden_trace(tmp_path, monkeypatch):
    counts = count_paths(monkeypatch)
    names = run_case(tmp_path)
    assert counts["cluster transfers"] > 0 and counts["residual transfers"] > 0
    assert counts["enumerated"] > 0 and counts["batched"] > 0
    assert counts["deferred evaluated"] > 0   # gated pairs that joined a cluster
    for name in names:
        expected = (GOLDEN / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{name} differs"


def workload_digests(workload: str, out_dir: Path) -> tuple[str, str]:
    """Leading hex digits of the estimates and mospa digests of one benchmark
    workload instance at `run.seed = 1000`; `perfbench` must be importable."""
    from checks import output_digests

    values = parse_config_text((PERFBENCH / "workloads" / f"{workload}.cfg").read_text())
    config = build_run_config({**values, "run.seed": "1000", "run.out_dir": str(out_dir)})
    run_experiment(config, quiet=True)
    digests = output_digests(out_dir)
    return digests["estimates"][:16], digests["mospa"][:16]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload_digests(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert workload_digests(workload, tmp_path) == WORKLOAD_DIGESTS[workload]


if __name__ == "__main__":
    written = run_case(GOLDEN)
    for path in GOLDEN.iterdir():
        if path.name not in written:
            path.unlink()
    print(f"wrote {len(written)} files to {GOLDEN}", file=sys.stderr)
    sys.path.insert(0, str(PERFBENCH))
    print("WORKLOAD_DIGESTS = {")
    for workload in WORKLOAD_DIGESTS:
        with tempfile.TemporaryDirectory() as out_dir:
            estimates, mospa = workload_digests(workload, Path(out_dir))
        print(f'    "{workload}": ("{estimates}", "{mospa}"),')
    print("}")
