"""Golden trace: a small Monte-Carlo run reproduces committed CSVs byte for byte.

The fixture under `tests/golden/` holds `mospa.csv` and `estimates_r*.csv` of
one scenario. The scenario is chosen so that every association path runs:
transfers inside clusters, transfers of residual measurements, track
pairs evaluated inside a cluster but below gamma_c, which weigh nothing,
the exact pass over cyclic clusters and the BP batch of the rest. The test
checks that these paths ran, so a fixture that stops exercising them fails
loudly. The bytes were produced with numpy 2.4 on x86-64; another numpy or
platform may round differently.

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

from helpers import light_pairs

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# leading hex digits of the estimates and mospa digests, per workload
WORKLOAD_DIGESTS = {
    "desk": ("996b39ec4a164410", "2c42e393089f7ddf"),
    "dense": ("a725bcfab9aa3fbd", "aa750d0b91df380a"),
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
    track_evidence = lmbp.update.track_evidence
    pass_marginals = lmbp.association._pass_marginals
    batch_bp_marginals = lmbp.association.batch_bp_marginals

    def partition_spy(*args, **kwargs):
        result = partition(*args, **kwargs)
        residual.clear()
        residual.update(result[1].tolist())
        return result

    def select_transfers_spy(*args, **kwargs):
        result = select_transfers(*args, **kwargs)
        for column in result[0].tolist():   # the transferred columns
            counts["residual transfers" if column in residual else "cluster transfers"] += 1
        return result

    def evidence_spy(*args, **kwargs):
        result = track_evidence(*args, **kwargs)
        counts["light pairs"] += light_pairs(result)
        return result

    def pass_spy(*args, **kwargs):
        counts["solved"] += 1   # one cluster solved by the exact pass
        return pass_marginals(*args, **kwargs)

    def bp_spy(miss_beta, betas, new_beta, transferred, clusters):
        counts["batched"] += len(clusters)   # the clusters the batch marginalizes
        return batch_bp_marginals(miss_beta, betas, new_beta, transferred, clusters)

    monkeypatch.setattr(lmbp.update, "partition", partition_spy)
    monkeypatch.setattr(lmbp.update, "select_transfers", select_transfers_spy)
    monkeypatch.setattr(lmbp.association, "_pass_marginals", pass_spy)
    monkeypatch.setattr(lmbp.association, "batch_bp_marginals", bp_spy)
    monkeypatch.setattr(lmbp.update, "track_evidence", evidence_spy)
    return counts


def test_golden_trace(tmp_path, monkeypatch):
    counts = count_paths(monkeypatch)
    names = run_case(tmp_path)
    assert counts["cluster transfers"] > 0 and counts["residual transfers"] > 0
    # the clusters the exact pass solves and those left to the BP batch
    assert counts["solved"] == 43 and counts["batched"] == 404
    assert counts["light pairs"] > 0   # evaluated in-cluster pairs below gamma_c
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
