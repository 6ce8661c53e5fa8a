"""Replayable microbenchmark of `resample_rows`, the systematic resampling
of a step's tracks and of its intensity.

    python3 microbench/resample_rows.py --workload dense
    python3 microbench/resample_rows.py --workload desk --src ../other/src

`replay.py` captures every `resample_rows` call that `lmbp.update` makes in
one benchmark instance's steps, checks that a replay, each call from the
generator state captured at that call, returns the same indices and
weights, and times the replay. A call from `update_phd` is the intensity
pass; any other is the track pass. Printed: the steps, the calls and rows
of each pass, the median over passes of each pass's time per step (with the
quartiles), and a sha256 digest of all indices and weights.
"""

import sys

import replay


def record(run):
    """Per pass: the call and row counts and the time per step."""
    by_kind = {"track": [call for call in run.calls if call[0] != "update_phd"],
               "phd": [call for call in run.calls if call[0] == "update_phd"]}
    fields = {"steps": run.steps}
    for kind, calls in by_kind.items():
        fields.update({f"{kind}_calls": len(calls),
                       f"{kind}_rows": sum(len(args[0]) for _, args, _ in calls)})
    fields.update(run.timed({f"{kind}_per_step_ms": (calls, run.steps)
                             for kind, calls in by_kind.items()}))
    return fields, [f"{run.workload} {kind} pass: {fields[f'{kind}_calls']} calls, "
                    f"{fields[f'{kind}_rows']} rows over {run.steps} steps, "
                    + replay.summary(fields, f"{kind}_per_step_ms", "step") for kind in by_kind]


if __name__ == "__main__":
    sys.exit(replay.main(__doc__, "rfs.resample_rows", "lmbp.update", "resample_rows", record))
