"""Replayable microbenchmark of `predict_tracks`, the prediction of a step's
track block: survival, one row reduction per block and one transition.

    python3 microbench/predict_tracks.py --workload dense
    python3 microbench/predict_tracks.py --workload desk --src ../other/src
    python3 microbench/predict_tracks.py --config configs/short_ts2.cfg

`replay.py` captures every `predict_tracks` call that `lmbp.update` makes
in one benchmark instance's steps, checks that a replay, each call from the
generator state captured at that call, returns the same block and times
the replay. Printed: the call, row and particle counts of the blocks, the
median over passes of the time per step (with the quartiles), and a sha256
digest of all predicted blocks.
"""

import sys

import replay


def record(run):
    """The call, row and particle counts and the time per step."""
    blocks = [args[0] for _, args, _ in run.calls]
    fields = {"steps": run.steps, "calls": len(run.calls),
              "rows": sum(len(block.labels) for block in blocks),
              "particles": sum(len(block.weights) for block in blocks),
              **run.timed({"per_step_ms": (run.calls, run.steps)})}
    return fields, [f"{run.workload}: {fields['calls']} calls over {run.steps} steps, "
                    f"{fields['rows']} rows, {fields['particles']} particles, "
                    + replay.summary(fields, "per_step_ms", "step")]


if __name__ == "__main__":
    sys.exit(replay.main(__doc__, "update.predict_tracks", "lmbp.update", "predict_tracks",
                         record))
