"""Replayable microbenchmark of `track_evidence`, the miss and detection
evidence of a step's track block against its frame: the block's ranges,
bearings and pD, its row bounds, and the likelihood runs of the pairs the
bound does not put below gamma_c.

    python3 microbench/track_evidence.py --workload dense
    python3 microbench/track_evidence.py --workload desk --src ../other/src
    python3 microbench/track_evidence.py --config configs/short_ts2.cfg

`replay.py` captures every `track_evidence` call that `lmbp.update` makes
in one benchmark instance's steps, checks that a replay returns the same
evidence and times the replay. Printed: the call and row counts, the track
x measurement pairs evaluated (each a likelihood run over its row's
particles) and the plausible ones (r b >= gamma_c and r b > 0), the median
over passes of the time per step (with the quartiles), and a sha256 digest
of all evidence.
"""

import sys

import numpy as np

import replay


def record(run):
    """The call, row and pair counts and the time per step."""
    outputs = [(args[3], evidence) for _, args, evidence in run.calls]
    fields = {"steps": run.steps, "calls": len(run.calls),
              "rows": sum(len(evidence.miss_beta) for _, evidence in outputs),
              "pairs_evaluated": sum(len(evidence.group.b) for _, evidence in outputs),
              "pairs_plausible": sum(int(np.count_nonzero((evidence.betas >= gamma_c)
                                                          & (evidence.betas > 0.0)))
                                     for gamma_c, evidence in outputs),
              **run.timed({"per_step_ms": (run.calls, run.steps)})}
    return fields, [f"{run.workload}: {fields['calls']} calls over {run.steps} steps, "
                    f"{fields['rows']} rows, {fields['pairs_evaluated']} pairs evaluated, "
                    f"{fields['pairs_plausible']} plausible, "
                    + replay.summary(fields, "per_step_ms", "step")]


if __name__ == "__main__":
    sys.exit(replay.main(__doc__, "update.track_evidence", "lmbp.update", "track_evidence",
                         record))
