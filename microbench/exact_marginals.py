"""Replayable microbenchmark of `exact_marginals`, the step's one marginal
call: the exact pass over the cyclic clusters within its cost limit and
loopy BP of the rest.

    python3 microbench/exact_marginals.py --workload dense
    python3 microbench/exact_marginals.py --workload desk --src ../other/src
    python3 microbench/exact_marginals.py --config configs/short_ts2.cfg

`replay.py` captures every `exact_marginals` call that `lmbp.update` makes
in one benchmark instance's steps, checks that a replay returns the same
marginals and times the replay. Printed: the call and cluster counts, the
median over passes of the mean time per call (with the quartiles), and a
sha256 digest of all marginals and claims.
"""

import sys

import replay


def record(run):
    """The call and cluster counts and the time per call."""
    fields = {"calls": len(run.calls), "clusters": sum(len(args[4]) for _, args, _ in run.calls),
              **run.timed({"per_call_ms": (run.calls, len(run.calls))})}
    return fields, [f"{run.workload}: {fields['calls']} calls, {fields['clusters']} clusters, "
                    + replay.summary(fields, "per_call_ms", "call")]


if __name__ == "__main__":
    sys.exit(replay.main(__doc__, "association.exact_marginals", "lmbp.update",
                         "exact_marginals", record))
