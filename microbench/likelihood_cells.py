"""Replayable microbenchmark of `SensorModel.likelihood_cells`, the kernel
behind the intensity side's `new_components`.

    python3 microbench/likelihood_cells.py --workload desk
    python3 microbench/likelihood_cells.py --workload dense --src ../other/src

`replay.py` captures every `likelihood_cells` call of one benchmark
instance's steps, checks that a replay returns the same cells and times
the replay. Printed: the call count, the median over passes of the mean
time per call (with the quartiles), and a sha256 digest of all cells.
"""

import sys

import replay


def record(run):
    """The call and cell counts and the time per call."""
    fields = {"calls": len(run.calls), "cells": int(sum(cells[0].size for cells in run.outputs)),
              **run.timed({"per_call_ms": (run.calls, len(run.calls))})}
    return fields, [f"{run.workload}: {fields['calls']} calls, {fields['cells']} cells, "
                    + replay.summary(fields, "per_call_ms", "call")]


if __name__ == "__main__":
    sys.exit(replay.main(__doc__, "models.likelihood_cells", "lmbp.models:SensorModel",
                         "likelihood_cells", record))
