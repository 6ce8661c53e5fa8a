"""Set-up probe: one process start up to a built `RunConfig`.

`run.py` reads the monotonic clock just before it starts this script and
subtracts that from the clock reading printed here, once numpy, scipy and
`lmbp` are imported and the workload's configuration is built. The thread
pinning of BLAS and OpenMP comes from the environment `run.py` passes on.

    python3 perfbench/setup_probe.py perfbench/workloads/desk.cfg
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lmbp  # noqa: E402  (imports numpy and scipy)
import lmbp.cli  # noqa: E402,F401

lmbp.load_run_config(sys.argv[1])
print(repr(time.perf_counter()))
