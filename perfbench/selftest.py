"""Self-test of the benchmark on a tiny workload (2 objects, 20 steps, 256/128
particles, 2 runs), which takes a few seconds:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced pass leaves no wrapper installed, that the layer self
times sum to no more than the traced wall time, that tracing does not change
the outputs, and that the output checks catch a broken state. Exits 0 when
all pass.
"""

import contextlib
import io
import json
import sys

import run  # pins BLAS threads before numpy is imported

TINY_CONFIG = """\
scenario.object_count = 2
scenario.appear_min = 1
scenario.appear_max = 5
scenario.disappear_after = 20
scenario.total_steps = 20
clutter.mean_count = 5
birth.particles = 256
filter.track_particles = 128
filter.phd_particles = 256
run.mc_runs = 2
run.seed = 99
"""


def main_result(argv: list[str]) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    text = out.getvalue()
    if code != 0:
        raise AssertionError(f"run.main exited {code}:\n{text}")
    return json.loads(text.strip().splitlines()[-1]), text


def check(failures: list[str], ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    config_path = run.RESULTS / "selftest-tiny.cfg"
    config_path.write_text(TINY_CONFIG)
    run.WORKLOADS["tiny"] = run.Workload(config_path, 10.0)
    failures: list[str] = []

    # trace 0 runs one instance of 2 runs; trace 1 runs it untraced and traced
    for trace, key, runs in ((0, "end_to_end", 2), (1, "per_layer", 4)):
        result, text = main_result(["--workload", "tiny", "--seed", "3",
                                    "--seconds", "1", "--trace", str(trace)])
        check(failures, sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"trace {trace}: result has exactly the contract keys")
        check(failures, result["correct"] and result["failed"] == 0
              and result["attempted"] == runs, f"trace {trace}: correct, 0 of {runs} runs failed")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(failures, got == wanted, f"trace {trace}: every {key} metric, with its unit")
        check(failures, all(name in text for name in wanted) and "fail_ratio" in text,
              f"trace {trace}: the table names every metric and fail_ratio")

    from tracing import leftover_wrappers
    import lmbp.cli
    check(failures, not leftover_wrappers() and not hasattr(lmbp.cli.lmbp_step, "__wrapped__"),
          "no wrapper left installed after the traced pass")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layer_self = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    record = json.loads((run.RESULTS / "tiny-seed3-trace1.json").read_text())
    traced_wall = record["samples"]["traced_wall_s"]
    check(failures, 0.0 < layer_self <= traced_wall,
          f"layer self time {layer_self:.4f} s <= traced wall {traced_wall:.4f} s")
    check(failures, 0.5 < metrics["trace.coverage"] <= 1.0,
          f"trace.coverage {metrics['trace.coverage']:.3f} in (0.5, 1]")
    plain, traced = record["instances"]
    check(failures, plain["digests"] == traced["digests"] and plain["digests"],
          "traced and untraced outputs are byte-identical")

    import numpy as np
    from checks import state_problems
    from lmbp import BernoulliTrack, FilterState, Label, ParticleSet, PoissonPhd
    pdf = ParticleSet(np.zeros((4, 4)), np.full(4, 0.25))
    prev = FilterState((), PoissonPhd.empty(), 0)
    state = FilterState((BernoulliTrack(Label(1, 1), 0.5, pdf),), PoissonPhd.empty(), 1)
    check(failures, not state_problems(prev, [(10.0, 0.0)], state),
          "output checks pass a sound state")
    object.__setattr__(state.tracks[0], "existence", 1.5)
    check(failures, any("existence" in p for p in state_problems(prev, [(10.0, 0.0)], state)),
          "output checks catch an existence outside [0, 1]")

    print("selftest: " + ("all checks passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
