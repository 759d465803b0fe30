"""Self-test of the benchmark, on tiny grids.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs a tiny variant with tracing off and on and
checks that exactly the metrics named in BENCHMARK.json are emitted,
each with its unit and a positive value, and that no op failed.  It then
corrupts one written density and checks that the op is counted as
failed.
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets the BLAS thread count and the import path

run.import_package()
os.chdir(run.ROOT)

import harness  # noqa: E402


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS),
        "BENCHMARK.json workloads differ from the harness",
    )
    for w in harness.WORKLOADS.values():
        t = harness.tiny(w)
        for trace, key, metrics_of in (
            (False, "end_to_end", harness.end_to_end_metrics),
            (True, "per_layer", harness.layer_metrics),
        ):
            result = harness.run_workload(t, seed=0, seconds=0.2, trace=trace)
            ctx = result["ctx"]
            check(ctx.failed == 0, f"{w.name} trace={trace}: {ctx.problems[:3]}")
            metrics = metrics_of(result)
            got = {name: unit for name, (_, unit) in metrics.items()}
            want = {m["name"]: m["unit"] for m in bench[key]}
            check(got == want, f"{w.name} trace={trace}: metrics {got} != {want}")
            unmeasured = [name for name, (value, _) in metrics.items() if not value > 0]
            check(not unmeasured, f"{w.name} trace={trace}: no measurement for {unmeasured}")
        result = harness.run_workload(t, seed=0, seconds=0.2, trace=False, corrupt=True)
        ctx = result["ctx"]
        check(ctx.failed == 1, f"{w.name}: corrupted density counted {ctx.failed} failures")
        print(f"{w.name}: ok ({ctx.problems[0]})", file=sys.stderr)
    print("selftest passed")


if __name__ == "__main__":
    main()
