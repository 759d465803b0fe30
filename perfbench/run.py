"""Benchmark of the biphoton package.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports the package from ``src/`` of the same tree.
Prints a table of every metric, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Reports and spans go to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# One BLAS thread, set before numpy is first imported.  With one thread
# per core, OpenBLAS's idle worker spins and competes with the Python main
# thread: any other busy process then slowed the 256-position sweep up to
# fourfold, so its times swung from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_package():
    """Import biphoton from this tree's src/, and nothing installed."""
    src = ROOT / "src"
    if not (src / "biphoton" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'biphoton'}")
    sys.path.insert(0, str(src))
    import biphoton

    if Path(biphoton.__file__).resolve().parent != (src / "biphoton").resolve():
        raise SystemExit(f"error: imported biphoton from {biphoton.__file__}, not {src}")


def print_table(run: dict, metrics: dict) -> None:
    import harness

    ctx = run["ctx"]
    for key, value in run["machine"].items():
        print(f"machine.{key} = {value}")
    print(f"workload.working_set_bytes (computed) = {ctx.w.working_set_bytes}")
    for key, samples in sorted(ctx.samples.items()):
        s = harness.summarize(samples, key.endswith("per_s"))
        tail = f"p{s['tail_pct']} {s['tail']:.6g}" if "tail" in s else "no tail (n < 11)"
        print(f"{key:28s} median {s['median']:.6g}  {tail}  n={s['n']}")
    print(f"error_rate = {ctx.failed}/{ctx.attempted} = {ctx.failed / ctx.attempted:.4g}")
    for problem in ctx.problems[:10]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    os.chdir(ROOT)
    w = harness.WORKLOADS[args.workload]
    run = harness.run_workload(w, args.seed, args.seconds, bool(args.trace))
    ctx = run["ctx"]
    metrics = harness.layer_metrics(run) if args.trace else harness.end_to_end_metrics(run)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": run["machine"],
        "working_set_bytes_computed": w.working_set_bytes,
        "samples": {
            k: harness.summarize(v, k.endswith("per_s")) for k, v in ctx.samples.items()
        },
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "error_rate": ctx.failed / ctx.attempted,
        "problems": ctx.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(run["tracer"].dump()))

    print_table(run, metrics)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
