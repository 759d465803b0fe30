"""Workloads, output checks and the measurement loop of the benchmark.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has finished.  The program sees
only generated config text; the benchmark drives it through public
functions and checks every output it times.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from biphoton import cli, predict
from biphoton.grid import make_grid
from biphoton.retrodict import sweep_conditioning
from biphoton.source import make_biphoton_delta_correlated

import replay

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

DX = 1.0 / 32  # every workload samples at the same spacing
EQUIV_TOL = 1e-8  # retrodictive route against the oracle, pointwise
NORM_TOL = 1e-9  # |sum(density) * dx - 1|
REF_TOL = 1e-9  # signature against the recorded reference, relative
# setup_s is the median of at least SETUP_MIN_REPEATS build_setup calls
# spanning at least SETUP_SECONDS.
SETUP_MIN_REPEATS = 9
SETUP_SECONDS = 3.0
# Workloads without an oracle in their op probe verify_report and the
# oracle after every PROBE_EVERY-th op, so the probes sample the same
# stretch of time as the ops; at least PROBE_MIN probes per run.
PROBE_EVERY = 3
PROBE_MIN = 5

# Both families are fig3-direct ghost imaging with a broad pump (spot
# half-width kappa = 8).  x1 is drawn on grid points close enough to the
# open slits that every conditional is well lit: far from them the
# conditioned state is rounding noise and the two routes stop agreeing.
# "wide" opens [-3, -1] and [1, 3], so the 257 grid points with
# |x1| <= 4 are all lit, enough for 256 distinct sweep positions.
FAMILIES = {
    "narrow": {"mask.width": "0.4", "mask.separation": "2.0"},
    "wide": {"mask.width": "2.0", "mask.separation": "4.0"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    positions: int  # detector.x1 positions per cli.run
    radius: int  # x1 = k * DX with |k| <= radius
    stages: bool
    oracle_n: int  # grid of the timed joint_for_setup
    verify_fast: bool
    oracle_per_op: bool  # joint and verify in every op, else in probes
    runs_per_op: int  # cli.run calls per op, all checked against one joint

    @property
    def extent(self) -> float:
        return self.n * DX

    @property
    def working_set_bytes(self) -> int:
        """Computed: dense n x n complex matrices alive at the peak."""
        mats = 5 if self.oracle_per_op else 1  # source, Psi, bank, conj(bank), A
        return mats * 16 * self.n**2


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is recorded in BENCHMARK.json.
        Workload("image-large-grid", "narrow", 8192, 1, 64, True, 512, True, False, 1),
        Workload("sweep-small-grid", "wide", 512, 256, 128, False, 512, True, False, 1),
        # A 0.06 s cli.run next to a 2 s oracle: four runs per op give the
        # run_s median enough samples.
        Workload("oracle-verify", "narrow", 2048, 1, 64, False, 2048, False, True, 4),
    )
}


def tiny(w: Workload) -> Workload:
    """Small variant of a workload for the self-test."""
    return replace(w, n=512, positions=min(w.positions, 16), oracle_n=512, verify_fast=True)


# ---------------------------------------------------------------------------
# inputs


def draw_offsets(rng: np.random.Generator, w: Workload) -> list[int]:
    cand = np.arange(-w.radius, w.radius + 1)
    return [int(k) for k in rng.choice(cand, size=w.positions, replace=False)]


def config_text(w: Workload, n: int, offsets, out_dir: str) -> str:
    lines = {
        "scenario": "fig3-direct",
        "grid.n": str(n),
        "grid.extent": repr(n * DX),
        "kappa": "8",
        "detector.shape": "gaussian",
        "detector.sigma": "0.1",
        "detector.x1": ", ".join(repr(k * DX) for k in offsets),
        "mask.kind": "double-slit",
        **FAMILIES[w.family],
        "output.path": out_dir,
        "output.stages": "true" if w.stages else "false",
    }
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


# ---------------------------------------------------------------------------
# output checks


def signature(x: np.ndarray, d: np.ndarray, dx: float) -> list[float]:
    """Moments 0..3, sum of squares and peak of a density."""
    return [float(np.sum(x**p * d) * dx) for p in range(4)] + [
        float(np.sum(d * d) * dx),
        float(d.max()),
    ]


def load_reference() -> dict:
    raw = json.loads(REFERENCE_FILE.read_text())
    return {
        fam: dict(zip(entry["offsets"], entry["signatures"]))
        for fam, entry in raw["families"].items()
    }


def read_density(path: Path, grid) -> np.ndarray:
    header, _, body = path.read_text().partition("\n")
    if header != "x2,probability_density":
        raise ValueError(f"{path.name}: unexpected header {header!r}")
    vals = np.array(body.replace(",", " ").split(), dtype=np.float64).reshape(-1, 2)
    if vals.shape[0] != grid.n or not np.array_equal(vals[:, 0], grid.x):
        raise ValueError(f"{path.name}: x2 column does not match the grid")
    return vals[:, 1]


def oracle_gap(d: np.ndarray, row: np.ndarray) -> float:
    """Pointwise gap to an oracle row computed on a centred window of the
    same spacing; outside that window the density must vanish."""
    c = (len(d) - len(row)) // 2
    gap = float(np.max(np.abs(d[c : c + len(row)] - row)))
    if c:
        gap = max(gap, float(np.max(np.abs(d[:c]))), float(np.max(np.abs(d[c + len(row) :]))))
    return gap


def density_problems(d, grid, oracle_row, ref) -> list[str]:
    if not np.all(np.isfinite(d)):
        return ["density is not finite"]
    if np.any(d < 0):
        return ["density is negative"]
    out = []
    mass = float(d.sum()) * grid.dx
    if abs(mass - 1.0) > NORM_TOL:
        out.append(f"density integrates to {mass!r}")
    gap = oracle_gap(d, oracle_row)
    if not gap <= EQUIV_TOL:
        out.append(f"retrodictive and oracle densities differ by {gap:.3e}")
    if ref is not None:
        sig = signature(grid.x, d, grid.dx)
        if any(abs(a - b) > REF_TOL * max(1.0, abs(b)) for a, b in zip(sig, ref)):
            out.append(f"signature {sig} differs from the reference {ref}")
    return out


def stages_problems(path: Path, d: np.ndarray, grid) -> list[str]:
    payload = json.loads(path.read_text())
    names = [s["name"] for s in payload["stages"]]
    if len(payload["x"]) != grid.n or names[0] != "alpha" or names[-1] != "beta_2":
        return [f"{path.name}: unexpected layout {names}"]
    p = np.asarray(payload["stages"][-1]["magnitude"]) ** 2
    p /= p.sum() * grid.dx
    if np.max(np.abs(p - d)) > NORM_TOL * np.max(d):
        return [f"{path.name}: beta_2 does not match the density"]
    return []


class Context:
    """Per-run state: workload, inputs, references and timing samples."""

    def __init__(self, w: Workload, seed: int, work: Path, corrupt: bool):
        self.w = w
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.corrupt = corrupt
        self.refs = load_reference().get(w.family, {})
        self.grid = make_grid(w.n, w.extent)
        self.samples: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.oracle = None  # joint table that checks every op, unless per op
        self.probe_setup = None

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def next_text(self) -> tuple[str, list[int]]:
        offsets = draw_offsets(self.rng, self.w)
        # Delete the previous op's files and flush them, outside the timing:
        # creating files while the deletions are still pending in the file
        # system's journal costs several times more, and by a drifting amount.
        out = self.work / "out"
        out.mkdir(exist_ok=True)
        for f in out.iterdir():
            f.unlink()
        os.sync()
        return config_text(self.w, self.w.n, offsets, os.path.relpath(out)), offsets

    def outputs_problems(self, written, offsets, joint) -> list[str]:
        if self.corrupt:
            self.corrupt = False
            corrupt_csv(written[0])
        csvs = [p for p in written if p.suffix == ".csv"]
        if len(csvs) != len(offsets):
            return [f"{len(csvs)} CSV files for {len(offsets)} positions"]
        out = []
        for path, k in zip(csvs, offsets):
            d = read_density(path, self.grid)
            row = predict.conditional_from_joint(joint, k * DX).density
            out += density_problems(d, self.grid, row, self.refs.get(k))
            if self.w.stages:
                out += stages_problems(path.with_name("stages.json"), d, self.grid)
        return out

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def corrupt_csv(path: Path) -> None:
    """Scale the peak of a written density by 1.5 (self-test only)."""
    header, _, body = path.read_text().partition("\n")
    rows = body.splitlines()
    vals = [float(r.split(",")[1]) for r in rows]
    i = int(np.argmax(vals))
    x, _ = rows[i].split(",")
    rows[i] = f"{x},{vals[i] * 1.5!r}"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def failed_checks(checks) -> list[str]:
    return [f"verify check failed: {c.name} = {c.value:.3e}" for c in checks if not c.passed]


def guarded(ctx: Context, fn, *args) -> None:
    """Run one op or probe; any exception counts as a failed op."""
    try:
        problems = fn(ctx, *args)
    except Exception:  # noqa: BLE001 - the loop must go on and report it
        problems = ["exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    ctx.record(problems)


# ---------------------------------------------------------------------------
# operations, tracing off


def plain_op(ctx: Context) -> list[str]:
    problems = []
    joint = ctx.oracle
    for _ in range(ctx.w.runs_per_op):
        text, offsets = ctx.next_text()
        t0 = time.perf_counter()
        cfg = cli.parse_config(text)
        written = cli.run(cfg)
        t = time.perf_counter() - t0
        ctx.add("run_s", t)
        ctx.add("sweep_positions_per_s", len(offsets) / t)
        if joint is None:  # the oracle runs in the op, on its first setup
            setup = cli.build_setup(cfg)
            t0 = time.perf_counter()
            joint = predict.joint_for_setup(setup)
            ctx.add("oracle_joint_s", time.perf_counter() - t0)
            del setup
        problems += ctx.outputs_problems(written, offsets, joint)
    if ctx.w.oracle_per_op:
        t0 = time.perf_counter()
        checks = cli.verify_report(fast=ctx.w.verify_fast)
        ctx.add("verify_s", time.perf_counter() - t0)
        problems += failed_checks(checks)
    return problems


def plain_probe(ctx: Context) -> list[str]:
    t0 = time.perf_counter()
    checks = cli.verify_report(fast=ctx.w.verify_fast)
    ctx.add("verify_s", time.perf_counter() - t0)
    t0 = time.perf_counter()
    joint = predict.joint_for_setup(ctx.probe_setup)
    ctx.add("oracle_joint_s", time.perf_counter() - t0)
    problems = failed_checks(checks)
    if not replay.same_bytes(joint.density, ctx.oracle.density):
        problems.append("repeated joint_for_setup differs from the first")
    return problems


# ---------------------------------------------------------------------------
# operations, tracing on


def traced_op(ctx: Context, tr: replay.Tracer) -> list[str]:
    tr.begin_unit("op")
    text, offsets = ctx.next_text()
    with tr.span("cli.parse_config"):
        cfg = cli.parse_config(text)
    with tr.span("call.cli.run"):
        written = cli.run(cfg)
    tr.count("cli.bytes_written", sum(p.stat().st_size for p in written))
    tr.count("source.bytes_materialized", 16 * ctx.w.n**2)
    with tr.span("cli.build_setup"):
        setup = cli.build_setup(cfg)
    # One position or many, the op's conditionals are the sweep over its
    # x1 list; cli.run makes the same per-position pipeline calls.
    with tr.span("call.retrodict.sweep_conditioning"):
        lib = sweep_conditioning(setup, cfg.detector_x1)
    rep = replay.sweep_conditioning(setup, cfg.detector_x1, tr)
    problems = []
    if not all(replay.same_result(a, b) for a, b in zip(lib, rep)):
        problems.append("pipeline replay differs from the library")
    csvs = [p for p in written if p.suffix == ".csv"]
    if not all(
        replay.same_bytes(read_density(p, setup.grid), r.distribution.density)
        for p, r in zip(csvs, lib)
    ):
        problems.append("written CSV differs from the library density")

    joint = ctx.oracle
    if ctx.w.oracle_per_op:
        with tr.span("call.predict.joint_for_setup"):
            joint = predict.joint_for_setup(setup)
        if not replay.same_bytes(replay.joint_for_setup(setup, tr).density, joint.density):
            problems.append("joint replay differs from the library")
    problems += ctx.outputs_problems(written, offsets, joint)

    # Rebuild the source on its own after freeing the setup's copy, so the
    # large grid never holds two dense sources at once.
    grid, diag = setup.grid, np.diagonal(setup.source.values).copy()
    nonzero = np.count_nonzero(setup.source.values)
    del setup, lib, rep
    with tr.span("source.make_biphoton"):
        src = make_biphoton_delta_correlated(grid, 1.0 / cfg.kappa)
    if not (
        replay.same_bytes(np.diagonal(src.values).copy(), diag)
        and np.count_nonzero(src.values) == nonzero == np.count_nonzero(diag)
    ):
        problems.append("rebuilt source differs from the setup's")
    del src
    if ctx.w.oracle_per_op:
        problems += traced_verify(ctx, tr)
    return problems


def traced_verify(ctx: Context, tr: replay.Tracer) -> list[str]:
    with tr.span("call.cli.verify_report"):
        checks = cli.verify_report(fast=ctx.w.verify_fast)
    instances = 30 if ctx.w.verify_fast else 100
    worst = replay.finite_dim_equivalence(instances, tr)
    (lib,) = [c for c in checks if c.name.startswith("finite-dim-equivalence")]
    problems = failed_checks(checks)
    if worst != lib.value:
        problems.append("finite-dimensional replay differs from verify")
    return problems


def traced_probe(ctx: Context, tr: replay.Tracer) -> list[str]:
    tr.begin_unit("probe")
    problems = traced_verify(ctx, tr)
    with tr.span("call.predict.joint_for_setup"):
        joint = predict.joint_for_setup(ctx.probe_setup)
    if not replay.same_bytes(replay.joint_for_setup(ctx.probe_setup, tr).density, joint.density):
        problems.append("joint replay differs from the library")
    return problems


# ---------------------------------------------------------------------------
# the run


def summarize(samples: list[float], higher_is_better: bool = False) -> dict:
    """Median plus the highest percentile with at least ten samples
    beyond it on the bad side (nearest rank), and the sample count."""
    s = sorted(samples, reverse=higher_is_better)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n >= 11:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail"] = s[n - 11]
    return out


def blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = int(ctypes.CDLL(None).sysconf(194))  # _SC_LEVEL3_CACHE_SIZE (glibc)
    except (OSError, AttributeError):
        l3 = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "l3_bytes": l3,
    }


def prepare(ctx: Context, timed_setup: bool) -> None:
    """Build the oracle table that checks the ops when the oracle does
    not run inside every op, warm up with one checked op, then time
    build_setup."""
    w = ctx.w
    if not w.oracle_per_op:
        probe_cfg = cli.parse_config(config_text(w, w.oracle_n, [0], "unused"))
        ctx.probe_setup = cli.build_setup(probe_cfg)
        ctx.oracle = predict.joint_for_setup(ctx.probe_setup)
    guarded(ctx, plain_op)
    ctx.samples.clear()
    text, _ = ctx.next_text()
    cfg = cli.parse_config(text)
    start = time.perf_counter()
    while timed_setup and (
        len(ctx.samples.get("setup_s", ())) < SETUP_MIN_REPEATS
        or time.perf_counter() - start < SETUP_SECONDS
    ):
        t0 = time.perf_counter()
        setup = cli.build_setup(cfg)
        ctx.add("setup_s", time.perf_counter() - t0)
        del setup


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, corrupt: bool = False
) -> dict:
    work = HERE / "work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(w, seed, work, corrupt)
    tr = replay.Tracer()
    try:
        prepare(ctx, timed_setup=not trace)
        probe = (traced_probe, tr) if trace else (plain_probe,)
        ops = probes = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not ops:
            t0 = time.perf_counter()
            guarded(ctx, plain_op)
            ctx.add("op_wall_s", time.perf_counter() - t0)
            if trace:
                t0 = time.perf_counter()
                guarded(ctx, traced_op, tr)
                ctx.add("traced_op_wall_s", time.perf_counter() - t0)
            ops += 1
            if not w.oracle_per_op and ops % PROBE_EVERY == 0:
                guarded(ctx, *probe)
                probes += 1
        while not w.oracle_per_op and probes < PROBE_MIN:
            guarded(ctx, *probe)
            probes += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ctx": ctx,
        "tracer": tr,
        "peak_rss_mib": peak_rss_mib,
        "machine": machine_record(),
    }


def end_to_end_metrics(run: dict) -> dict:
    ctx = run["ctx"]
    med = {k: statistics.median(v) for k, v in ctx.samples.items()}
    return {
        "setup_s": (med["setup_s"], "s"),
        "run_s": (med["run_s"], "s"),
        "sweep_positions_per_s": (med["sweep_positions_per_s"], "1/s"),
        "oracle_joint_s": (med["oracle_joint_s"], "s"),
        "verify_s": (med["verify_s"], "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "success_rate": (1.0 - ctx.failed / ctx.attempted, "fraction"),
    }


# (metric, unit).  A time metric sums the spans named as the metric
# without "_s" within an op or probe; a count sums the counts of its name.
# The median is taken over the ops and probes that contain them.
LAYER_METRICS = [
    ("source.make_biphoton_s", "s"),
    ("source.condition_s", "s"),
    ("source.bytes_materialized", "B"),
    ("elements.materialize_detector_s", "s"),
    ("elements.arm1_backward_s", "s"),
    ("elements.arm2_forward_s", "s"),
    ("elements.op.spectral_phase_s", "s"),
    ("elements.op.mask_s", "s"),
    ("elements.ops_applied", "count"),
    ("elements.fft_count", "count"),
    ("grid.edge_energy_fraction_s", "s"),
    ("retrodict.run_retrodictive_s", "s"),
    ("retrodict.sweep_conditioning_s", "s"),
    ("retrodict.self_s", "s"),
    ("cli.parse_config_s", "s"),
    ("cli.build_setup_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.bytes_written", "B"),
    ("predict.evolve_joint_s", "s"),
    ("predict.bank_s", "s"),
    ("predict.matmul_s", "s"),
    ("predict.matmul_flops", "flop"),
    ("predict.matmul_bytes", "B"),
    ("hilbert.equivalence_s", "s"),
]


def layer_metrics(run: dict) -> dict:
    ctx, tr = run["ctx"], run["tracer"]
    units = tr.unit_totals()
    for u in units:
        retro = [k for k in u if k.startswith("retrodict.") and k.endswith(".self")]
        if retro:
            u["retrodict.self"] = sum(u[k] for k in retro)
        if "call.cli.run" in u:
            u["cli.emit"] = (
                u["call.cli.run"] - u["cli.build_setup"] - u["call.retrodict.sweep_conditioning"]
            )
    out = {}
    for name, unit in LAYER_METRICS:
        key = name.removesuffix("_s") if unit == "s" else name
        vals = [u[key] for u in units if key in u]
        out[name] = (statistics.median(vals) if vals else 0.0, unit)
    plain = statistics.median(ctx.samples["op_wall_s"])
    traced = statistics.median(ctx.samples["traced_op_wall_s"])
    out["trace.overhead_s"] = (traced - plain, "s")
    out["trace.overhead_frac"] = ((traced - plain) / plain, "fraction")
    return out
