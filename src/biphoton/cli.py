"""Scenario configuration, execution, and verification command line.

Commands: ``run --config FILE [--out DIR]``, ``verify [--fast]``,
``scenarios``.  Config files are flat ``key = value`` text, one setting
per line, ``#`` comments allowed; ``biphoton run --help`` lists every key
with its default.  Exit codes: 0 success, 1 validation error, 2 dark
conditional (in a sweep: every failed position is dark), 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import hilbert, predict
from .elements import DETECTOR_SHAPES, DetectorProfile, FourierLens, Mask, Propagate
from .errors import BiphotonError, ConfigError, DarkConditionalError, SweepError
from .grid import Field, make_grid
from .retrodict import ImagingSetup, run_retrodictive, sweep_conditioning
from .source import make_biphoton_delta_correlated

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "build_setup",
    "run",
    "verify_report",
    "scenario_descriptions",
    "main",
]


def _mask_table(cfg: ScenarioConfig, g) -> list[complex]:
    rows = []
    try:
        text = Path(cfg.mask_file).read_text()
    except OSError as exc:
        raise ConfigError(f"mask.file: cannot read {cfg.mask_file!r}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        try:  # re[,im]: any other column count fails to unpack
            re_part, im_part = map(float, parts + ["0"] * (2 - len(parts)))
        except ValueError:
            raise ConfigError(
                f"mask.file: bad row {line!r} at line {lineno} of {cfg.mask_file!r}"
            ) from None
        if not (np.isfinite(re_part) and np.isfinite(im_part)):
            raise ConfigError(
                f"mask.file: non-finite value {line!r} at line {lineno} "
                f"of {cfg.mask_file!r}"
            )
        rows.append(complex(re_part, im_part))
    if len(rows) != g.n:
        raise ConfigError(f"mask.file: table has {len(rows)} rows; grid.n needs {g.n}")
    if max(map(abs, rows)) > 1 + 1e-12:
        raise ConfigError("mask.file: table values must satisfy |t| <= 1")
    return rows


# mask.kind -> t(x) of (cfg, grid); "none" puts no mask in arm 1
MASK_KINDS = {
    "none": None,
    "slit": lambda cfg, g: np.abs(g.x) < cfg.mask_width / 2,
    # open within mask.width / 2 of the nearer slit centre
    "double-slit": lambda cfg, g: (
        np.abs(np.abs(g.x) - cfg.mask_separation / 2) < cfg.mask_width / 2
    ),
    "gaussian-aperture": lambda cfg, g: np.exp(-(g.x**2) / (2 * cfg.mask_sigma**2)),
    "table": _mask_table,
}


def _mask_values(cfg: ScenarioConfig, g) -> np.ndarray | None:
    t = MASK_KINDS[cfg.mask_kind]
    return None if t is None else np.asarray(t(cfg, g), dtype=np.complex128)


# arms(cfg, mask) -> (arm 1 in backward order; arm 2), the 0- or 1-tuple mask
# in its place; extent(n) -> default grid.extent; about -> `scenarios` lines
_Scenario = namedtuple("_Scenario", "arms extent about")
SCENARIOS = {
    # Backward traversal: focal propagation + lens, then the mask at the
    # crystal.  The crystal plane is read out directly in arm 2.
    "fig3-direct": _Scenario(
        lambda c, m: ((Propagate(c.f, c.k_z), FourierLens(), *m), ()),
        lambda n: 16.0,
        (
            "focal-plane detector arm backed off through a lens;",
            "mask at the crystal; crystal-plane readout in arm 2.",
            "Point detector + broad pump -> image |t(x)|^2.",
        ),
    ),
    # Far-field detector, then the mask at the crystal; arm 2 maps wavevector
    # content to position, at unit scale on the self-conjugate default window.
    "fourier-2f": _Scenario(
        lambda c, m: ((FourierLens(), *m), (FourierLens(),)),
        lambda n: float(np.sqrt(2 * np.pi * n)),  # self-conjugate: dk == dx
        (
            "far-field detector arm; arm 2 maps wavevector",
            "content to position at unit scale (self-conjugate",
            "window). Point detector -> |FT t|^2.",
        ),
    ),
    "custom": _Scenario(
        lambda c, m: (m, ()),
        lambda n: 16.0,
        ("bare conditioning testbed: optional mask in arm 1,", "no other optics."),
    ),
}


# Value parsers: raw text -> value, or ValueError naming what was expected
# (ScenarioConfig prefixes the key; parse_config the line).


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not np.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _parse_positive(raw: str) -> float:
    v = _parse_float(raw)
    if v <= 0:
        raise ValueError(f"value must be positive, got {v:g}")
    return v


def _parse_n(raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"must be a power of two >= 8, got {n}")
    return n


def _parse_positions(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if parts == [""]:
        raise ValueError("expected at least one position")
    if "" in parts:
        raise ValueError(f"empty position in {raw!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_text(raw: str) -> str:
    # as parse_config reads a line back: no comment, line break or edge space
    if raw != raw.split("#", 1)[0].strip() or len(raw.splitlines()) > 1:
        raise ValueError(f"cannot be written on one config line: {raw!r}")
    return raw


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")
        return raw

    parse.choices = options
    return parse


def _key(key: str, parse, default):
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; each field is one config key, in serialization order.

    Every value passes its key's parser, however the config is built, and
    is stored as parsed: ``k_z=100`` holds ``100.0``, ``detector_x1=[0.5]``
    holds ``(0.5,)``.  ``extent = None`` resolves to the scenario's window;
    ``None`` for any other key is rejected.
    """

    scenario: str = _key("scenario", _choice(*SCENARIOS), "fig3-direct")
    n: int = _key("grid.n", _parse_n, 512)
    extent: float | None = _key("grid.extent", _parse_positive, None)
    k_z: float = _key("k_z", _parse_positive, 50.0)
    f: float = _key("f", _parse_positive, 2.0)
    kappa: float = _key("kappa", _parse_positive, 4.0)
    detector_shape: str = _key("detector.shape", _choice(*DETECTOR_SHAPES), "gaussian")
    detector_sigma: float = _key("detector.sigma", _parse_positive, 0.1)
    detector_width: float = _key("detector.width", _parse_positive, 1.0)
    detector_x1: tuple = _key("detector.x1", _parse_positions, (0.0,))
    mask_kind: str = _key("mask.kind", _choice(*MASK_KINDS), "none")
    mask_width: float = _key("mask.width", _parse_positive, 0.4)
    mask_separation: float = _key("mask.separation", _parse_positive, 2.0)
    mask_sigma: float = _key("mask.sigma", _parse_positive, 1.0)
    mask_file: str = _key("mask.file", _parse_text, "")
    output_path: str = _key("output.path", _parse_text, ".")
    output_stages: bool = _key("output.stages", _parse_bool, False)

    def __post_init__(self):
        for fld in fields(self):
            key, parse = fld.metadata["key"], fld.metadata["parse"]
            v = getattr(self, fld.name)
            if fld.name == "extent" and v is None:
                v = SCENARIOS[self.scenario].extent(self.n)  # both parsed by now
            try:
                if v is None:  # would otherwise pass as the text 'None'
                    raise ValueError("expected a value, got None")
                object.__setattr__(self, fld.name, parse(_format_value(v)))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}", key=key) from None
        if self.mask_kind == "table" and not self.mask_file:
            raise ConfigError("mask.kind = table requires mask.file", key="mask.kind")


# config key -> (ScenarioConfig attribute, parser), in serialization order
_SCHEMA = {
    f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(ScenarioConfig)
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat key = value text into a validated configuration."""
    values, first_line = {}, {}  # ScenarioConfig attribute -> raw text; key -> line
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{key} is already set at line {first_line[key]}", lineno)
        values[_SCHEMA[key][0]] = raw.strip()
    try:
        return ScenarioConfig(**values)
    except ConfigError as exc:  # name the line that set the offending key
        raise ConfigError(str(exc), first_line.get(exc.key), exc.key) from None


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ", ".join(_format_value(p) for p in v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit a config as text that parses back to an equal configuration."""
    return "".join(
        f"{key} = {_format_value(getattr(cfg, attr))}".rstrip() + "\n"
        for key, (attr, _) in _SCHEMA.items()
    )


def _config_help() -> str:
    """Every config key with its default (and choices), for ``run --help``."""
    defaults = ScenarioConfig()
    lines = ["config keys (key = default):"]
    for key, (attr, parse) in _SCHEMA.items():
        line = f"  {key} = {_format_value(getattr(defaults, attr))}"
        if hasattr(parse, "choices"):
            line = f"{line:<34}# {' | '.join(parse.choices)}"
        lines.append(line.rstrip())
    lines.append("grid.extent defaults to sqrt(2*pi*grid.n) for scenario = fourier-2f.")
    return "\n".join(lines)


def build_setup(cfg: ScenarioConfig) -> ImagingSetup:
    """Materialize a configuration into a runnable imaging setup."""
    g = make_grid(cfg.n, cfg.extent)
    tvals = _mask_values(cfg, g)
    mask = () if tvals is None else (Mask(Field(g, tvals)),)
    arm1, arm2 = SCENARIOS[cfg.scenario].arms(cfg, mask)

    # the config's kappa is the pump spot width, the library's 1/kappa; its
    # bounds are checked here so that the errors name the key the user set
    if cfg.kappa < 2 * g.dx - 1e-12:
        raise ConfigError(
            f"pump spot width kappa = {cfg.kappa:g} unresolvable: minimum is "
            f"2*dx = {2 * g.dx:g}; raise kappa, or raise grid.n at fixed "
            f"grid.extent"
        )
    if cfg.kappa > g.extent / 2 + 1e-12:
        raise ConfigError(
            f"pump spot width kappa = {cfg.kappa:g} exceeds the window: maximum "
            f"is extent/2 = {g.extent / 2:g}; lower kappa, or raise grid.extent"
        )
    source = make_biphoton_delta_correlated(g, kappa=1.0 / cfg.kappa)
    det = DetectorProfile(
        cfg.detector_shape,
        center=cfg.detector_x1[0],
        sigma=cfg.detector_sigma,
        width=cfg.detector_width,
    )
    return ImagingSetup(grid=g, arm1=arm1, arm2=arm2, source=source, detector1=det)


def _write_csv(path: Path, x_text: list[str], density: np.ndarray) -> None:
    """One full-precision ``x2,density`` row per sample; ``x_text`` holds
    the x column already formatted, once per run."""
    rows = "".join([f"{x},{d!r}\n" for x, d in zip(x_text, density.tolist())])
    with path.open("w", newline="") as fh:
        fh.write("x2,probability_density\n" + rows)


def _stage_entry(name: str, f: Field) -> dict:
    return {
        "name": name,
        "magnitude": np.abs(f.values).tolist(),
        "phase": np.angle(f.values).tolist(),
    }


def _write_stages(path: Path, result) -> None:
    stages = [_stage_entry("alpha", result.alpha)]
    for i, f in enumerate(result.arm1_stages, start=1):
        stages.append(_stage_entry(f"alpha_{i}", f))
    stages.append(_stage_entry("beta_1", result.beta1))
    for i, f in enumerate(result.arm2_stages, start=1):
        stages.append(_stage_entry(f"beta_1_{i}", f))
    stages.append(_stage_entry("beta_2", result.beta2))
    payload = {
        "x": result.beta2.grid.x.tolist(),
        "stages": stages,
        "edge_fractions": result.edge_fractions,
    }
    path.write_text(json.dumps(payload))


def _file_tags(positions) -> list[str]:
    """File-name suffix per detector.x1 position; rejects colliding names."""
    if len(positions) == 1:
        return [""]
    tags: dict = {}
    for pos in positions:
        tag = f"_x1_{pos:+.4f}"
        if tag in tags:
            raise ConfigError(
                f"detector.x1: positions {tags[tag]!r} and {pos!r} both write "
                f"conditional{tag}.csv; make them differ in the first 4 decimals"
            )
        tags[tag] = pos
    return list(tags)


def run(cfg: ScenarioConfig, out_dir: str | None = None) -> list[Path]:
    """Execute a configuration and emit CSV (and optional stage) files.

    One position writes ``conditional.csv``; a sweep writes one
    position-suffixed file per position.  Either way the positions run as
    one :func:`sweep_conditioning`, so per-position failures raise one
    ``SweepError``.  The output directory is created only once every
    conditional has been computed.
    """
    tags = _file_tags(cfg.detector_x1)
    setup = build_setup(cfg)
    results = sweep_conditioning(setup, cfg.detector_x1)
    out = Path(out_dir if out_dir is not None else cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    x_text = [repr(x) for x in setup.grid.x.tolist()]
    written: list[Path] = []
    for tag, result in zip(tags, results):
        path = out / f"conditional{tag}.csv"
        _write_csv(path, x_text, result.distribution.density)
        written.append(path)
        if cfg.output_stages:
            spath = out / f"stages{tag}.json"
            _write_stages(spath, result)
            written.append(spath)
    return written


def scenario_descriptions() -> str:
    """The ``biphoton scenarios`` listing: each name, then its lines."""
    pad = "\n" + " " * 14
    return "".join(f"{name:<14}{pad.join(s.about)}\n" for name, s in SCENARIOS.items())


# ---------------------------------------------------------------------------
# verification suite


@dataclass(frozen=True)
class CheckResult:
    """One verification check: ``value`` against ``threshold``.

    ``larger_is_better`` is the comparison direction: the check passes
    when ``value >= threshold`` if set, else when ``value <= threshold``.
    """

    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""
    larger_is_better: bool = False

    @property
    def relation(self) -> str:
        return ">=" if self.larger_is_better else "<="

    @property
    def margin(self) -> float:
        """Distance to the threshold on the passing side (negative: failed)."""
        d = self.value - self.threshold
        return d if self.larger_is_better else -d


def _check(name, value, threshold, larger_is_better=False, detail="") -> CheckResult:
    ok = value >= threshold if larger_is_better else value <= threshold
    return CheckResult(
        name, float(value), float(threshold), bool(ok), detail, larger_is_better
    )


# n = 256 keeps the dense oracle cheap; the detector width is bumped to
# stay resolvable at that grid (equivalence is detector-independent).
_EQUIVALENCE_SCENARIOS = {
    "fig3-direct/no-mask": ScenarioConfig(n=256, detector_sigma=0.2),
    "fig3-direct/double-slit": ScenarioConfig(
        mask_kind="double-slit", n=256, detector_sigma=0.2
    ),
    "fourier-2f/single-slit": ScenarioConfig(
        scenario="fourier-2f",
        mask_kind="slit",
        mask_width=0.8,
        detector_shape="point",
        n=256,
    ),
}


def _equivalence_check(cfg: ScenarioConfig, name: str) -> CheckResult:
    setup = build_setup(cfg)
    retro = run_retrodictive(setup).distribution
    joint = predict.joint_for_setup(setup)
    oracle = predict.conditional_from_joint(joint, setup.detector1.center)
    diff = float(np.max(np.abs(retro.density - oracle.density)))
    return _check(f"equivalence[{name}]", diff, 1e-8)


def _ghost_l1(cfg: ScenarioConfig) -> float:
    """L1 distance between the conditional and ``|t(x)|^2`` on ``|x| <= 3``,
    each normalized there."""
    setup = build_setup(cfg)
    g = setup.grid
    m = np.abs(g.x) <= 3.0
    p = run_retrodictive(setup).distribution.density[m]
    q = np.abs(_mask_values(cfg, g)[m]) ** 2
    return float(np.sum(np.abs(p / (p.sum() * g.dx) - q / (q.sum() * g.dx))) * g.dx)


def _ghost_image_checks() -> list[CheckResult]:
    cfg = ScenarioConfig(mask_kind="double-slit", kappa=8.0, detector_shape="point")
    out = [_check("ghost-image[point]", _ghost_l1(cfg), 1e-2)]
    # detector-width sweep in units of the mask feature size, finer grid so
    # the narrowest width stays resolvable
    feature = cfg.mask_width
    l1s = [
        _ghost_l1(replace(cfg, detector_shape="gaussian", detector_sigma=s, n=1024))
        for s in (0.4 * feature, 0.2 * feature, 0.1 * feature)
    ]
    worst_step = max(b - a for a, b in zip(l1s, l1s[1:]))
    out.append(
        _check(
            "ghost-image[sigma-sweep-monotone]",
            worst_step,
            0.0,
            detail="L1 = " + ", ".join(f"{v:.4f}" for v in l1s),
        )
    )
    return out


def _fourier_image_check() -> CheckResult:
    cfg = replace(_EQUIVALENCE_SCENARIOS["fourier-2f/single-slit"], n=512, extent=None)
    setup = build_setup(cfg)
    res = run_retrodictive(setup)
    g = setup.grid
    t = _mask_values(cfg, g)
    # direct quadrature of the unit-scale transform, independent of the FFT path
    kernel = np.exp(-1j * np.outer(g.x, g.x)) * (g.dx / np.sqrt(2 * np.pi))
    ref = np.abs(kernel @ t) ** 2
    ref /= ref.sum() * g.dx
    l1 = float(np.sum(np.abs(res.distribution.density - ref)) * g.dx)
    return _check("fourier-image[point]", l1, 1e-2)


def _focal_closed_form_check() -> CheckResult:
    from .elements import apply_chain_backward, materialize_detector

    g = make_grid(1024, 32.0)
    f, k_z, x1 = 2.0, 50.0, 0.5
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        det = materialize_detector(DetectorProfile("gaussian", x1, sigma=sigma), g)
        out = apply_chain_backward((Propagate(f, k_z), FourierLens()), det)
        gfac = 1 - 2j * f / (k_z * sigma**2)
        ref = (
            (1 / (np.pi * sigma**2)) ** 0.25
            / np.sqrt(gfac)
            * np.exp(-((g.x - x1) ** 2) / (2 * sigma**2 * gfac))
        )
        i0 = int(np.argmax(np.abs(ref)))
        phase = ref[i0] / out.values[i0]
        phase /= abs(phase)
        err = float(np.max(np.abs(out.values * phase - ref)) / np.max(np.abs(ref)))
        worst = max(worst, err)
    return _check("focal-closed-form[sigma 0.5,1,2]", worst, 1e-6)


def _washout_checks() -> list[CheckResult]:
    def mi(**kw) -> float:
        cfg = ScenarioConfig(mask_kind="double-slit", **kw)
        joint = predict.joint_for_setup(build_setup(cfg))
        return predict.mutual_information_bits(joint)

    # Broad detector, sigma = L/4.  The broad-detector regime needs
    # window >> detector >> mask, so it runs on an enlarged window; the
    # narrow detector runs on the scenario's own grid.
    L = 64.0
    mi_n, mi_b = mi(), mi(detector_sigma=L / 4, n=1024, extent=L)
    return [
        _check("washout[MI, sigma=0.1]", mi_n, 0.5, larger_is_better=True),
        _check("washout[MI, sigma=L/4]", mi_b, 0.01),
    ]


def _finite_dim_check(instances: int = 100) -> CheckResult:
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for trial in range(instances):
        dim = int(rng.integers(2, 7))
        members = int(rng.integers(2, dim + 2))
        outcomes = int(rng.integers(2, dim + 1))
        ens = hilbert.random_ensemble(dim, members, rng)
        pom = hilbert.random_pom(dim, outcomes, rng)
        u = hilbert.random_unitary(dim, rng)
        fwd = np.stack(
            [hilbert.predictive_conditional(s, pom, u) for s in ens.states],
            axis=1,
        )
        back = hilbert.bayes_invert(ens.priors, fwd)
        for j in range(outcomes):
            direct = hilbert.retrodictive_conditional(ens, pom, j, u)
            worst = max(worst, float(np.max(np.abs(direct - back[:, j]))))
    return _check(f"finite-dim-equivalence[{instances} instances]", worst, 1e-12)


def verify_report(fast: bool = False) -> list[CheckResult]:
    """Run the verification suite and return one result per check."""
    checks = [_equivalence_check(c, name) for name, c in _EQUIVALENCE_SCENARIOS.items()]
    checks.append(_finite_dim_check(30 if fast else 100))
    if not fast:
        checks.extend(_ghost_image_checks())
        checks.append(_fourier_image_check())
        checks.append(_focal_closed_form_check())
        checks.extend(_washout_checks())
    return checks


def _print_report(checks: list[CheckResult]) -> bool:
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = (
            f"{status}  {c.name}: {c.value:.3e} "
            f"(threshold {c.relation} {c.threshold:g}, margin {c.margin:+.3e})"
        )
        if c.detail:
            line += f"  [{c.detail}]"
        print(line)
        ok = ok and c.passed
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biphoton", description="two-photon conditional imaging simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser(
        "run",
        help="run a scenario config",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_run.add_argument("--config", required=True, help="path to a config file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--fast", action="store_true", help="equivalence checks only")
    sub.add_parser("scenarios", help="list built-in scenarios")

    args = parser.parse_args(argv)
    if args.command == "scenarios":
        print(scenario_descriptions(), end="")
        return 0
    if args.command == "verify":
        t0 = time.perf_counter()
        ok = _print_report(verify_report(fast=args.fast))
        print(f"verify {'passed' if ok else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
        return 0 if ok else 3
    # run
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        written = run(cfg, out_dir=args.out)
    except (BiphotonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # every conditional of a run comes from one sweep, so a dark run is
        # a SweepError whose every failure is dark
        dark = isinstance(exc, SweepError) and all(
            isinstance(e, DarkConditionalError) for _, e in exc.failures
        )
        return 2 if dark else 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
