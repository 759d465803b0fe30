"""Span recording and traced replays of the library's stage sequences.

The package records no spans of its own, so the traced run rebuilds the
stage sequences of ``run_retrodictive``, ``sweep_conditioning``,
``joint_for_setup`` and the finite-dimensional verify check from public
functions, with a span around each call into a layer.  Every replay must
return exactly the bytes the library call returns; the harness compares
them and counts a mismatch as a failed operation.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from biphoton import hilbert
from biphoton.elements import DetectorProfile, compile_chain, materialize_detector
from biphoton.errors import DarkConditionalError, EdgeLeakageError
from biphoton.grid import Field, edge_energy_fraction
from biphoton.predict import JointDistribution, evolve_joint, forward_arm1_chain
from biphoton.retrodict import (
    DARK_WEIGHT,
    EDGE_LEAKAGE_LIMIT,
    ConditionalDistribution,
    RetrodictiveResult,
)
from biphoton.source import condition

# Length-n FFTs one application of a compiled op performs (computed from
# the op's definition, not counted at run time).
FFTS_PER_KIND = {"spectral_phase": 2, "lens": 1}

# Seed of the finite-dimensional check inside ``cli.verify_report``; the
# replay draws the same instances.
FINITE_DIM_SEED = 20240811


class Tracer:
    """In-memory spans and counts, grouped into units (one op or probe)."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, unit, name, start, end]
        self.counts: list[tuple] = []  # (unit, name, amount)
        self.units: list[str] = []
        self._stack: list[int] = []

    def begin_unit(self, kind: str) -> int:
        self.units.append(kind)
        return len(self.units) - 1

    @contextmanager
    def span(self, name: str):
        rec = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            len(self.units) - 1,
            name,
            time.perf_counter(),
            None,
        ]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts.append((len(self.units) - 1, name, amount))

    def unit_totals(self) -> list[dict]:
        """Per unit: summed duration per span name, self time per
        ``<name>.self``, and summed counts."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        totals = [dict() for _ in self.units]
        for sid, _, unit, name, t0, t1 in self.spans:
            d = totals[unit]
            d[name] = d.get(name, 0.0) + (t1 - t0)
            d[name + ".self"] = d.get(name + ".self", 0.0) + (t1 - t0 - child_time[sid])
        for unit, name, amount in self.counts:
            totals[unit][name] = totals[unit].get(name, 0) + amount
        return totals

    def dump(self) -> dict:
        base = self.spans[0][4] if self.spans else 0.0
        return {
            "units": self.units,
            "spans": [
                {"id": s[0], "parent": s[1], "unit": s[2], "name": s[3],
                 "start": s[4] - base, "end": s[5] - base}
                for s in self.spans
            ],
            "counts": [list(c) for c in self.counts],
        }


def op_kind(op) -> str:
    """``_SpectralPhaseOp`` -> ``spectral_phase``."""
    stem = type(op).__name__.strip("_")
    stem = stem[:-2] if stem.endswith("Op") else stem
    return re.sub(r"(?<!^)(?=[A-Z])", "_", stem).lower()


def _apply_ops(elements, direction: str, v: np.ndarray, g, tr: Tracer) -> list:
    out = []
    for op in compile_chain(elements):
        kind = op_kind(op)
        with tr.span(f"elements.op.{kind}"):
            v = getattr(op, direction)(v, g)
        tr.count("elements.ops_applied", 1)
        tr.count("elements.fft_count", FFTS_PER_KIND.get(kind, 0))
        out.append(v)
    return out


def run_retrodictive(setup, tr: Tracer) -> RetrodictiveResult:
    """Stage-by-stage replay of :func:`biphoton.run_retrodictive`."""
    g = setup.grid
    x1 = setup.detector1.center
    with tr.span("retrodict.run_retrodictive"):
        if abs(x1) > 0.4 * g.extent:
            raise ValueError(f"conditioning position {x1:g} outside the central 80%")
        with tr.span("elements.materialize_detector"):
            alpha = materialize_detector(setup.detector1, g)
        with tr.span("elements.arm1_backward"):
            raw1 = _apply_ops(setup.arm1, "backward", alpha.values, g, tr)
        arm1 = [Field(g, v) for v in raw1]
        alpha3 = arm1[-1] if arm1 else alpha
        with tr.span("source.condition"):
            beta1 = condition(setup.source, alpha3)
        with tr.span("grid.edge_energy_fraction"):
            edge = {"beta1": edge_energy_fraction(beta1)}
        if edge["beta1"] > EDGE_LEAKAGE_LIMIT:
            raise EdgeLeakageError(f"edge energy fraction {edge['beta1']:.3e}")
        with tr.span("elements.arm2_forward"):
            raw2 = _apply_ops(setup.arm2, "forward", beta1.values, g, tr)
        arm2 = [Field(g, v) for v in raw2]
        beta2 = arm2[-1] if arm2 else beta1
        with tr.span("grid.edge_energy_fraction"):
            edge["beta2"] = edge_energy_fraction(beta2)
        weight = float(np.sum(np.abs(beta2.values) ** 2))
        if weight < DARK_WEIGHT:
            raise DarkConditionalError(f"dark conditional at x1={x1:g}")
        density = np.abs(beta2.values) ** 2 / (weight * g.dx)
        dist = ConditionalDistribution(g, density, x1)
    return RetrodictiveResult(
        distribution=dist,
        alpha=alpha,
        arm1_stages=tuple(arm1),
        alpha3=alpha3,
        beta1=beta1,
        arm2_stages=tuple(arm2),
        beta2=beta2,
        edge_fractions=edge,
    )


def sweep_conditioning(setup, positions, tr: Tracer) -> list[RetrodictiveResult]:
    """Replay of :func:`biphoton.sweep_conditioning` (raises on the first
    failing position instead of aggregating)."""
    with tr.span("retrodict.sweep_conditioning"):
        positions = list(positions)
        for p in positions:
            if abs(p) > 0.4 * setup.grid.extent:
                raise ValueError(f"conditioning position {p:g} outside the central 80%")
        return [
            run_retrodictive(replace(setup, detector1=replace(setup.detector1, center=p)), tr)
            for p in positions
        ]


def joint_for_setup(setup, tr: Tracer) -> JointDistribution:
    """Replay of :func:`biphoton.joint_for_setup`: forward evolution, the
    n-row detector bank, and the bank-by-amplitude matmul."""
    d = setup.detector1
    with tr.span("predict.joint_for_setup"):
        with tr.span("predict.evolve_joint"):
            psi = evolve_joint(setup.source, forward_arm1_chain(setup.arm1), setup.arm2)
        g = psi.grid
        with tr.span("predict.bank"):
            if d.shape == "point":
                bank = np.eye(g.n, dtype=np.complex128) / np.sqrt(g.dx)
            else:
                bank = np.empty((g.n, g.n), dtype=np.complex128)
                for i, c in enumerate(g.x):
                    bank[i] = materialize_detector(
                        DetectorProfile(d.shape, center=float(c), sigma=d.sigma, width=d.width),
                        g,
                    ).values
        with tr.span("predict.matmul"):
            amp = g.dx * (np.conj(bank) @ psi.values)
        dens = np.abs(amp) ** 2
        total = float(dens.sum())
        if total < DARK_WEIGHT:
            raise DarkConditionalError("joint distribution carries no weight")
        dens /= total * g.dx**2
        joint = JointDistribution(g, dens, d)
    tr.count("predict.matmul_flops", 8 * g.n**3)
    tr.count("predict.matmul_bytes", 3 * 16 * g.n**2)
    return joint


def finite_dim_equivalence(instances: int, tr: Tracer) -> float:
    """Replay of verify's finite-dimensional forward/reversed check;
    returns the worst pointwise difference between the two routes."""
    with tr.span("hilbert.equivalence"):
        rng = np.random.default_rng(FINITE_DIM_SEED)
        worst = 0.0
        for _ in range(instances):
            dim = int(rng.integers(2, 7))
            members = int(rng.integers(2, dim + 2))
            outcomes = int(rng.integers(2, dim + 1))
            ens = hilbert.random_ensemble(dim, members, rng)
            pom = hilbert.random_pom(dim, outcomes, rng)
            u = hilbert.random_unitary(dim, rng)
            fwd = np.stack(
                [hilbert.predictive_conditional(s, pom, u) for s in ens.states], axis=1
            )
            back = hilbert.bayes_invert(ens.priors, fwd)
            for j in range(outcomes):
                direct = hilbert.retrodictive_conditional(ens, pom, j, u)
                worst = max(worst, float(np.max(np.abs(direct - back[:, j]))))
    return worst


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_result(a: RetrodictiveResult, b: RetrodictiveResult) -> bool:
    """Bit-for-bit equality of every field of two pipeline results."""
    fields_a = [a.alpha, *a.arm1_stages, a.alpha3, a.beta1, *a.arm2_stages, a.beta2]
    fields_b = [b.alpha, *b.arm1_stages, b.alpha3, b.beta1, *b.arm2_stages, b.beta2]
    return (
        len(fields_a) == len(fields_b)
        and all(same_bytes(x.values, y.values) for x, y in zip(fields_a, fields_b))
        and same_bytes(a.distribution.density, b.distribution.density)
        and a.edge_fractions == b.edge_fractions
    )
