"""End-to-end conditional-detection pipeline, detection-first.

Given a detection at arm-1 position x1, the detector profile is followed
backward through the arm-1 optics to the crystal, conditions the pair
amplitude there, and the resulting one-photon state propagates forward
through arm 2.  The squared modulus of the final profile, normalized, is
the conditional detection density P(x2 | x1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import DetectorProfile, _detector_rows, compile_chain
from .errors import DarkConditionalError, EdgeLeakageError, GridError, SweepError
from .grid import Field, TransverseGrid, _readonly, edge_energy_fraction
from .source import BiphotonField, DeltaCorrelatedSource, condition

__all__ = [
    "ImagingSetup",
    "ConditionalDistribution",
    "RetrodictiveResult",
    "run_retrodictive",
    "sweep_conditioning",
]

EDGE_LEAKAGE_LIMIT = 1e-6
DARK_WEIGHT = 1e-300


@dataclass(frozen=True, eq=False)
class ImagingSetup:
    """One imaging configuration.

    ``arm1`` lists the arm-1 elements in backward-traversal order, i.e.
    detector to crystal (the reverse of the physical photon order); a mask
    adjacent to the crystal is therefore the *last* entry.  ``arm2`` is in
    physical order, crystal to detector.  Either arm may be empty.
    """

    grid: TransverseGrid
    arm1: tuple
    arm2: tuple
    source: BiphotonField | DeltaCorrelatedSource
    detector1: DetectorProfile

    def __post_init__(self):
        object.__setattr__(self, "arm1", tuple(self.arm1))
        object.__setattr__(self, "arm2", tuple(self.arm2))
        if self.source.grid != self.grid:
            raise GridError("source and setup grids differ")
        for e in self.arm1 + self.arm2:
            t = getattr(e, "t", None)
            if t is not None and t.grid != self.grid:
                raise GridError("mask and setup grids differ")


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Normalized detection density over x2, conditioned on x1."""

    grid: TransverseGrid
    density: np.ndarray
    conditioning_position: float | None

    def __post_init__(self):
        d = np.array(self.density, dtype=np.float64, copy=True)
        if d.shape != (self.grid.n,):
            raise GridError("density shape does not match the grid")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise GridError("density must be finite and nonnegative")
        object.__setattr__(self, "density", _readonly(d))


@dataclass(frozen=True, eq=False)
class RetrodictiveResult:
    """Conditional density plus every intermediate field of the pipeline.

    ``arm1_stages`` holds the profile after each backward arm-1 stage
    (lens/propagation pairs act as one stage), ending at the crystal;
    ``alpha3`` is the last of them.  ``beta1`` is the conditioned arm-2
    state at the crystal, ``beta2`` the final arm-2 profile, and
    ``edge_fractions`` maps stage names to their window-edge energy
    fractions.
    """

    distribution: ConditionalDistribution
    alpha: Field
    arm1_stages: tuple
    alpha3: Field
    beta1: Field
    arm2_stages: tuple
    beta2: Field
    edge_fractions: dict


def _central80(g: TransverseGrid, position: float) -> None:
    if abs(position) > 0.4 * g.extent:
        raise ValueError(
            f"conditioning position {position:g} outside the central 80% "
            f"of the window (|x1| <= {0.4 * g.extent:g})"
        )


def _run_rows(setup: ImagingSetup, positions: list) -> list:
    """Push an (m, n) stack of detector rows through each compiled op once.

    Conditioning and the edge and dark checks act per row: each position
    gets its result or the error it raised.  Other errors are raised once.
    """
    g, m = setup.grid, len(positions)
    for p in positions:
        _central80(g, p)
    stack = [_detector_rows(setup.detector1, g, positions)]
    for op in compile_chain(setup.arm1):
        stack.append(op.backward(stack[-1], g))
    arm1 = [[Field(g, s[i]) for s in stack] for i in range(m)]
    beta1 = [condition(setup.source, fields[-1]) for fields in arm1]
    stack = [np.array([b.values for b in beta1]).reshape(m, g.n)]
    for op in compile_chain(setup.arm2):
        stack.append(op.forward(stack[-1], g))
    arm2 = [[Field(g, s[i]) for s in stack[1:]] for i in range(m)]
    return [_finish_row(g, *row) for row in zip(positions, arm1, beta1, arm2)]


def _finish_row(g: TransverseGrid, x1, arm1: list, beta1: Field, arm2: list):
    """One row's checks and density: its result, or the error it raised."""
    edge = {"beta1": edge_energy_fraction(beta1)}
    if edge["beta1"] > EDGE_LEAKAGE_LIMIT:
        return EdgeLeakageError(
            f"conditioned crystal state has edge energy fraction "
            f"{edge['beta1']:.3e} > {EDGE_LEAKAGE_LIMIT:.1e}; enlarge the "
            f"window or confine the scenario"
        )
    beta2 = arm2[-1] if arm2 else beta1
    edge["beta2"] = edge_energy_fraction(beta2)
    weight = float(np.sum(np.abs(beta2.values) ** 2))
    if weight < DARK_WEIGHT:
        return DarkConditionalError(
            f"dark conditional at x1={x1:g}: the "
            f"detected event has numerically zero probability"
        )
    density = np.abs(beta2.values) ** 2 / (weight * g.dx)
    return RetrodictiveResult(
        distribution=ConditionalDistribution(g, density, x1),
        alpha=arm1[0],
        arm1_stages=tuple(arm1[1:]),
        alpha3=arm1[-1],
        beta1=beta1,
        arm2_stages=tuple(arm2),
        beta2=beta2,
        edge_fractions=edge,
    )


def run_retrodictive(setup: ImagingSetup) -> RetrodictiveResult:
    """Run the full detection-conditioned pipeline for one x1.

    The one-row case of :func:`sweep_conditioning`.  Raises
    :class:`DarkConditionalError` when the final profile carries no weight
    (conditioning on an impossible event), and :class:`EdgeLeakageError`
    when the conditioned crystal state has more than ``EDGE_LEAKAGE_LIMIT``
    (1e-6) of its energy in the outer 10% of the periodic window.
    """
    (row,) = _run_rows(setup, [setup.detector1.center])
    if isinstance(row, Exception):
        raise row
    return row


def sweep_conditioning(setup: ImagingSetup, positions) -> list[RetrodictiveResult]:
    """Run the pipeline for every conditioning position, in order.

    All positions go through each compiled op together, as one (m, n)
    stack; ``setup.detector1`` supplies the profile shape.  Every position
    must lie in the central 80% of the window.  An error of the setup
    itself (an undersampled propagation, an unresolvable detector, an
    ambiguous lens chain) is raised once.  Per-position edge-leakage and
    dark-conditional failures are collected and raised together as
    :class:`SweepError`.
    """
    positions = list(positions)
    rows = _run_rows(setup, positions)
    failures = [(p, r) for p, r in zip(positions, rows) if isinstance(r, Exception)]
    if failures:
        raise SweepError(failures)
    return rows
