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

from .elements import DetectorProfile, Mask, _detector_rows, compile_chain
from .errors import DarkConditionalError, EdgeLeakageError, GridError, SweepError
from .grid import Field, TransverseGrid, _edge_fractions, _frozen, _unchecked
from .source import BiphotonField, DeltaCorrelatedSource

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
            if isinstance(e, Mask) and e.t.grid != self.grid:
                raise GridError("mask and setup grids differ")


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Normalized detection density over x2, conditioned on x1."""

    grid: TransverseGrid
    density: np.ndarray
    conditioning_position: float | None

    def __post_init__(self):
        d = np.array(self.density, dtype=np.float64, copy=True)
        object.__setattr__(self, "density", _frozen(d, (self.grid.n,), "density"))


@dataclass(frozen=True, eq=False)
class RetrodictiveResult:
    """Conditional density plus every intermediate field of the pipeline.

    ``arm1_stages`` holds the profile after each backward arm-1 stage
    (lens/propagation pairs act as one stage), ending at the crystal;
    ``alpha3`` is the last of them.  ``beta1`` is the conditioned arm-2
    state at the crystal, ``beta2`` the final arm-2 profile, and
    ``edge_fractions`` maps stage names to their window-edge energy
    fractions.

    The fields and the density are read-only.  In a result from
    :func:`sweep_conditioning` (or :func:`run_retrodictive`, its one-row
    case) they are views onto one (m, n) stack per stage, shared by every
    position of the sweep: holding one row keeps the whole sweep's stacks
    alive.  Copy a row's arrays to keep them alone.
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
    if not abs(position) <= 0.4 * g.extent:  # also rejects NaN
        raise ValueError(
            f"conditioning position {position:g} outside the central 80% "
            f"of the window (|x1| <= {0.4 * g.extent:g}); move detector.x1 "
            f"inward or enlarge grid.extent"
        )


def _stack(a: np.ndarray, shape: tuple) -> np.ndarray:
    """One stage as a C-contiguous, read-only (m, n) stack, checked once."""
    return _frozen(np.ascontiguousarray(a, dtype=np.complex128), shape, "field values")


def _run_rows(setup: ImagingSetup, positions: list) -> list:
    """Push an (m, n) stack of detector rows through each compiled op once.

    Every stage stays one read-only stack; conditioning, the edge and dark
    checks and the normalization are each one operation over it.  Each
    position gets its result, whose fields are views onto the stacks, or
    the error it raised.  Other errors are raised once.
    """
    g = setup.grid
    for p in positions:
        _central80(g, p)
    shape = (len(positions), g.n)
    arm1 = [_stack(_detector_rows(setup.detector1, g, positions), shape)]
    for op in compile_chain(setup.arm1):
        arm1.append(_stack(op.backward(arm1[-1], g), shape))
    arm2 = [_stack(setup.source.project_arm1(arm1[-1]), shape)]
    for op in compile_chain(setup.arm2):
        arm2.append(_stack(op.forward(arm2[-1], g), shape))
    p1 = np.abs(arm2[0]) ** 2
    p2 = p1 if len(arm2) == 1 else np.abs(arm2[-1]) ** 2
    edge1, edge2 = _edge_fractions(g, p1), _edge_fractions(g, p2)
    weight = p2.sum(axis=-1)
    lit = (edge1 <= EDGE_LEAKAGE_LIMIT) & (weight >= DARK_WEIGHT)
    density = np.divide(
        p2, weight[:, None] * g.dx, out=np.zeros_like(p2), where=lit[:, None]
    )
    _frozen(density, shape, "density")

    rows = []
    for i, (x1, e1, e2) in enumerate(zip(positions, edge1.tolist(), edge2.tolist())):
        if e1 > EDGE_LEAKAGE_LIMIT:
            rows.append(
                EdgeLeakageError(
                    f"conditioned crystal state has edge energy fraction "
                    f"{e1:.3e} > {EDGE_LEAKAGE_LIMIT:.1e}; enlarge the window "
                    f"or confine the scenario (grid.extent sets the window)"
                )
            )
        elif not lit[i]:
            rows.append(
                DarkConditionalError(
                    f"dark conditional at x1={x1:g}: the "
                    f"detected event has numerically zero probability"
                )
            )
        else:
            a = [_unchecked(Field, grid=g, values=s[i]) for s in arm1]
            b = [_unchecked(Field, grid=g, values=s[i]) for s in arm2]
            dist = _unchecked(
                ConditionalDistribution,
                grid=g,
                density=density[i],
                conditioning_position=x1,
            )
            rows.append(
                RetrodictiveResult(
                    distribution=dist,
                    alpha=a[0],
                    arm1_stages=tuple(a[1:]),
                    alpha3=a[-1],
                    beta1=b[0],
                    arm2_stages=tuple(b[1:]),
                    beta2=b[-1],
                    edge_fractions={"beta1": e1, "beta2": e2},
                )
            )
    return rows


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
    :class:`SweepError`.  The results' fields are read-only views onto
    one stack per stage (see :class:`RetrodictiveResult`).
    """
    positions = list(positions)
    rows = _run_rows(setup, positions)
    failures = [(p, r) for p, r in zip(positions, rows) if isinstance(r, Exception)]
    if failures:
        raise SweepError(failures)
    return rows
