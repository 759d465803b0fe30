"""End-to-end conditional-detection pipeline, detection-first.

Given a detection at arm-1 position x1, the detector profile is followed
backward through the arm-1 optics to the crystal, conditions the pair
amplitude there, and the resulting one-photon state propagates forward
through arm 2.  The squared modulus of the final profile, normalized, is
the conditional detection density P(x2 | x1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elements import DetectorProfile, compile_chain, materialize_detector
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


def run_retrodictive(
    setup: ImagingSetup, *, edge_limit: float = EDGE_LEAKAGE_LIMIT
) -> RetrodictiveResult:
    """Run the full detection-conditioned pipeline for one x1.

    Raises :class:`DarkConditionalError` when the final profile carries no
    weight (conditioning on an impossible event), and
    :class:`EdgeLeakageError` when the conditioned crystal state has more
    than ``edge_limit`` of its energy in the outer 10% of the periodic
    window.
    """
    g = setup.grid
    _central80(g, setup.detector1.center)

    alpha = materialize_detector(setup.detector1, g)
    v = alpha.values
    arm1_stages = []
    for op in compile_chain(setup.arm1):
        v = op.backward(v, g)
        arm1_stages.append(Field(g, v))
    alpha3 = arm1_stages[-1] if arm1_stages else alpha

    beta1 = condition(setup.source, alpha3)

    edge = {"beta1": edge_energy_fraction(beta1)}
    if edge["beta1"] > edge_limit:
        raise EdgeLeakageError(
            f"conditioned crystal state has edge energy fraction "
            f"{edge['beta1']:.3e} > {edge_limit:.1e}; enlarge the window or "
            f"confine the scenario"
        )

    v = beta1.values
    arm2_stages = []
    for op in compile_chain(setup.arm2):
        v = op.forward(v, g)
        arm2_stages.append(Field(g, v))
    beta2 = arm2_stages[-1] if arm2_stages else beta1
    edge["beta2"] = edge_energy_fraction(beta2)

    weight = float(np.sum(np.abs(beta2.values) ** 2))
    if weight < DARK_WEIGHT:
        raise DarkConditionalError(
            f"dark conditional at x1={setup.detector1.center:g}: the "
            f"detected event has numerically zero probability"
        )
    density = np.abs(beta2.values) ** 2 / (weight * g.dx)
    dist = ConditionalDistribution(g, density, setup.detector1.center)
    return RetrodictiveResult(
        distribution=dist,
        alpha=alpha,
        arm1_stages=tuple(arm1_stages),
        alpha3=alpha3,
        beta1=beta1,
        arm2_stages=tuple(arm2_stages),
        beta2=beta2,
        edge_fractions=edge,
    )


def sweep_conditioning(setup: ImagingSetup, positions) -> list[RetrodictiveResult]:
    """Run the pipeline once per conditioning position, in order.

    Every position must lie in the central 80% of the window.  Failures
    are collected and raised together as :class:`SweepError` after all
    positions have been attempted.
    """
    positions = list(positions)
    for p in positions:
        _central80(setup.grid, p)
    results, failures = [], []
    for p in positions:
        sub = replace(setup, detector1=replace(setup.detector1, center=p))
        try:
            results.append(run_retrodictive(sub))
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised
            failures.append((p, exc))
    if failures:
        raise SweepError(failures)
    return results
