"""Brute-force forward oracle: joint detection statistics and Bayes.

This module computes the same conditional densities as
:mod:`biphoton.retrodict` by the conventional route: evolve the full pair
amplitude forward through both arms, project onto the arm-1 detector at
every grid position to form the joint density P(x1, x2), and condition by
row normalization.  It is deliberately assumption-free (dense tables,
nearest-row conditioning) and serves as the independent ground truth for
the detection-first pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import DetectorProfile, Mask, _detector_rows, compile_chain
from .errors import DarkConditionalError, GridError
from .grid import Field, TransverseGrid, _readonly
from .retrodict import DARK_WEIGHT, ConditionalDistribution, ImagingSetup
from .source import BiphotonField, DeltaCorrelatedSource

__all__ = [
    "JointDistribution",
    "evolve_joint",
    "joint_distribution",
    "conditional_from_joint",
    "marginal_arm2",
    "forward_arm1_chain",
    "joint_for_setup",
    "mutual_information_bits",
]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Normalized joint detection density P(x1, x2) on grid x grid."""

    grid: TransverseGrid
    density: np.ndarray
    detector1: DetectorProfile

    def __post_init__(self):
        d = np.array(self.density, dtype=np.float64, copy=True)
        n = self.grid.n
        if d.shape != (n, n):
            raise GridError(f"density must have shape ({n}, {n})")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise GridError("density must be finite and nonnegative")
        object.__setattr__(self, "density", _readonly(d))


def evolve_joint(
    B: BiphotonField | DeltaCorrelatedSource, arm1, arm2
) -> BiphotonField:
    """Evolve the pair amplitude forward through both arms.

    ``arm1`` and ``arm2`` are element sequences in physical order; arm-1
    elements act along the first index, arm-2 elements along the second.
    Compiled ops act on the last axis of a row stack, so arm 1 runs on the
    transposed matrix (its columns as rows) and arm 2 on the result
    transposed back.  The two arms commute.  This is the one place that
    needs the source as a dense ``n x n`` matrix.
    """
    g = B.grid
    v = B.values.T
    for op in compile_chain(arm1):
        v = op.forward(v, g)
    v = v.T
    for op in compile_chain(arm2):
        v = op.forward(v, g)
    return BiphotonField(g, v)


def joint_distribution(Psi: BiphotonField, detector1: DetectorProfile) -> JointDistribution:
    """Joint detection density from an evolved pair amplitude.

    For each arm-1 centre x1 on the grid, the coincidence amplitude is
    ``A(x1, x2) = dx * sum_x conj(a_x1(x)) Psi(x, x2)``; arm-2 detection is
    pointwise.  The squared modulus is normalized over both coordinates.
    """
    g = Psi.grid
    bank = _detector_rows(detector1, g, g.x)
    A = g.dx * (np.conj(bank) @ Psi.values)
    dens = np.abs(A) ** 2
    total = float(dens.sum())
    if total < DARK_WEIGHT:
        raise DarkConditionalError("joint distribution carries no weight")
    dens /= total * g.dx**2
    return JointDistribution(g, dens, detector1)


def conditional_from_joint(J: JointDistribution, x1: float) -> ConditionalDistribution:
    """Bayes route: P(x2 | x1) = P(x1, x2) / P(x1), nearest grid row."""
    g = J.grid
    row = J.density[g.index_of(x1)]
    weight = float(row.sum()) * g.dx
    if weight < DARK_WEIGHT:
        raise DarkConditionalError(
            f"dark conditional at x1={x1:g}: row carries no weight"
        )
    return ConditionalDistribution(g, row / weight, float(x1))


def marginal_arm2(J: JointDistribution) -> ConditionalDistribution:
    """Arm-2 detection density irrespective of the arm-1 outcome."""
    g = J.grid
    m = J.density.sum(axis=0) * g.dx
    m /= m.sum() * g.dx
    return ConditionalDistribution(g, m, None)


def forward_arm1_chain(arm1) -> list:
    """Physical-order forward arm-1 elements for a backward-ordered arm.

    Derived mechanically as the element-wise adjoint of the backward
    traversal, reversed: unitary elements are self-paired (their forward
    action is the adjoint of their backward one) and a mask's transfer
    function is conjugated, so both pipelines share one set of physics.
    """
    out = []
    for e in reversed(tuple(arm1)):
        if isinstance(e, Mask):
            out.append(Mask(Field(e.t.grid, np.conj(e.t.values))))
        else:
            out.append(e)
    return out


def joint_for_setup(setup: ImagingSetup) -> JointDistribution:
    """Joint density for an imaging setup via the forward route."""
    Psi = evolve_joint(setup.source, forward_arm1_chain(setup.arm1), setup.arm2)
    return joint_distribution(Psi, setup.detector1)


def mutual_information_bits(J: JointDistribution, bins: int = 64) -> float:
    """Mutual information between binned x1 and x2 under the joint.

    The window is split into ``bins`` equal-width cells per axis and the
    joint mass is aggregated before evaluating
    ``sum p log2(p / (p1 p2))``.
    """
    n = J.grid.n
    if bins < 2 or n % bins != 0:
        raise ValueError(f"bins must divide n={n}")
    m = n // bins
    p = J.density.reshape(bins, m, bins, m).sum(axis=(1, 3))
    p = p / p.sum()
    p1 = p.sum(axis=1, keepdims=True)
    p2 = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (p1 @ p2)[mask])))
