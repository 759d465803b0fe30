"""Brute-force forward oracle: joint detection statistics and Bayes.

This module computes the same conditional densities as
:mod:`biphoton.retrodict` by the conventional route: evolve the full pair
amplitude forward through both arms, project onto the arm-1 detector at
every grid position to form the joint density P(x1, x2), and condition by
row normalization.  It is deliberately assumption-free (dense tables,
nearest-row conditioning) and serves as the independent ground truth for
the detection-first pipeline.

It builds the joint in blocks of 256 rows, a thread per CPU in the
process's affinity (``os.sched_getaffinity``).  A block samples its rows
of the detector bank and squares its rows of the coincidence amplitude
into the density, so no n x n bank or amplitude exists: the memory is the
pair amplitude plus the density.  Its bits do not depend on the CPUs.

It skips work whose result is exactly zero.  An opaque arm-1 mask zeroes
whole columns of the pair amplitude, and a zero column stays zero through
the linear ops: the rest of arm 1 and the product take only the live
columns, and the joint keeps its bits.  A delta-correlated source enters
as its pump: a leading arm-1 mask acts on the pump, and only the columns
it leaves open are built.  With m live columns the cost is
O(n^2 log n + n^2 m); with no opaque mask it is still O(n^3).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .elements import DetectorProfile, Mask, QuadraticPhase, _detector_rows, compile_chain
from .errors import DarkConditionalError
from .grid import Field, TransverseGrid, _frozen, _unchecked
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
        n = self.grid.n
        d = np.array(self.density, dtype=np.float64, copy=True)
        object.__setattr__(self, "density", _frozen(d, (n, n), "density"))


def _transposed(a: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(a.T)``, the same bytes, copied tile by tile.

    A 64 x 64 complex tile and its image both stay in cache, which halves
    the cost of the strided whole-matrix copy at n = 2048.
    """
    t = 64
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    for i in range(0, a.shape[1], t):
        for j in range(0, a.shape[0], t):
            out[i : i + t, j : j + t] = a[j : j + t, i : i + t].T
    return out


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# At least 2: a one-row product goes to the matrix-vector routine, which
# rounds differently.  n is a power of two, so no block is shorter.
_MIN_BLOCK_ROWS = 256


def evolve_joint(
    B: BiphotonField | DeltaCorrelatedSource, arm1, arm2
) -> BiphotonField:
    """Evolve the pair amplitude forward through both arms.

    ``arm1`` and ``arm2`` are element sequences in physical order; arm-1
    elements act along the first index, arm-2 elements along the second.
    Compiled ops act on the last axis of a row stack, so arm 1 runs on a
    C-contiguous transposed copy (its columns as contiguous rows, which
    the FFTs read twice as fast as strided ones) and arm 2 on the result
    transposed back.  The two arms commute.

    A delta-correlated source is diagonal, its own transpose, and leading
    pointwise (``Mask``, ``QuadraticPhase``) arm-1 elements keep it so:
    they act on the pump, and only the rows it leaves nonzero are built,
    with the dense path's bits except that no zero is -0.

    After each arm-1 op, all-zero rows of the stack are dropped: each op
    is linear and acts on each row alone, so they would stay zero and the
    rows kept keep their bits.  Arm 2 gets them back as zero columns.
    """
    g, arm1 = B.grid, list(arm1)
    if isinstance(B, DeltaCorrelatedSource):
        pump = B.pump
        while arm1 and isinstance(arm1[0], (Mask, QuadraticPhase)):
            pump = arm1.pop(0).forward(pump, g)
        live = np.flatnonzero(pump)
        v = np.zeros((live.size, g.n), dtype=np.complex128)
        v[np.arange(live.size), live] = pump[live]
    else:
        v, live = _transposed(B.values), np.arange(g.n)
    for op in compile_chain(arm1):
        v = op.forward(v, g)
        keep = np.any(v != 0, axis=1)
        if not keep.all():
            v, live = v[keep], live[keep]
    if len(live) == g.n:
        v = _transposed(v)
    else:
        full = np.zeros((g.n, g.n), dtype=v.dtype)
        full[:, live] = v.T
        v = full
    for op in compile_chain(arm2):
        v = op.forward(v, g)
    v = _frozen(np.ascontiguousarray(v), (g.n, g.n), "biphoton values")
    return _unchecked(BiphotonField, grid=g, values=v)


def joint_distribution(Psi: BiphotonField, detector1: DetectorProfile) -> JointDistribution:
    """Joint detection density from an evolved pair amplitude.

    For each arm-1 centre x1 on the grid, the coincidence amplitude is
    ``A(x1, x2) = dx * sum_x conj(a_x1(x)) Psi(x, x2)``; arm-2 detection is
    pointwise.  The squared modulus is normalized over both coordinates.

    A block of ``_MIN_BLOCK_ROWS`` rows samples its rows of the detector
    bank and squares its rows of ``A`` into the density, so the bank and
    ``A`` exist a block at a time.  Blocks run on a pool of a thread per
    CPU, at most one per block, made for this call (a pool kept at module
    level would have no threads in a forked child), or inline if one.  The BLAS computes a
    row of a product by the same operations whichever rows share its
    call, so the bits do not depend on the CPU count
    (``tests/test_predict.py`` pins this).  One sum over the whole table
    normalizes it.

    Only the live (not all-zero) columns of ``Psi`` enter the product; the
    rest of the density is exact zeros.  Each column keeps the full
    product's bits if there are at least two (one goes to the
    matrix-vector routine, which rounds differently, so a lone live column
    gets a dead neighbour) and the bank is real, as every
    ``DETECTOR_SHAPES`` profile is.  With a complex bank, OpenBLAS's
    remainder kernel rounds the columns past the last multiple of 4
    differently (about 5e-16 relative), so a complex detector profile may
    move the joint's last bits.
    """
    g, psi = Psi.grid, Psi.values
    live = np.any(psi != 0, axis=0)
    if np.count_nonzero(live) == 1:  # add a dead neighbour: see above
        live[(np.argmax(live) + 1) % g.n] = True
    cols = slice(None) if live.all() else live
    sub = psi[:, cols]
    dens = np.zeros((g.n, g.n))

    def block(rows: slice) -> None:
        bank = _detector_rows(detector1, g, g.x[rows])
        a = np.matmul(np.conj(bank, out=bank), sub)
        a *= g.dx
        dens[rows, cols] = np.abs(a) ** 2

    blocks = [slice(i, i + _MIN_BLOCK_ROWS) for i in range(0, g.n, _MIN_BLOCK_ROWS)]
    workers = min(_cpus(), len(blocks))
    if workers == 1:
        for rows in blocks:
            block(rows)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(block, blocks))
    total = float(dens.sum())
    if total < DARK_WEIGHT:
        raise DarkConditionalError("joint distribution carries no weight")
    dens[:, cols] /= total * g.dx**2
    dens = _frozen(dens, (g.n, g.n), "density")
    return _unchecked(JointDistribution, grid=g, density=dens, detector1=detector1)


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
