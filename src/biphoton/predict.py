"""Brute-force forward oracle: joint detection statistics and Bayes.

This module computes the same conditional densities as
:mod:`biphoton.retrodict` by the conventional route: evolve the full pair
amplitude forward through both arms, project onto the arm-1 detector at
every grid position to form the joint density P(x1, x2), and condition by
row normalization.  It is deliberately assumption-free (dense tables,
nearest-row conditioning) and serves as the independent ground truth for
the detection-first pipeline.  The oracle's rules are stated here once.

Blocks and threads.  The joint is built in blocks of ``_MIN_BLOCK_ROWS``
rows.  A block samples its rows of the detector bank, multiplies them into
the pair amplitude and squares them into its rows of the density.  Blocks
run on a pool of a thread per CPU in the process's affinity
(``os.sched_getaffinity``, or ``os.cpu_count()`` where there is none), at
most one per block, made per call (a pool kept at module level would have
no threads in a forked child), or inline on one CPU.  The BLAS computes a
row of a product by the same operations whichever rows share its call, so
the bits do not depend on the CPU count.

Memory.  No n x n bank, coincidence amplitude or density exists: the
joint holds the pair amplitude's m product columns (16 n m bytes), the
density's m columns (8 n m) and one bank block per thread.  Where the
whole amplitude enters, m = n, and the evolution's own n x n temporaries
set the peak.

Exact zeros.  Two rules skip work whose result is exactly zero, and the
joint keeps its bits.

* Pump columns.  A delta-correlated source enters as its pump: leading
  pointwise arm-1 elements (``Mask``, ``QuadraticPhase``) act on the pump
  alone, and its dead entries never become rows of the evolution.  With
  an empty arm 2 those rows are the amplitude's only nonzero columns, and
  only they enter the product; the density's other columns are exact
  zeros, and the joint does not hold them.
  A lone live entry i also keeps entry (i + 1) % n as a dead row, added
  as zeros after arm 1 (an op could turn a zero into -0): a one-column
  product goes to the matrix-vector routine, which rounds differently.
  A nonempty arm 2 mixes the columns, so there, and for a dense source,
  the whole amplitude enters.  A column keeps the all-column product's
  bits only with a real bank, as every ``DETECTOR_SHAPES`` profile is;
  with a complex one, OpenBLAS's remainder kernel rounds the columns past
  the last multiple of 4 differently (about 5e-16 relative).
* The detector band.  A detector row is exactly zero farther from its
  centre than its shape's support half-width.  So a block samples and
  multiplies only the band of columns its rows reach, with a margin of
  one sample, widened outward to multiples of ``_BAND_ALIGN`` and clipped
  to the window; the bank's row norms stay full-width sums.  The band's
  bits rest on OpenBLAS's kernel blocking, not on a promise of the BLAS:
  aligned to 128 columns the product sums its inner dimension in the
  dense product's chunks, and aligned to 64 it did not.
  ``TestBandedProduct`` in ``tests/test_predict.py`` pins it for every
  shape.

With a band of w columns and m product columns the product costs
O(n w m), O(n^2 w) with every column live, next to O(n^2 log n) for the
evolution and O(n^2) for the row norms.

Routes.  :func:`joint_for_setup` is the live-column route: the evolution
hands its product columns straight to the product.
:func:`joint_distribution` is the all-column definition: it multiplies
every column of the table it is given, such as the n x n table
:func:`evolve_joint` scatters the columns into.  Both give the same bytes.
Each joint holds the density columns its product computed, all n on the
all-column route.  The normalizing total (:func:`_total`), the
conditional, the marginal and the mutual information read those columns
and keep the bits of the same sums over the whole table.  A joint with
fewer than n columns builds its n x n table only when ``density`` is read.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .elements import (
    DetectorProfile,
    Mask,
    QuadraticPhase,
    _detector_reach,
    _detector_rows,
    compile_chain,
)
from .errors import DarkConditionalError
from .grid import Field, TransverseGrid, _frozen, _readonly, _unchecked
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


@dataclass(frozen=True, eq=False, init=False)
class JointDistribution:
    """Normalized joint detection density P(x1, x2) on grid x grid, held as
    the columns that can be nonzero.

    ``columns`` (n, m, read-only) holds the columns ``live`` (sorted) of
    the density; every other column is exact zeros.  The oracle holds the
    m columns its product computed.  The constructor takes a whole n x n
    ``density``, copies and checks it, and holds it as m = n columns.
    """

    grid: TransverseGrid
    columns: np.ndarray
    live: np.ndarray
    detector1: DetectorProfile

    def __init__(self, grid: TransverseGrid, density, detector1: DetectorProfile):
        n = grid.n
        d = _frozen(np.array(density, dtype=np.float64, copy=True), (n, n), "density")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "columns", d)
        object.__setattr__(self, "live", _readonly(np.arange(n)))
        object.__setattr__(self, "detector1", detector1)

    @property
    def density(self) -> np.ndarray:
        """The n x n density, read-only: the held array itself when m = n,
        else a fresh table the columns are scattered into."""
        if len(self.live) == self.grid.n:
            return self.columns
        return _readonly(_table(self.columns, self.live, self.grid.n))


def _transposed(a: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(a.T)``, the same bytes, copied tile by tile.

    A 64 x 64 complex tile and its image both stay in cache, which makes
    this about twice as fast as the strided whole-matrix copy.  Arm 1's
    rows leave the evolution through it.
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

# A block's detector band starts and ends on a multiple of this many
# columns, or at the window's edge, so that OpenBLAS sums the product's
# inner dimension in the dense product's chunks: see the module docstring.
_BAND_ALIGN = 128

# numpy sums a contiguous float array in blocks of this many entries, and
# pairs the block sums in a binary tree: see :func:`_total`.
_PAIRWISE_BLOCK = 128


def _table(psi: np.ndarray, live: np.ndarray, n: int) -> np.ndarray:
    """The n x n table whose columns ``live`` are ``psi``'s, zero elsewhere."""
    full = np.zeros((n, n), dtype=psi.dtype)
    full[:, live] = psi
    return full


def _chunk_sums(cols: np.ndarray, live: np.ndarray, n: int, size: int):
    """The sums of ``_table(cols, live, n)``'s rows over each run of
    ``size`` columns that holds a live column: ``(chunks, sums)``, with
    ``sums[i, j]`` the pairwise sum of row i's chunk ``chunks[j]``.

    Only those chunks are built; with every column live, none is.
    """
    if len(live) == n:
        return np.arange(n // size), cols.reshape(n, n // size, size).sum(axis=2)
    chunk = live // size
    hit = np.unique(chunk)
    t = np.zeros((n, len(hit), size))
    t[:, np.searchsorted(hit, chunk), live % size] = cols
    return hit, t.sum(axis=2)


def _total(cols: np.ndarray, live: np.ndarray, n: int) -> float:
    """``_table(cols, live, n).sum()`` bit for bit, without the table.

    numpy sums a contiguous float array pairwise: each block of
    ``_PAIRWISE_BLOCK`` entries by its own unrolled loop, and the block
    sums in a perfect binary tree (n^2 is a power of two).  With n at least
    one block, a block is a run of a row, so the leaves are the chunk sums
    of :func:`_chunk_sums`, zero where no column is live, halved pairwise.
    This rests on numpy's summation, not on a promise of its API;
    ``TestTotal`` in ``tests/test_predict.py`` pins it.
    """
    if len(live) == n:  # the table itself
        return float(cols.sum())
    if n < _PAIRWISE_BLOCK:  # a block spans rows; the table is small
        return float(_table(cols, live, n).sum())
    hit, sums = _chunk_sums(cols, live, n, _PAIRWISE_BLOCK)
    leaves = np.zeros((n, n // _PAIRWISE_BLOCK))
    leaves[:, hit] = sums
    v = leaves.ravel()
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return float(v[0])


def _live_columns(B: BiphotonField | DeltaCorrelatedSource, arm1, arm2):
    """The evolved pair amplitude as the columns that enter the product:
    ``(psi, live)``.

    ``psi`` is a C-contiguous, checked (n, m) block and ``live`` the sorted
    indices of its m columns in the n x n amplitude, whose other columns
    are exact zeros.  This is the one place those columns are chosen, by
    the pump-column rule of the module docstring.  See :func:`evolve_joint`.
    """
    g, arm1, arm2 = B.grid, list(arm1), compile_chain(arm2)
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
    if len(live) == 1:  # a dead neighbour: see the module docstring
        j = (live[0] + 1) % g.n
        v, live = np.pad(v, ((int(j == 0), int(j > 0)), (0, 0))), np.sort([live[0], j])
    v = _transposed(v)
    if arm2 and len(live) < g.n:  # arm 2 mixes the columns
        v, live = _table(v, live, g.n), np.arange(g.n)
    for op in arm2:
        v = op.forward(v, g)
    v = _frozen(np.ascontiguousarray(v), (g.n, len(live)), "biphoton values")
    return v, live


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
    with the dense path's bits except that no zero is -0.  This function
    scatters the evolved columns into the zero-filled n x n table it
    returns.
    """
    v, live = _live_columns(B, arm1, arm2)
    if len(live) < B.grid.n:
        v = _readonly(_table(v, live, B.grid.n))
    return _unchecked(BiphotonField, grid=B.grid, values=v)


def joint_distribution(Psi: BiphotonField, detector1: DetectorProfile) -> JointDistribution:
    """Joint detection density from an evolved pair amplitude.

    For each arm-1 centre x1 on the grid, the coincidence amplitude is
    ``A(x1, x2) = dx * sum_x conj(a_x1(x)) Psi(x, x2)``; arm-2 detection is
    pointwise.  The squared modulus is normalized over both coordinates.
    This is the all-column definition: every column of ``Psi`` enters the
    product.
    """
    return _joint(Psi.grid, Psi.values, np.arange(Psi.grid.n), detector1)


def _joint(
    g: TransverseGrid, psi: np.ndarray, live: np.ndarray, detector1: DetectorProfile
) -> JointDistribution:
    """The joint density of a pair amplitude held as the columns that
    enter the product: ``psi`` (n, m) holds the columns ``live`` (sorted)
    of the n x n amplitude, whose other columns are all zero.

    The product multiplies exactly these columns, a block of rows and its
    detector band at a time, into the m columns of the density that can be
    nonzero; :func:`_total` normalizes them with the bits of a sum over the
    whole table.  The blocks, threads and band are those of the module
    docstring.
    """
    dens = np.empty((g.n, len(live)))  # the blocks tile the rows
    # a row is 0 farther than `reach` samples from its centre, with a
    # margin of one; min() keeps a huge reach finite
    reach = math.ceil(min(_detector_reach(detector1, g) / g.dx, g.n)) + 1

    def block(rows: slice) -> None:
        lo = max(0, (rows.start - reach) // _BAND_ALIGN * _BAND_ALIGN)
        hi = min(g.n, -(-(rows.stop + reach) // _BAND_ALIGN) * _BAND_ALIGN)
        bank = _detector_rows(detector1, g, g.x[rows], slice(lo, hi))
        a = np.matmul(np.conj(bank, out=bank), psi[lo:hi])
        a *= g.dx
        dens[rows] = np.abs(a) ** 2

    blocks = [slice(i, i + _MIN_BLOCK_ROWS) for i in range(0, g.n, _MIN_BLOCK_ROWS)]
    workers = min(_cpus(), len(blocks))
    if workers == 1:
        for rows in blocks:
            block(rows)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(block, blocks))
    total = _total(dens, live, g.n)
    if total < DARK_WEIGHT:
        raise DarkConditionalError("joint distribution carries no weight")
    dens /= total * g.dx**2
    dens = _frozen(dens, (g.n, len(live)), "density")
    return _unchecked(
        JointDistribution, grid=g, columns=dens, live=_readonly(live), detector1=detector1
    )


def conditional_from_joint(J: JointDistribution, x1: float) -> ConditionalDistribution:
    """Bayes route: P(x2 | x1) = P(x1, x2) / P(x1), nearest grid row."""
    g = J.grid
    row = np.zeros(g.n)
    row[J.live] = J.columns[g.index_of(x1)]
    weight = float(row.sum()) * g.dx
    if weight < DARK_WEIGHT:
        raise DarkConditionalError(
            f"dark conditional at x1={x1:g}: row carries no weight"
        )
    return ConditionalDistribution(g, row / weight, float(x1))


def marginal_arm2(J: JointDistribution) -> ConditionalDistribution:
    """Arm-2 detection density irrespective of the arm-1 outcome."""
    g = J.grid
    # a joint never holds exactly one column (a lone live column keeps a
    # dead neighbour), so this sums down each column in row order, as the
    # table's sum does
    m = np.zeros(g.n)
    m[J.live] = J.columns.sum(axis=0)
    m *= g.dx
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
    """Joint density for an imaging setup via the forward route.

    ``joint_distribution(evolve_joint(...), detector1)`` bit for bit, but
    the pair amplitude goes from the evolution to the product as the
    columns :func:`_live_columns` chooses: no n x n zero-filled table.
    """
    psi, live = _live_columns(setup.source, forward_arm1_chain(setup.arm1), setup.arm2)
    return _joint(setup.grid, psi, live, setup.detector1)


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
    # the table's reshape(bins, m, bins, m).sum(axis=(1, 3)) bit for bit:
    # each row's pairwise sum over a bin's m columns, then the bin's rows
    # added in order
    hit, sums = _chunk_sums(J.columns, J.live, n, m)
    p = np.zeros((bins, bins))
    p[:, hit] = np.cumsum(sums.reshape(bins, m, -1), axis=1)[:, -1]
    p = p / p.sum()
    p1 = p.sum(axis=1, keepdims=True)
    p2 = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (p1 @ p2)[mask])))
