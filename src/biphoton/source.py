"""Two-photon source amplitude and the conditioning that collapses it.

The crystal emits a photon pair described by a joint transverse amplitude
``B[i, j] ~ beta(x_i, x'_j)`` (arm-1 coordinate first).  Conditioning on a
reverse-propagated arm-1 profile projects the pair state onto a one-photon
arm-2 state; the single complex conjugation of the arm-1 profile happens
here, which is what makes the conjugated transfer function appear in the
conditioned state.

Two source types share one interface (``grid``, ``values``, ``norm_sq``
and ``project_arm1``, which takes one arm-1 profile or an (m, n) stack of
them):

* :class:`BiphotonField` stores a general amplitude as a dense ``n x n``
  matrix; conditioning is an O(n^2) vector-matrix product.
* :class:`DeltaCorrelatedSource` stores only the pump profile on the
  diagonal, so building and conditioning are O(n): the conditioned state
  is the pump times the conjugated, back-propagated detector profile.
  Its dense matrix is built on first access to ``values`` and cached;
  only the forward oracle (:func:`biphoton.predict.evolve_joint`) asks
  for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError
from .grid import Field, TransverseGrid, _readonly, _unchecked

__all__ = [
    "BiphotonField",
    "DeltaCorrelatedSource",
    "make_biphoton_delta_correlated",
    "condition",
]


@dataclass(frozen=True, eq=False)
class BiphotonField:
    """Complex two-photon amplitude on ``grid x grid`` (arm 1 first)."""

    grid: TransverseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, order="C", copy=True)
        object.__setattr__(self, "values", _checked_values(self.grid, v))

    @classmethod
    def _owning(cls, grid: TransverseGrid, values: np.ndarray) -> BiphotonField:
        """A field that takes over ``values``, a fresh array no one else
        holds: checked once as the constructor checks, and not copied."""
        v = _checked_values(grid, np.ascontiguousarray(values, dtype=np.complex128))
        return _unchecked(cls, grid=grid, values=v)

    @property
    def norm_sq(self) -> float:
        """``sum |B|^2 * dx**2``."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx**2)

    def project_arm1(self, a: np.ndarray) -> np.ndarray:
        """``dx * sum_i conj(a[i]) * B[i, :]``, by a dense product.

        A stack is projected row by row: one vector-matrix product per row
        gives a row the same bits alone or in a stack, which one batched
        matrix product would not.
        """
        if a.ndim == 1:
            return self.grid.dx * (np.conj(a) @ self.values)
        out = np.empty(a.shape, dtype=np.complex128)
        for i, row in enumerate(a):
            out[i] = self.project_arm1(row)
        return out


@dataclass(frozen=True, eq=False)
class DeltaCorrelatedSource:
    """Pair amplitude ``B[i, j] = delta_ij * pump[j]``, stored as ``pump``."""

    grid: TransverseGrid
    pump: np.ndarray

    def __post_init__(self):
        p = np.array(self.pump, dtype=np.complex128, copy=True)
        if p.shape != (self.grid.n,):
            raise GridError(f"pump must have shape ({self.grid.n},), got {p.shape}")
        if not np.all(np.isfinite(p.view(np.float64))):
            raise GridError("pump values must be finite")
        object.__setattr__(self, "pump", _readonly(p))

    @cached_property
    def values(self) -> np.ndarray:
        """Dense ``n x n`` amplitude (read-only), built once on first use."""
        return _readonly(np.diag(self.pump))

    @property
    def norm_sq(self) -> float:
        """``sum |B|^2 * dx**2``."""
        return float(np.sum(np.abs(self.pump) ** 2) * self.grid.dx**2)

    def project_arm1(self, a: np.ndarray) -> np.ndarray:
        """``dx * conj(a) * pump``: the dense product without its zeros.

        Bit for bit the dense product when the pump is real (every dropped
        term is an exact zero); equal to rounding for a complex pump.
        Elementwise, so a stack of rows is projected in one product.
        """
        return self.grid.dx * (np.conj(a) * self.pump)


def _checked_values(g: TransverseGrid, v: np.ndarray) -> np.ndarray:
    """``v`` made read-only, once it is known to be a finite ``n x n`` matrix."""
    n = g.n
    if v.shape != (n, n):
        raise GridError(f"values must have shape ({n}, {n}), got {v.shape}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise GridError("biphoton values must be finite")
    return _readonly(v)


def make_biphoton_delta_correlated(
    g: TransverseGrid, kappa: float
) -> DeltaCorrelatedSource:
    """Position-correlated pair amplitude from a Gaussian pump.

    ``B[i, j] = delta_ij / dx * sqrt(pi) * exp(-x_j**2 * kappa**2 / 2)``:
    both photons are born at the same transverse point, weighted by the
    pump spot of 1/e half-width ``1/kappa`` (``kappa`` is the pump's
    transverse wavevector spread).  The discrete delta carries ``1/dx`` so
    grid sums reproduce continuum sifting.  Only the diagonal is stored.

    The spot must be resolvable and must fit the window:
    ``2*dx <= 1/kappa <= extent/2``.
    """
    if not np.isfinite(kappa) or kappa <= 0:
        raise ValueError("kappa must be positive and finite")
    width = 1.0 / kappa
    if width < 2 * g.dx - 1e-12:
        raise ValueError(
            f"pump spot width 1/kappa = {width:g} unresolvable: "
            f"minimum is 2*dx = {2 * g.dx:g}"
        )
    if width > g.extent / 2 + 1e-12:
        raise ValueError(
            f"pump spot width 1/kappa = {width:g} exceeds the window: "
            f"maximum is extent/2 = {g.extent / 2:g}"
        )
    diag = np.sqrt(np.pi) / g.dx * np.exp(-(g.x**2) * kappa**2 / 2.0)
    return DeltaCorrelatedSource(g, diag)


def condition(B: BiphotonField | DeltaCorrelatedSource, alpha3: Field) -> Field:
    """Project the pair state onto a reverse-propagated arm-1 profile.

    Returns ``beta1[j] = dx * sum_i conj(alpha3[i]) * B[i, j]``, computed
    by the source's own ``project_arm1``.  The result is intentionally not
    normalized; probabilities are normalized once, at the end of a
    pipeline.
    """
    if B.grid != alpha3.grid:
        raise GridError("biphoton field and profile live on different grids")
    return Field(B.grid, B.project_arm1(alpha3.values))
