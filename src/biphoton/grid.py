"""Sampled transverse coordinate system and the transforms built on it.

All fields in the simulator live on a :class:`TransverseGrid`: a uniformly
sampled, periodic window of ``n`` points spanning a length ``extent``.  The
position samples are centred on zero, ``x_i = (i - n/2) * dx``, and the
conjugate wavevector samples follow the FFT-natural ordering
``k = 2*pi*fftfreq(n, dx)``, so that ``dx * dk * n == 2*pi`` exactly.

Two discrete transform pairs are exposed:

* :func:`dft` / :func:`idft` -- the unitary pair with kernel
  ``exp(-i k x) / sqrt(n)``.  These preserve the unweighted 2-norm of the
  sample vector and therefore the ``dx``-weighted norm as well.
* :func:`scaled_dft` / :func:`scaled_idft` -- the physically scaled pair
  approximating the continuum convention
  ``g(k) = (2*pi)**-0.5 * integral f(x) exp(-i k x) dx``,
  i.e. ``g = dx/sqrt(2*pi) * sum f exp(-i k x)``.  These satisfy Parseval in
  the measure-weighted form ``sum |f|^2 dx == sum |g|^2 dk``.

Wavevector-space sample vectors are stored in FFT order (matching
``TransverseGrid.k``); use :func:`spectrum` for a monotone-k view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = [
    "TransverseGrid",
    "Field",
    "make_grid",
    "dft",
    "idft",
    "scaled_dft",
    "scaled_idft",
    "convolve",
    "spectrum",
    "edge_energy_fraction",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _unchecked(cls, **fields):
    """An instance of frozen dataclass ``cls`` holding ``fields`` as given.

    Skips ``__post_init__``: no copy and no validation.  For read-only rows
    of a stack that its owner has already checked once.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform 1-D transverse sampling window shared by all fields.

    Parameters
    ----------
    n : int
        Number of samples; must be a power of two, at least 8.
    extent : float
        Physical window length L (dimensionless units).
    """

    n: int
    extent: float

    def __post_init__(self):
        n, extent = self.n, self.extent
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got {n!r}")
        if not np.isfinite(extent) or extent <= 0:
            raise GridError(f"extent must be positive and finite, got {extent!r}")
        dx = extent / n
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dk", 2.0 * np.pi / extent)
        object.__setattr__(self, "x", _readonly((np.arange(n) - n // 2) * dx))
        object.__setattr__(
            self, "k", _readonly(2.0 * np.pi * np.fft.fftfreq(n, d=dx))
        )

    # populated in __post_init__; excluded from equality so grids compare
    # by (n, extent) alone
    dx: float = field(init=False, repr=False, compare=False, default=0.0)
    dk: float = field(init=False, repr=False, compare=False, default=0.0)
    x: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    k: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    @property
    def k_monotone(self) -> np.ndarray:
        """Wavevector samples in increasing order."""
        return np.fft.fftshift(self.k)

    def index_of(self, position: float) -> int:
        """Index of the grid point nearest to ``position``."""
        i = int(np.rint(position / self.dx)) + self.n // 2
        if not 0 <= i < self.n:
            raise GridError(f"position {position!r} lies outside the window")
        return i


@dataclass(frozen=True, eq=False)
class Field:
    """Complex one-photon transverse amplitude sampled on a grid.

    ``values[i]`` is the amplitude at ``grid.x[i]`` for position-space
    fields, or at ``grid.k[i]`` for wavevector-space sample vectors
    produced by the transforms below.  Instances are immutable; the value
    array is marked read-only.
    """

    grid: TransverseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, copy=True)
        if v.shape != (self.grid.n,):
            raise GridError(
                f"values must have shape ({self.grid.n},), got {v.shape}"
            )
        if not np.all(np.isfinite(v.view(np.float64))):
            raise GridError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def norm_sq(self) -> float:
        """``sum |values|^2 * dx``."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)


def make_grid(n: int, extent: float) -> TransverseGrid:
    """Construct a :class:`TransverseGrid`, validating the invariants."""
    return TransverseGrid(n=n, extent=extent)


def _require_same_grid(a: Field, b: Field) -> TransverseGrid:
    if a.grid != b.grid:
        raise GridError("fields live on different grids")
    return a.grid


# Centred unitary DFT machinery.  ifftshift rotates the sample at x = 0 to
# index 0, so the plain FFT evaluates sum f(x) exp(-i k x) exactly for the
# centred x array and FFT-ordered k array.  Both act on the last axis, so
# an (m, n) stack of rows transforms row by row.
def _dft_values(v: np.ndarray) -> np.ndarray:
    n = v.shape[-1]
    return np.fft.fft(np.fft.ifftshift(v, axes=-1)) / np.sqrt(n)


def _idft_values(v: np.ndarray) -> np.ndarray:
    n = v.shape[-1]
    return np.fft.fftshift(np.fft.ifft(v), axes=-1) * np.sqrt(n)


def dft(f: Field) -> Field:
    """Unitary transform to wavevector space (kernel ``e^{-ikx}/sqrt(n)``)."""
    return Field(f.grid, _dft_values(f.values))


def idft(g: Field) -> Field:
    """Inverse of :func:`dft`."""
    return Field(g.grid, _idft_values(g.values))


def scaled_dft(f: Field) -> Field:
    """Physically scaled transform, ``dx/sqrt(2*pi) * sum f e^{-ikx}``."""
    g = f.grid
    scale = g.dx * np.sqrt(g.n / (2.0 * np.pi))
    return Field(g, _dft_values(f.values) * scale)


def scaled_idft(g: Field) -> Field:
    """Inverse of :func:`scaled_dft`, ``dk/sqrt(2*pi) * sum g e^{+ikx}``."""
    gr = g.grid
    scale = gr.dk * np.sqrt(gr.n / (2.0 * np.pi))
    return Field(gr, _idft_values(g.values) * scale)


def spectrum(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Physically scaled spectrum as ``(k_monotone, values)`` arrays."""
    return f.grid.k_monotone, np.fft.fftshift(scaled_dft(f).values)


def convolve(f: Field, kernel: Field) -> Field:
    """``dx``-weighted circular convolution of two fields.

    Discretizes ``(f * h)(x) = integral f(x') h(x - x') dx'`` as
    ``dx * sum_i f(x_i) h(x - x_i)`` with periodic wraparound, evaluated
    through the transform pair.
    """
    g = _require_same_grid(f, kernel)
    fk = _dft_values(f.values)
    hk = _dft_values(kernel.values)
    out = _idft_values(fk * hk) * (g.dx * np.sqrt(g.n))
    return Field(g, out)


def edge_energy_fraction(f: Field) -> float:
    """Fraction of ``|f|^2`` in the outer 10% of the window.

    The outer region is ``|x| >= 0.45 * extent`` (5% at each end).  Periodic
    wraparound corrupts the physics once significant amplitude reaches it;
    scenario code treats large values as an error.
    """
    return float(_edge_fractions(f.grid, np.abs(f.values) ** 2))


def _edge_fractions(g: TransverseGrid, p: np.ndarray) -> np.ndarray:
    """:func:`edge_energy_fraction` of each row of ``p = |values|**2``.

    One reduction over an (m, n) stack.  Each row is summed as one
    contiguous run, as a single row would be, so the fractions are
    bit-equal (``p[:, mask]`` is not C-ordered and would sum differently).
    """
    total = p.sum(axis=-1)
    outer = np.compress(np.abs(g.x) >= 0.45 * g.extent, p, axis=-1).sum(axis=-1)
    return np.divide(outer, total, out=np.zeros_like(total), where=total != 0.0)
