"""Optical elements with forward (time-forward) and backward actions.

Every element acts linearly on a :class:`~biphoton.grid.Field`.  The
*forward* action is the physical photon-order evolution; the *backward*
action is the reverse traversal used when a detected state is followed
back through the apparatus.  For the unitary elements the backward action
is the operator adjoint of the forward one.  The mask is the deliberate
exception: both directions multiply by ``t(x)`` and the single complex
conjugation of the whole arm profile is applied later, at the conditioning
step (see :func:`biphoton.source.condition`), so the conjugated transfer
function emerges there rather than being inserted per element.

Conventions
-----------
* ``Propagate(z, k_z)`` multiplies the wavevector representation by
  ``exp(-1j * k**2 * z / k_z)`` going forward and by the conjugate phase
  going backward.  The textbook Fresnel phase at wavenumber ``k0``,
  ``exp(-1j * k**2 * z / (2*k0))``, is ``Propagate(z, 2*k0)`` bit for bit:
  doubling ``k_z`` and halving ``z`` are the same exact power-of-two
  scaling.  The constant phase ``exp(1j*z*k_z)`` is dropped everywhere: it
  cancels in every modulus and every normalized conditional.
* ``FourierLens`` maps wavevector content onto the transverse axis: its
  forward action is the unitary transform with kernel ``exp(+1j*k*x)``
  (the centred inverse-DFT machinery applied to the sample vector), and
  its backward action is the inverse of that.  On a self-conjugate window
  (``extent**2 == 2*pi*n``, so ``dk == dx``) the lens is an exact
  unit-scale Fourier transformer.
* A ``FourierLens`` adjacent to a ``Propagate`` in a chain composes with
  it into the closed focal-plane map: the propagation supplies the
  spectral phase and the lens supplies the return to the transverse axis.
  Chain application fuses such pairs (in either order) into a single
  spectral-phase propagation, which reproduces the analytic focal-plane
  profile of a Gaussian detector exactly.  A lone ``FourierLens`` keeps
  its standalone transform action.
* A compiled op (see :func:`compile_chain`) is ``op.forward(v, g)`` /
  ``op.backward(v, g)`` and acts on the last axis of ``v``: one sample
  vector of shape ``(n,)`` or an ``(m, n)`` stack of rows, each row
  transformed on its own.  A caller that holds its vectors as columns
  transposes first (the forward oracle does this for arm 1).  A ``Mask``
  or a ``QuadraticPhase`` is its own op; only propagations and lenses,
  whose action depends on a neighbour, compile to separate op objects.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import GridError, SamplingGuardError
from .grid import Field, TransverseGrid, _dft_values, _idft_values

__all__ = [
    "Propagate",
    "FourierLens",
    "QuadraticPhase",
    "Mask",
    "DetectorProfile",
    "materialize_detector",
    "apply_forward",
    "apply_backward",
    "apply_chain_forward",
    "apply_chain_backward",
    "compile_chain",
]


@dataclass(frozen=True)
class Propagate:
    """Free propagation over a distance ``z`` at axial wavevector ``k_z``."""

    z: float
    k_z: float

    def __post_init__(self):
        if not np.isfinite(self.z):
            raise ValueError("propagation distance must be finite")
        if not np.isfinite(self.k_z) or self.k_z <= 0:
            raise ValueError("k_z must be positive and finite")


@dataclass(frozen=True)
class FourierLens:
    """Ideal lens in a focal-plane arrangement: exact Fourier transformer."""


@dataclass(frozen=True)
class QuadraticPhase:
    """Thin lens ``exp(-1j * k_z * x**2 / (4*f))``, ``k_z = 2*k0`` as in
    :class:`Propagate`: a lens then ``Propagate(z, k_z)`` focuses at ``z = f``."""

    f: float
    k_z: float

    def __post_init__(self):
        if not np.isfinite(self.f) or self.f == 0:
            raise ValueError("focal length must be nonzero and finite")
        if not np.isfinite(self.k_z) or self.k_z <= 0:
            raise ValueError("k_z must be positive and finite")

    def _chirp(self, g: TransverseGrid):
        return np.exp(-1j * self.k_z * g.x**2 / (4.0 * self.f))

    def forward(self, v, g: TransverseGrid):
        return self._chirp(g) * v

    def backward(self, v, g: TransverseGrid):
        return np.conj(self._chirp(g)) * v


@dataclass(frozen=True, eq=False)
class Mask:
    """Complex transfer function ``t(x)`` with ``|t| <= 1`` everywhere."""

    t: Field

    def __post_init__(self):
        if np.max(np.abs(self.t.values)) > 1.0 + 1e-12:
            raise ValueError("mask transfer function must satisfy |t| <= 1")

    def forward(self, v, g: TransverseGrid):
        if self.t.grid != g:
            raise GridError("mask is sampled on a different grid")
        return self.t.values * v

    # deliberately not conjugated: the conditioning step conjugates the
    # whole arm profile once
    backward = forward


# size: the DetectorProfile field that sets the width, if any; rows(size, g, c):
# the unnormalized (m, n) profiles centred on the (m, 1) column c
_DetectorShape = namedtuple("_DetectorShape", "size rows")
DETECTOR_SHAPES = {
    "gaussian": _DetectorShape(
        "sigma",
        lambda s, g, c: (1.0 / (np.pi * s**2)) ** 0.25
        * np.exp(-((g.x - c) ** 2) / (2.0 * s**2)),
    ),
    "tophat": _DetectorShape("width", lambda s, g, c: np.abs(g.x - c) < s / 2.0),
    # the grid-native delta: one sample at the nearest grid point
    "point": _DetectorShape(
        None,
        lambda s, g, c: np.arange(g.n)
        == np.intp([g.index_of(p) for p in c[:, 0].tolist()])[:, None],
    ),
}


@dataclass(frozen=True)
class DetectorProfile:
    """Detector resolution function: Gaussian, top-hat, or single point.

    ``shape`` is one of ``"gaussian"`` (width ``sigma``), ``"tophat"``
    (full width ``width``) or ``"point"``; ``center`` is the nominal
    detection position x1.  A size parameter that the shape does not use is
    ignored, but must be finite or ``None``.
    """

    shape: str
    center: float = 0.0
    sigma: float | None = None
    width: float | None = None

    def __post_init__(self):
        if self.shape not in DETECTOR_SHAPES:
            raise ValueError(f"unknown detector shape {self.shape!r}")
        for name in ("center", "sigma", "width"):
            v = getattr(self, name)
            if not (math.isfinite(v) if v is not None else name != "center"):
                raise ValueError(f"detector {name} must be finite, got {v!r}")
        size = DETECTOR_SHAPES[self.shape].size
        if size and (getattr(self, size) is None or getattr(self, size) <= 0):
            raise ValueError(f"{self.shape} detector needs {size} > 0")


def materialize_detector(d: DetectorProfile, g: TransverseGrid) -> Field:
    """Sample a detector profile on the grid as an L2-normalized field.

    The shape's ``DETECTOR_SHAPES`` rows, renormalized numerically so that
    ``sum |a|^2 dx == 1`` holds exactly even when the window clips the
    tails; a point detector is one sample of height ``1/sqrt(dx)``.
    """
    return Field(g, _detector_rows(d, g, [d.center])[0])


def _detector_rows(d: DetectorProfile, g: TransverseGrid, centres) -> np.ndarray:
    """Row ``i``: :func:`materialize_detector` of ``d`` moved to ``centres[i]``."""
    c = np.asarray(centres, dtype=np.float64).reshape(-1, 1)
    shape = DETECTOR_SHAPES[d.shape]
    size = getattr(d, shape.size) if shape.size else None
    if shape.size and size < 2 * g.dx:
        raise ValueError(
            f"{d.shape} detector {shape.size}={size:g} unresolvable: "
            f"minimum is 2*dx = {2 * g.dx:g}; raise detector.{shape.size}, or "
            f"grid.n at fixed grid.extent"
        )
    v = shape.rows(size, g, c).astype(np.complex128)
    norm = np.sqrt(np.sum(np.abs(v) ** 2, axis=1, keepdims=True) * g.dx)
    if not np.all(norm > 0):
        raise ValueError(f"{d.shape} detector covers no grid point")
    return np.divide(v, norm, out=v)


# ---------------------------------------------------------------------------
# compiled per-element operations


def _guard_propagation(e: Propagate, g: TransverseGrid) -> None:
    """Reject propagation whose quadratic phase is undersampled.

    The guard bounds the mean change of the quadratic phase per wavevector
    sample across the band: ``k_max**2 * |z| / (k_z * n) < pi`` with
    ``k_max = pi/dx``.  At fixed sample spacing the bound improves with n
    (a wider window); at fixed extent it gets worse (finer sampling raises
    ``k_max``).  The error therefore names the minimum ``grid.n`` together
    with the ``grid.extent`` that keeps the spacing.
    """
    k_max = np.pi / g.dx
    q = k_max**2 * abs(e.z) / (e.k_z * g.n)
    if q >= np.pi:
        n_min = int(np.ceil(k_max**2 * abs(e.z) / (e.k_z * np.pi)))
        required = 1 << max(3, int(np.ceil(np.log2(n_min))))
        raise SamplingGuardError(
            f"propagation over z={e.z:g} is undersampled on n={g.n} "
            f"(mean quadratic-phase step {q:.3g} rad >= pi); set grid.n >= "
            f"{required} and scale grid.extent with it to keep "
            f"grid.extent / grid.n = {g.dx:g} (e.g. grid.n = {required}, "
            f"grid.extent = {required * g.dx:g}); raising grid.n at fixed "
            f"grid.extent makes this worse",
            required_n=required,
        )


class _SpectralPhaseOp:
    """Propagation applied as a phase in wavevector space (closed form).

    Also represents a fused propagation + lens pair: the closed map is the
    same spectral phase, with the lens contributing the return leg of the
    transform.
    """

    def __init__(self, element: Propagate):
        self.element = element

    def _propagate(self, v, g: TransverseGrid, sign: float):
        e = self.element
        if e.z == 0.0:
            return v.copy()
        _guard_propagation(e, g)
        ph = np.exp(sign * -1j * g.k**2 * e.z / e.k_z)
        return _idft_values(ph * _dft_values(v))

    def forward(self, v, g):
        return self._propagate(v, g, +1.0)

    def backward(self, v, g):
        return self._propagate(v, g, -1.0)


class _LensOp:
    """Standalone Fourier lens: unitary k-content -> position transform."""

    def forward(self, v, g):
        return _idft_values(np.fft.ifftshift(v, axes=-1))

    def backward(self, v, g):
        return np.fft.fftshift(_dft_values(v), axes=-1)


def compile_chain(elements) -> list:
    """Compile an element sequence into ops, fusing lens/propagation pairs.

    A ``Mask`` or a ``QuadraticPhase`` is its own op, returned as given.
    Adjacent ``{Propagate, FourierLens}`` pairs (in either order) merge
    into one spectral-phase propagation; the scan is greedy left to right.
    An alternating run that starts and ends with a lens (``L P L``, ...)
    is rejected: which lens a propagation fuses with would depend on the
    traversal direction, so the two routes would compute different maps.
    """
    ops = []
    es = list(elements)
    i = 0
    while i < len(es):
        prev, e = es[i - 1] if i else None, es[i]
        nxt = es[i + 1] if i + 1 < len(es) else None
        i += 1
        if isinstance(e, Propagate) and isinstance(nxt, FourierLens):
            ops.append(_SpectralPhaseOp(e))
            i += 1
        elif isinstance(e, FourierLens) and isinstance(nxt, Propagate):
            ops.append(_SpectralPhaseOp(nxt))
            i += 1
        elif isinstance(e, Propagate):
            ops.append(_SpectralPhaseOp(e))
        elif isinstance(e, FourierLens):
            if isinstance(prev, Propagate):  # prev fused with the lens before it
                raise ValueError(
                    f"ambiguous lens chain {es[i - 3:i]}: the propagation "
                    f"could fuse with either lens; give the lens/propagation "
                    f"run an even length"
                )
            ops.append(_LensOp())
        elif isinstance(e, (QuadraticPhase, Mask)):
            ops.append(e)
        else:
            raise TypeError(f"unknown element {e!r}")
    return ops


def apply_forward(e, f: Field) -> Field:
    """Apply one element in the physical (time-forward) direction."""
    return apply_chain_forward((e,), f)


def apply_backward(e, f: Field) -> Field:
    """Apply one element in the reverse-traversal direction.

    For the unitary elements this is the adjoint of :func:`apply_forward`;
    for :class:`Mask` it is the same multiplication by ``t(x)`` (the
    conditioning step conjugates the whole arm profile once).
    """
    return apply_chain_backward((e,), f)


def apply_chain_forward(elements, f: Field) -> Field:
    """Left-to-right forward composition (first element acts first)."""
    v = f.values
    for op in compile_chain(elements):
        v = op.forward(v, f.grid)
    return Field(f.grid, v)


def apply_chain_backward(elements, f: Field) -> Field:
    """Reverse traversal of a forward-ordered chain.

    Applies the per-element backward actions in reversed order, i.e. the
    adjoint of :func:`apply_chain_forward` up to the mask's deliberate
    unconjugated backward action.
    """
    v = f.values
    for op in reversed(compile_chain(elements)):
        v = op.backward(v, f.grid)
    return Field(f.grid, v)
