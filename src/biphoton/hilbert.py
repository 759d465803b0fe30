"""Finite-dimensional conditional probabilities, forward and reversed.

Preparation devices emit states ``rho_i`` with prior probabilities
``P(i)``; measurement outcomes ``j`` are described by a probability
operator measure (POM) with positive elements ``Pi_j`` summing to the
identity.  :func:`predictive_conditional` gives P(j|i) by the usual trace
formula; :func:`retrodictive_conditional` gives P(i|j) directly from the
normalized POM element evolved back to the preparation time; and
:func:`bayes_invert` is the elementary-probability route connecting the
two.  The direct and Bayes routes agree exactly, which the test suite
exercises over randomized instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroOutcomeError
from .grid import _frozen

__all__ = [
    "DensityOperator",
    "PomSet",
    "Ensemble",
    "UnitaryEvolution",
    "predictive_conditional",
    "retrodictive_conditional",
    "bayes_invert",
    "random_density",
    "random_pom",
    "random_unitary",
    "random_ensemble",
]

_HERM_TOL = 1e-12
_PSD_TOL = -1e-10
_SUM_TOL = 1e-10


def _as_matrix(m, what: str) -> np.ndarray:
    """A read-only copy of ``m``, which must be square and finite."""
    a = np.array(m, dtype=np.complex128, order="C", copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return _frozen(a, a.shape, what)


def _check_hermitian_psd(a: np.ndarray, what: str) -> None:
    if np.max(np.abs(a - a.conj().T)) > _HERM_TOL * max(1.0, np.max(np.abs(a))):
        raise ValueError(f"{what} is not Hermitian")
    if np.linalg.eigvalsh(a).min() < _PSD_TOL:
        raise ValueError(f"{what} is not positive semidefinite")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.matrix, "density operator")
        _check_hermitian_psd(a, "density operator")
        if abs(np.trace(a).real - 1.0) > _SUM_TOL:
            raise ValueError("density operator must have unit trace")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PomSet:
    """Positive outcome operators summing to the identity."""

    elements: tuple

    def __post_init__(self):
        els = [_as_matrix(e, "POM element") for e in self.elements]
        if not els:
            raise ValueError("a POM needs at least one element")
        dim = els[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in els:
            if len(e) != dim:
                raise ValueError(f"dimension mismatch: expected {dim}, got {len(e)}")
            _check_hermitian_psd(e, "POM element")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > _SUM_TOL:
            raise ValueError("POM elements must sum to the identity")
        object.__setattr__(self, "elements", tuple(els))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Prepared states with their a priori probabilities."""

    priors: np.ndarray
    states: tuple

    def __post_init__(self):
        p = np.array(self.priors, dtype=np.float64, copy=True)
        _frozen(p, p.shape, "priors")
        if p.ndim != 1 or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be nonnegative and sum to 1")
        states = tuple(self.states)
        if len(states) != len(p):
            raise ValueError("one state per prior required")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise ValueError("all ensemble states must share a dimension")
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True, eq=False)
class UnitaryEvolution:
    """Unitary evolution between preparation and measurement times."""

    matrix: np.ndarray

    def __post_init__(self):
        u = _as_matrix(self.matrix, "evolution matrix")
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > _SUM_TOL:
            raise ValueError("evolution matrix is not unitary")
        object.__setattr__(self, "matrix", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def predictive_conditional(
    rho: DensityOperator, pom: PomSet, u: UnitaryEvolution
) -> np.ndarray:
    """P(j | i): outcome probabilities for one prepared state.

    ``P(j|i) = Tr(U rho U^dag Pi_j)``, clipped of sub-1e-12 negative
    round-off; the vector sums to 1.
    """
    if not rho.dim == pom.dim == u.dim:
        raise ValueError("dimension mismatch between state, POM and evolution")
    evolved = u.matrix @ rho.matrix @ u.matrix.conj().T
    p = np.array(
        [np.trace(evolved @ e).real for e in pom.elements], dtype=np.float64
    )
    if p.min() < -1e-12:
        raise ValueError("trace formula produced a significantly negative value")
    return np.clip(p, 0.0, 1.0)


def retrodictive_conditional(
    ens: Ensemble, pom: PomSet, j: int, u: UnitaryEvolution
) -> np.ndarray:
    """P(i | j): preparation probabilities given measurement outcome j.

    The outcome's normalized POM element ``Pi_j / Tr Pi_j`` is evolved
    back to the preparation time and traced against each weighted
    preparation; a zero denominator means the outcome is unattainable and
    raises :class:`ZeroOutcomeError`.
    """
    if not ens.dim == pom.dim == u.dim:
        raise ValueError("dimension mismatch between ensemble, POM and evolution")
    if not 0 <= j < len(pom):
        raise ValueError(f"outcome index {j} out of range")
    pi = pom.elements[j]
    tr = np.trace(pi).real
    if tr <= 0:
        raise ZeroOutcomeError(f"POM element {j} has zero trace")
    rho_retr = u.matrix.conj().T @ (pi / tr) @ u.matrix
    w = np.array(
        [
            p * np.trace(s.matrix @ rho_retr).real
            for p, s in zip(ens.priors, ens.states)
        ],
        dtype=np.float64,
    )
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total < 1e-300:
        raise ZeroOutcomeError(
            f"outcome {j} has zero probability under every preparation"
        )
    return w / total


def bayes_invert(priors, forward: np.ndarray) -> np.ndarray:
    """Invert a forward conditional-probability matrix.

    ``forward[j, i] = P(j|i)``; returns ``back[i, j] = P(i|j) =
    P(i) P(j|i) / sum_k P(k) P(j|k)``.  Columns of the result sum to 1.
    Outcomes with zero total probability raise :class:`ZeroOutcomeError`.
    """
    p = np.asarray(priors, dtype=np.float64)
    fwd = np.asarray(forward, dtype=np.float64)
    if fwd.ndim != 2 or fwd.shape[1] != p.shape[0]:
        raise ValueError("forward matrix must be (outcomes, preparations)")
    joint = fwd * p[None, :]
    totals = joint.sum(axis=1)
    dead = np.nonzero(totals < 1e-300)[0]
    if dead.size:
        raise ZeroOutcomeError(
            f"outcome(s) {dead.tolist()} have zero probability"
        )
    return (joint / totals[:, None]).T


# ---------------------------------------------------------------------------
# randomized instances for the equivalence suite


def random_unitary(dim: int, rng: np.random.Generator) -> UnitaryEvolution:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryEvolution(q)


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Normalized Wishart-style positive matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = z @ z.conj().T
    return DensityOperator(w / np.trace(w).real)


def random_pom(dim: int, outcomes: int, rng: np.random.Generator) -> PomSet:
    """Projectors of a Haar-random unitary, coarse-grained into groups."""
    if not 1 <= outcomes <= dim:
        raise ValueError("need 1 <= outcomes <= dim")
    u = random_unitary(dim, rng).matrix
    groups = np.sort(rng.integers(0, outcomes, size=dim))
    groups[: outcomes] = np.arange(outcomes)  # every outcome nonempty
    els = []
    for jout in range(outcomes):
        cols = u[:, groups == jout]
        els.append(cols @ cols.conj().T)
    return PomSet(tuple(els))


def random_ensemble(dim: int, members: int, rng: np.random.Generator) -> Ensemble:
    p = rng.random(members) + 0.1
    p /= p.sum()
    return Ensemble(p, tuple(random_density(dim, rng) for _ in range(members)))
