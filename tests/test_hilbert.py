"""Finite-dimensional conditionals against a direct trace oracle."""

import numpy as np
import pytest

from biphoton import ZeroOutcomeError
from biphoton.hilbert import (
    DensityOperator,
    Ensemble,
    PomSet,
    UnitaryEvolution,
    bayes_invert,
    predictive_conditional,
    random_density,
    random_ensemble,
    random_pom,
    random_unitary,
    retrodictive_conditional,
)


def direct_trace_probability(rho, pi, u):
    """Element-wise O(d^3) evaluation of Tr(U rho U^dag Pi)."""
    d = rho.shape[0]
    evolved = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    evolved[a, b] += u[a, c] * rho[c, e] * np.conj(u[b, e])
    tr = 0.0 + 0.0j
    for a in range(d):
        for b in range(d):
            tr += evolved[a, b] * pi[b, a]
    return tr.real


def identity_evolution(dim):
    return UnitaryEvolution(np.eye(dim))


def identity_density(dim):
    return DensityOperator(np.eye(dim) / dim)


def basis_pom(dim):
    return PomSet(
        tuple(np.outer(e, e.conj()) for e in np.eye(dim, dtype=complex))
    )


class TestTypes:
    def test_density_operator_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not hermitian
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))  # not PSD
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.7, 0.7]))  # trace != 1

    def test_pom_validation(self):
        ok = basis_pom(3)
        assert len(ok) == 3
        with pytest.raises(ValueError, match="identity"):
            PomSet((np.eye(2) * 0.5,))

    def test_ensemble_validation(self):
        states = (random_density(2, np.random.default_rng(0)),)
        with pytest.raises(ValueError):
            Ensemble(np.array([0.4, 0.4]), states)

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            UnitaryEvolution(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda b: DensityOperator(np.diag([1.0, b])),
        lambda b: PomSet((np.diag([1.0, 0.0]), np.diag([0.0, b]))),
        lambda b: Ensemble(
            np.array([1.0, b]), (identity_density(2), identity_density(2))
        ),
        lambda b: UnitaryEvolution(np.diag([1.0, b])),
    ],
    ids=["DensityOperator", "PomSet", "Ensemble", "UnitaryEvolution"],
)
def test_non_finite_values_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


class TestPredictiveConditional:
    def test_projective_same_basis(self):
        rho = DensityOperator(np.diag([1.0, 0.0, 0.0]).astype(complex))
        p = predictive_conditional(rho, basis_pom(3), identity_evolution(3))
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-14)

    def test_trivial_pom_gives_certainty(self, rng):
        rho = random_density(4, rng)
        pom = PomSet((np.eye(4, dtype=complex),))
        p = predictive_conditional(rho, pom, identity_evolution(4))
        np.testing.assert_allclose(p, [1.0], atol=1e-12)

    def test_matches_direct_trace_oracle(self, rng):
        dim = 3
        rho = random_density(dim, rng)
        pom = random_pom(dim, 3, rng)
        u = random_unitary(dim, rng)
        p = predictive_conditional(rho, pom, u)
        ref = [
            direct_trace_probability(rho.matrix, pi, u.matrix)
            for pi in pom.elements
        ]
        np.testing.assert_allclose(p, ref, atol=1e-12)
        assert abs(p.sum() - 1.0) <= 1e-10

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            predictive_conditional(
                random_density(2, rng), basis_pom(3), identity_evolution(3)
            )


class TestRetrodictiveConditional:
    def test_orthonormal_projective_identity_case(self):
        dim = 3
        states = tuple(
            DensityOperator(np.outer(e, e.conj()))
            for e in np.eye(dim, dtype=complex)
        )
        ens = Ensemble(np.full(dim, 1 / dim), states)
        for j in range(dim):
            p = retrodictive_conditional(ens, basis_pom(dim), j, identity_evolution(dim))
            np.testing.assert_allclose(p, np.eye(dim)[j], atol=1e-12)

    def test_single_state_ensemble(self, rng):
        ens = Ensemble(np.array([1.0]), (random_density(3, rng),))
        p = retrodictive_conditional(ens, basis_pom(3), 1, identity_evolution(3))
        np.testing.assert_allclose(p, [1.0], atol=1e-12)

    def test_matches_bayes_route(self, rng):
        dim = 4
        ens = random_ensemble(dim, 3, rng)
        pom = random_pom(dim, 4, rng)
        u = random_unitary(dim, rng)
        fwd = np.stack(
            [predictive_conditional(s, pom, u) for s in ens.states], axis=1
        )
        back = bayes_invert(ens.priors, fwd)
        for j in range(4):
            direct = retrodictive_conditional(ens, pom, j, u)
            np.testing.assert_allclose(direct, back[:, j], atol=1e-12)

    def test_pom_scaling_cancels(self, rng):
        # scaling an outcome operator must not change P(i|j) for it, so the
        # comparison uses a non-normalized "POM" assembled by hand
        dim = 3
        ens = random_ensemble(dim, 3, rng)
        u = random_unitary(dim, rng)
        pom = random_pom(dim, 3, rng)
        base = retrodictive_conditional(ens, pom, 0, u)

        scaled_el = 0.3 * pom.elements[0]
        rest = np.eye(dim) - scaled_el
        scaled = PomSet((scaled_el, rest))
        p = retrodictive_conditional(ens, scaled, 0, u)
        np.testing.assert_allclose(p, base, atol=1e-12)

    def test_impossible_outcome_raises(self):
        dim = 2
        ens = Ensemble(
            np.array([1.0]),
            (DensityOperator(np.diag([1.0, 0.0]).astype(complex)),),
        )
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ZeroOutcomeError):
            retrodictive_conditional(
                ens, PomSet((p0, p1)), 1, identity_evolution(dim)
            )


class TestBayesInvert:
    def test_permutation_forward(self):
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        back = bayes_invert(np.full(3, 1 / 3), perm)
        np.testing.assert_allclose(back, perm.T, atol=1e-15)

    def test_uninformative_forward_returns_priors(self):
        priors = np.array([0.2, 0.3, 0.5])
        fwd = np.full((4, 3), 0.25)
        back = bayes_invert(priors, fwd)
        for j in range(4):
            np.testing.assert_allclose(back[:, j], priors, atol=1e-14)

    def test_columns_normalized(self, rng):
        fwd = rng.random((5, 5))
        fwd /= fwd.sum(axis=0, keepdims=True)
        priors = rng.random(5)
        priors /= priors.sum()
        back = bayes_invert(priors, fwd)
        np.testing.assert_allclose(back.sum(axis=0), np.ones(5), atol=1e-12)

    def test_dead_outcome_raises(self):
        priors = np.array([1.0, 0.0])
        fwd = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroOutcomeError):
            bayes_invert(priors, fwd)


class TestEquivalenceSweep:
    def test_relabeling_permutes_rows(self, rng):
        dim = 3
        ens = random_ensemble(dim, 3, rng)
        pom = random_pom(dim, 3, rng)
        u = random_unitary(dim, rng)
        base = retrodictive_conditional(ens, pom, 1, u)
        perm = [2, 0, 1]
        ens2 = Ensemble(
            ens.priors[perm], tuple(ens.states[i] for i in perm)
        )
        permuted = retrodictive_conditional(ens2, pom, 1, u)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-14)

    def test_seeded_random_instances(self):
        rng = np.random.default_rng(20240811)
        worst = 0.0
        for _ in range(120):
            dim = int(rng.integers(2, 7))
            ens = random_ensemble(dim, int(rng.integers(2, dim + 2)), rng)
            pom = random_pom(dim, int(rng.integers(2, dim + 1)), rng)
            u = random_unitary(dim, rng)
            fwd = np.stack(
                [predictive_conditional(s, pom, u) for s in ens.states], axis=1
            )
            back = bayes_invert(ens.priors, fwd)
            for j in range(len(pom)):
                direct = retrodictive_conditional(ens, pom, j, u)
                worst = max(worst, float(np.max(np.abs(direct - back[:, j]))))
        assert worst <= 1e-12
