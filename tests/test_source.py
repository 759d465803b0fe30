"""Pair-source construction and conditioning against brute-force sums."""

import tracemalloc

import numpy as np
import pytest

from biphoton import (
    BiphotonField,
    DeltaCorrelatedSource,
    Field,
    GridError,
    condition,
    make_biphoton_delta_correlated,
    make_grid,
    run_retrodictive,
)
from biphoton.cli import build_setup, parse_config
from conftest import random_field


def direct_condition(B, alpha3, dx):
    """O(n^2) double loop for beta1[j] = dx * sum_i conj(a[i]) B[i, j]."""
    n = B.shape[0]
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0.0 + 0.0j
        for i in range(n):
            acc += np.conj(alpha3[i]) * B[i, j]
        out[j] = dx * acc
    return out


def direct_2d_transform(B, x, k_samples, dx):
    """Brute-force 2-D scaled transform on a coarse wavevector set."""
    out = np.zeros((len(k_samples), len(k_samples)), dtype=complex)
    for a, ka in enumerate(k_samples):
        ea = np.exp(-1j * ka * x)
        for b, kb in enumerate(k_samples):
            eb = np.exp(-1j * kb * x)
            out[a, b] = dx**2 / (2 * np.pi) * (ea @ B @ eb)
    return out


class TestMakeBiphoton:
    def test_diagonal_and_symmetric(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=1.0)
        v = B.values
        assert np.all(v[~np.eye(grid16.n, dtype=bool)] == 0)
        np.testing.assert_array_equal(v, v.T)

    def test_central_diagonal_value(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=1.0)
        i0 = grid16.n // 2
        assert B.values[i0, i0] == pytest.approx(np.sqrt(np.pi) / grid16.dx)

    def test_resolution_bounds_reported(self):
        g = make_grid(64, 16.0)  # dx = 0.25
        with pytest.raises(ValueError, match="minimum"):
            make_biphoton_delta_correlated(g, kappa=8.0)  # width 0.125 < 2 dx
        with pytest.raises(ValueError, match="maximum"):
            make_biphoton_delta_correlated(g, kappa=0.1)  # width 10 > L/2
        with pytest.raises(ValueError):
            make_biphoton_delta_correlated(g, kappa=-1.0)

    def test_2d_transform_matches_closed_form(self):
        # pair spectrum concentrates on the k + k' diagonal with the pump's
        # wavevector spread; checked by direct double summation
        g = make_grid(256, 16.0)
        kappa = 2.0
        B = make_biphoton_delta_correlated(g, kappa=kappa)
        ks = np.linspace(-8.0, 8.0, 21)
        got = direct_2d_transform(B.values, g.x, ks, g.dx)
        ka, kb = np.meshgrid(ks, ks, indexing="ij")
        ref = np.sqrt(1 / (2 * kappa**2)) * np.exp(-((ka + kb) ** 2) / (2 * kappa**2))
        assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


class TestCondition:
    def test_matches_direct_double_sum(self, rng):
        g = make_grid(128, 16.0)
        B = BiphotonField(
            g, rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
        )
        a = random_field(g, rng)
        ref = direct_condition(B.values, a.values, g.dx)
        out = condition(B, a)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_diagonal_source_sifts_conjugate_profile(self, grid16, rng):
        kappa = 1.0
        B = make_biphoton_delta_correlated(grid16, kappa=kappa)
        a = random_field(grid16, rng)
        out = condition(B, a)
        ref = np.sqrt(np.pi) * np.conj(a.values) * np.exp(-grid16.x**2 * kappa**2 / 2)
        np.testing.assert_allclose(out.values, ref, atol=1e-12 * np.max(np.abs(ref)))

    def test_point_profile_picks_conjugated_row(self, grid16):
        rng = np.random.default_rng(7)
        B = BiphotonField(
            grid16,
            rng.standard_normal((grid16.n, grid16.n))
            + 1j * rng.standard_normal((grid16.n, grid16.n)),
        )
        i0 = grid16.n // 2 + 5
        spike = np.zeros(grid16.n, dtype=complex)
        spike[i0] = np.exp(1j * 0.7) / np.sqrt(grid16.dx)  # complex point profile
        out = condition(B, Field(grid16, spike))
        ref = grid16.dx * np.conj(spike[i0]) * B.values[i0]
        np.testing.assert_allclose(out.values, ref, atol=1e-13 * np.max(np.abs(ref)))

    def test_antilinear_in_profile_linear_in_source(self, grid16, rng):
        B = BiphotonField(
            grid16,
            rng.standard_normal((grid16.n, grid16.n))
            + 1j * rng.standard_normal((grid16.n, grid16.n)),
        )
        a = random_field(grid16, rng)
        c = 0.3 - 1.7j
        scaled_profile = condition(B, Field(grid16, c * a.values))
        np.testing.assert_allclose(
            scaled_profile.values,
            np.conj(c) * condition(B, a).values,
            atol=1e-12 * np.max(np.abs(scaled_profile.values)),
        )
        scaled_source = condition(BiphotonField(grid16, c * B.values), a)
        np.testing.assert_allclose(
            scaled_source.values,
            c * condition(B, a).values,
            atol=1e-12 * np.max(np.abs(scaled_source.values)),
        )

    def test_grid_mismatch_rejected(self, grid16):
        other = make_grid(64, 16.0)
        B = make_biphoton_delta_correlated(grid16, kappa=1.0)
        with pytest.raises(GridError):
            condition(B, Field(other, np.ones(other.n)))

    def test_result_not_normalized(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=1.0)
        a = Field(grid16, np.full(grid16.n, 0.01))
        out = condition(B, a)
        assert abs(out.norm_sq - 1.0) > 0.1


def dense_condition(B, a):
    """The dense vector-matrix product every source must reproduce."""
    return B.grid.dx * (np.conj(a.values) @ B.values)


class TestDeltaCorrelatedStorage:
    @pytest.mark.parametrize("n", [64, 512, 2048])
    def test_condition_byte_equal_to_dense_product(self, n):
        rng = np.random.default_rng(n)
        g = make_grid(n, n / 32)
        sources = [
            make_biphoton_delta_correlated(g, kappa=1.0),
            DeltaCorrelatedSource(g, rng.standard_normal(n)),  # real, mixed sign
        ]
        for B in sources:
            for _ in range(3):
                a = random_field(g, rng)
                got = condition(B, a).values
                assert got.tobytes() == dense_condition(B, a).tobytes()

    def test_complex_pump_matches_dense_product_to_rounding(self, grid16, rng):
        # a complex pump changes the order of the rounding steps (the BLAS
        # product may fuse them), so agreement is to rounding, not bitwise
        n = grid16.n
        B = DeltaCorrelatedSource(
            grid16, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        a = random_field(grid16, rng)
        ref = dense_condition(B, a)
        got = condition(B, a).values
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_values_read_only_diagonal_of_pump(self, grid16, rng):
        n = grid16.n
        pump = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B = DeltaCorrelatedSource(grid16, pump)
        v = B.values
        assert v.dtype == np.complex128 and v.shape == (n, n)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0
        assert v.tobytes() == np.diag(pump.astype(np.complex128)).tobytes()
        assert np.count_nonzero(v) == np.count_nonzero(pump)
        assert B.values is v  # built once, then cached

    def test_made_source_values_match_dense_construction(self, grid16):
        kappa = 1.0
        B = make_biphoton_delta_correlated(grid16, kappa=kappa)
        diag = np.sqrt(np.pi) / grid16.dx * np.exp(-(grid16.x**2) * kappa**2 / 2.0)
        ref = BiphotonField(grid16, np.diag(diag.astype(np.complex128))).values
        assert B.values.tobytes() == ref.tobytes()

    def test_norm_sq_matches_dense_formula(self, grid16, rng):
        n = grid16.n
        B = DeltaCorrelatedSource(
            grid16, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        dense = float(np.sum(np.abs(B.values) ** 2) * grid16.dx**2)
        assert B.norm_sq == pytest.approx(dense, rel=1e-12)
        assert BiphotonField(grid16, B.values).norm_sq == pytest.approx(dense, rel=1e-12)

    def test_pump_validated_and_copied(self, grid16):
        n = grid16.n
        with pytest.raises(GridError):
            DeltaCorrelatedSource(grid16, np.ones(n + 1))
        bad = np.ones(n, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(GridError):
            DeltaCorrelatedSource(grid16, bad)
        raw = np.ones(n)
        B = DeltaCorrelatedSource(grid16, raw)
        raw[0] = 5.0
        assert B.pump[0] == 1.0 and not B.pump.flags.writeable

    def test_retrodictive_run_stays_linear_in_memory(self):
        # n = 8192: a dense source alone would be 1 GiB of complex128
        text = (
            "scenario = fig3-direct\n"
            "grid.n = 8192\n"
            "grid.extent = 256.0\n"
            "kappa = 8\n"
            "detector.sigma = 0.1\n"
            "mask.kind = double-slit\n"
        )
        cfg = parse_config(text)
        tracemalloc.start()
        try:
            setup = build_setup(cfg)
            res = run_retrodictive(setup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert abs(res.distribution.density.sum() * setup.grid.dx - 1.0) <= 1e-12


class TestBiphotonFieldLayout:
    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_any_memory_layout_accepted(self, grid16, rng, layout):
        n = grid16.n
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        given, held = (np.asfortranarray(m), m) if layout == "fortran" else (m.T, m.T)
        B = BiphotonField(grid16, given)
        np.testing.assert_array_equal(B.values, held)
        assert B.values.flags.c_contiguous and not B.values.flags.writeable
