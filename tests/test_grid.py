"""Grid, transforms, and convolution against direct-summation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    BiphotonField,
    ConditionalDistribution,
    DeltaCorrelatedSource,
    DetectorProfile,
    Field,
    GridError,
    JointDistribution,
    convolve,
    evolve_joint,
    joint_for_setup,
    sweep_conditioning,
    dft,
    edge_energy_fraction,
    idft,
    make_grid,
    scaled_dft,
    scaled_idft,
    spectrum,
)
from biphoton.cli import build_setup, parse_config
from biphoton.predict import forward_arm1_chain
from conftest import random_field


def direct_transform(values, x, k, dx):
    """Brute-force sum dx/sqrt(2 pi) * sum f(x) e^{-ikx} at every k."""
    return dx / np.sqrt(2 * np.pi) * np.exp(-1j * np.outer(k, x)) @ values


def direct_circular_convolution(f, h, dx):
    """O(n^2) evaluation of dx * sum_i f(x_i) h(x_m - x_i), periodic."""
    n = len(f)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for i in range(n):
            out[m] += f[i] * h[(m - i + n // 2) % n]
    return dx * out


class TestMakeGrid:
    def test_small_grid_coordinates(self):
        g = make_grid(8, 8.0)
        assert g.dx == 1.0
        assert g.dk == pytest.approx(np.pi / 4)
        np.testing.assert_allclose(g.x, np.arange(-4, 4))

    def test_reciprocity_identity(self):
        g = make_grid(512, 16.0)
        assert abs(g.dx * g.dk * g.n - 2 * np.pi) <= 1e-12 * 2 * np.pi

    def test_zero_is_a_grid_point(self):
        g = make_grid(128, 10.0)
        assert 0.0 in g.x
        assert 0.0 in g.k

    @pytest.mark.parametrize("n", [7, 12, 100, 4, 0, -8])
    def test_rejects_bad_n(self, n):
        with pytest.raises(GridError):
            make_grid(n, 8.0)

    @pytest.mark.parametrize("extent", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_extent(self, extent):
        with pytest.raises(GridError):
            make_grid(64, extent)

    def test_monotone_k_view(self):
        g = make_grid(64, 8.0)
        assert np.all(np.diff(g.k_monotone) > 0)
        assert set(g.k_monotone) == set(g.k)


class TestField:
    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(GridError):
            Field(small_grid, np.zeros(small_grid.n + 1))

    def test_values_are_immutable(self, small_grid):
        f = Field(small_grid, np.ones(small_grid.n))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_norm_sq(self, small_grid):
        f = Field(small_grid, np.ones(small_grid.n))
        assert f.norm_sq == pytest.approx(small_grid.extent)


class TestUnitaryTransforms:
    def test_constant_field_is_zero_frequency_spike(self):
        # smallest legal grid: a constant transforms to sqrt(n) at k = 0
        g = make_grid(8, 8.0)
        f = Field(g, np.ones(8))
        out = dft(f).values
        assert out[0] == pytest.approx(np.sqrt(8))
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-14)

    def test_roundtrip(self, grid16, rng):
        f = random_field(grid16, rng)
        back = idft(dft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_scaled_roundtrip(self, grid16, rng):
        f = random_field(grid16, rng)
        back = scaled_idft(scaled_dft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_scaled_transform_matches_direct_sum(self, small_grid, rng):
        f = random_field(small_grid, rng)
        ref = direct_transform(f.values, small_grid.x, small_grid.k, small_grid.dx)
        np.testing.assert_allclose(scaled_dft(f).values, ref, atol=1e-10)

    def test_gaussian_transform_closed_form(self):
        # well-resolved Gaussian: transform must be the closed-form Gaussian
        g = make_grid(512, 16.0)
        sigma = 1.0
        f = Field(g, (1 / (np.pi * sigma**2)) ** 0.25 * np.exp(-g.x**2 / (2 * sigma**2)))
        out = scaled_dft(f).values
        ref = (sigma**2 / np.pi) ** 0.25 * np.exp(-g.k**2 * sigma**2 / 2)
        assert np.max(np.abs(out - ref)) <= 1e-8

    def test_parseval_scaled(self, grid16, rng):
        f = random_field(grid16, rng)
        lhs = np.sum(np.abs(f.values) ** 2) * grid16.dx
        rhs = np.sum(np.abs(scaled_dft(f).values) ** 2) * grid16.dk
        assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_spectrum_view_is_monotone(self, grid16, rng):
        f = random_field(grid16, rng)
        k, vals = spectrum(f)
        assert np.all(np.diff(k) > 0)
        shifted = np.fft.fftshift(scaled_dft(f).values)
        np.testing.assert_array_equal(vals, shifted)

    @settings(max_examples=20, deadline=None)
    @given(
        exp=st.integers(min_value=3, max_value=8),
        extent=st.floats(min_value=0.5, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_unitarity_property(self, exp, extent, seed):
        g = make_grid(2**exp, extent)
        f = random_field(g, np.random.default_rng(seed))
        assert abs(dft(f).norm_sq - f.norm_sq) <= 1e-10 * f.norm_sq


class TestConvolve:
    def test_delta_kernel_is_identity(self, small_grid, rng):
        f = random_field(small_grid, rng)
        delta = np.zeros(small_grid.n)
        delta[small_grid.n // 2] = 1.0 / small_grid.dx
        out = convolve(f, Field(small_grid, delta))
        assert np.max(np.abs(out.values - f.values)) <= 1e-12

    def test_matches_direct_summation(self, small_grid, rng):
        f = random_field(small_grid, rng)
        h = random_field(small_grid, rng)
        ref = direct_circular_convolution(f.values, h.values, small_grid.dx)
        out = convolve(f, h)
        assert np.max(np.abs(out.values - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_gaussian_widths_add_in_quadrature(self):
        g = make_grid(256, 16.0)
        sa, sb = 0.5, 0.7

        def unit_area_gaussian(s):
            return np.exp(-g.x**2 / (2 * s**2)) / (s * np.sqrt(2 * np.pi))

        out = convolve(
            Field(g, unit_area_gaussian(sa)), Field(g, unit_area_gaussian(sb))
        )
        ref = unit_area_gaussian(np.hypot(sa, sb))
        assert np.max(np.abs(out.values - ref)) <= 1e-8

    def test_commutativity(self, small_grid, rng):
        f = random_field(small_grid, rng)
        h = random_field(small_grid, rng)
        ab = convolve(f, h).values
        ba = convolve(h, f).values
        assert np.max(np.abs(ab - ba)) <= 1e-12 * np.max(np.abs(ab))

    def test_bilinearity(self, small_grid, rng):
        f = random_field(small_grid, rng)
        h = random_field(small_grid, rng)
        c = 1.3 - 0.4j
        lhs = convolve(Field(small_grid, c * f.values), h).values
        rhs = c * convolve(f, h).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))

    def test_grid_mismatch_rejected(self, small_grid, grid16):
        f = Field(small_grid, np.ones(small_grid.n))
        h = Field(grid16, np.ones(grid16.n))
        with pytest.raises(GridError):
            convolve(f, h)


class TestPurityAndEdges:
    def test_operations_are_bit_deterministic(self, grid16, rng):
        f = random_field(grid16, rng)
        a = scaled_dft(f).values
        b = scaled_dft(Field(grid16, f.values)).values
        np.testing.assert_array_equal(a, b)

    def test_edge_energy_fraction(self):
        g = make_grid(128, 16.0)
        centre = np.zeros(g.n)
        centre[g.n // 2] = 1.0
        assert edge_energy_fraction(Field(g, centre)) == 0.0
        edge = np.zeros(g.n)
        edge[0] = 1.0
        assert edge_energy_fraction(Field(g, edge)) == 1.0
        flat = np.ones(g.n)
        frac = edge_energy_fraction(Field(g, flat))
        assert 0.08 <= frac <= 0.12


# Every value on a grid takes its array by one rule: a checked, read-only
# copy.  Each entry: constructor, array attribute, rank, is a density.
VALUE_TYPES = {
    "Field": (Field, "values", 1, False),
    "ConditionalDistribution": (
        lambda g, a: ConditionalDistribution(g, a, 0.0), "density", 1, True
    ),
    "JointDistribution": (
        lambda g, a: JointDistribution(g, a, DetectorProfile("point")),
        "density",
        2,
        True,
    ),
    "BiphotonField": (BiphotonField, "values", 2, False),
    "DeltaCorrelatedSource": (DeltaCorrelatedSource, "pump", 1, False),
}


@pytest.mark.parametrize("kind", list(VALUE_TYPES))
def test_value_holds_a_checked_read_only_copy(kind, small_grid):
    make, attr, rank, density = VALUE_TYPES[kind]
    n = small_grid.n
    good = np.full((n,) * rank, 0.5, dtype=np.float64 if density else np.complex128)
    with pytest.raises(GridError):
        make(small_grid, np.full((n + 1,) * rank, 0.5))
    bad_values = [-0.5, np.nan, np.inf] if density else [
        complex(0.5, np.nan),
        complex(np.inf, 0.0),
    ]
    for bad in bad_values:
        a = good.copy()
        a.flat[3] = bad
        with pytest.raises(GridError):
            make(small_grid, a)
    value = make(small_grid, good)
    held = getattr(value, attr)
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held.flat[0] = 1.0
    good[...] = 2.0
    assert np.all(getattr(value, attr) == 0.5)


def test_package_made_arrays_are_read_only():
    setup = build_setup(
        parse_config("grid.n = 256\ndetector.sigma = 0.2\nmask.kind = double-slit\n")
    )
    Psi = evolve_joint(setup.source, forward_arm1_chain(setup.arm1), setup.arm2)
    J = joint_for_setup(setup)
    assert len(J.live) < setup.grid.n  # the live-column route
    rows = sweep_conditioning(setup, [-0.5, 0.0, 0.5])
    stacks = []
    for r in rows:
        stages = (r.alpha, *r.arm1_stages, r.beta1, *r.arm2_stages)
        stacks += [f.values for f in stages] + [r.distribution.density]
    stacks += [a.base for a in stacks]  # the sweep's stacks themselves
    arrays = [Psi.values, J.density, J.columns, J.live, *stacks]
    assert all(a is not None and not a.flags.writeable for a in arrays)
