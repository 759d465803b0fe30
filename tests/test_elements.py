"""Element algebra: detector profiles, element actions, adjoints, chains."""

from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    DetectorProfile,
    Field,
    FourierLens,
    GridError,
    Mask,
    Propagate,
    QuadraticPhase,
    SamplingGuardError,
    apply_backward,
    apply_chain_backward,
    apply_chain_forward,
    apply_forward,
    dft,
    make_grid,
    materialize_detector,
)
from biphoton.cli import ScenarioConfig, build_setup
from biphoton.elements import _LensOp, _SpectralPhaseOp, _detector_rows, compile_chain
from conftest import random_field

F, KZ = 2.0, 50.0


def inner(a, b):
    """dx-weighted inner product <a, b>."""
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.dx)


def focal_profile_reference(x, sigma, x1, f, k_z):
    """Closed-form focal-plane profile of a Gaussian detector (complex width)."""
    g = 1 - 2j * f / (k_z * sigma**2)
    return (
        (1 / (np.pi * sigma**2)) ** 0.25
        / np.sqrt(g)
        * np.exp(-((x - x1) ** 2) / (2 * sigma**2 * g))
    )


class TestMaterializeDetector:
    def test_gaussian_peak_and_norm(self):
        g = make_grid(512, 16.0)
        d = DetectorProfile("gaussian", center=0.0, sigma=1.0)
        a = materialize_detector(d, g)
        assert abs(a.values[g.n // 2] - (1 / np.pi) ** 0.25) <= 1e-10
        assert abs(a.norm_sq - 1.0) <= 1e-10

    def test_gaussian_matches_formula_at_grid_points(self):
        g = make_grid(512, 16.0)
        a = materialize_detector(DetectorProfile("gaussian", 0.3, sigma=0.8), g)
        ref = (1 / (np.pi * 0.8**2)) ** 0.25 * np.exp(-((g.x - 0.3) ** 2) / (2 * 0.8**2))
        np.testing.assert_allclose(a.values.real, ref, rtol=1e-9)

    def test_point_snaps_to_nearest_sample(self):
        g = make_grid(64, 16.0)  # dx = 0.25
        a = materialize_detector(DetectorProfile("point", center=0.3), g)
        nz = np.nonzero(a.values)[0]
        assert len(nz) == 1
        assert g.x[nz[0]] == pytest.approx(0.25)
        assert a.values[nz[0]] == pytest.approx(1 / np.sqrt(g.dx))

    def test_tophat_flat_and_normalized(self):
        g = make_grid(512, 16.0)
        a = materialize_detector(DetectorProfile("tophat", 0.0, width=2.0), g)
        nz = a.values[np.abs(a.values) > 0]
        assert abs(a.norm_sq - 1.0) <= 1e-10
        # all open samples share one level, ~ 1/sqrt(width) up to the half-
        # sample edge quantization
        assert np.ptp(np.abs(nz)) <= 1e-12
        assert abs(nz[0].real - 1 / np.sqrt(2.0)) <= 0.02

    def test_unresolvable_widths_name_the_minimum(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValueError, match="minimum is 2\\*dx"):
            materialize_detector(DetectorProfile("gaussian", 0.0, sigma=0.1), g)
        with pytest.raises(ValueError, match="minimum is 2\\*dx"):
            materialize_detector(DetectorProfile("tophat", 0.0, width=0.3), g)

    def test_bad_profiles_rejected(self):
        with pytest.raises(ValueError):
            DetectorProfile("blob")
        with pytest.raises(ValueError):
            DetectorProfile("gaussian", 0.0, sigma=-1.0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "shape, key",
        [
            ("gaussian", "center"),
            ("gaussian", "sigma"),
            ("tophat", "center"),
            ("tophat", "width"),
            ("point", "center"),
        ],
    )
    def test_non_finite_parameters_rejected(self, shape, key, bad):
        params = {"center": 0.0, "sigma": 0.5, "width": 1.0} | {key: bad}
        with pytest.raises(ValueError, match=f"detector {key} must be finite"):
            DetectorProfile(shape, **params)

    @pytest.mark.parametrize("shape", ["gaussian", "tophat", "point"])
    def test_center_none_rejected(self, shape):
        # an unused sigma or width may stay None; the center is always used
        with pytest.raises(ValueError, match="detector center must be finite, got None"):
            DetectorProfile(shape, center=None, sigma=0.5, width=1.0)


class TestDetectorRows:
    @pytest.mark.parametrize(
        "det",
        [
            DetectorProfile("gaussian", sigma=0.3),
            DetectorProfile("tophat", width=0.7),
            DetectorProfile("point"),
        ],
    )
    def test_rows_equal_single_profiles_bit_for_bit(self, det):
        g = make_grid(256, 16.0)
        centres = np.concatenate([g.x, [0.013, -1.37, 2.4999]])
        rows = _detector_rows(det, g, centres)
        assert rows.shape == (len(centres), g.n)
        for c, row in zip(centres, rows):
            one = materialize_detector(replace(det, center=float(c)), g)
            assert row.tobytes() == one.values.tobytes()

    def test_point_rows_on_grid_centres_are_the_scaled_identity(self):
        g = make_grid(256, 16.0)
        rows = _detector_rows(DetectorProfile("point"), g, g.x)
        eye = np.eye(g.n, dtype=np.complex128) / np.sqrt(g.dx)
        assert rows.tobytes() == eye.tobytes()

    # far off the window a profile has no sample, or only samples whose
    # squares underflow; it must not be normalized by zero
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "det, error, match",
        [
            (
                DetectorProfile("gaussian", 1e4, sigma=1.0),
                ValueError,
                "^gaussian detector covers no grid point$",
            ),
            (
                DetectorProfile("gaussian", 40.0, sigma=1.0),
                ValueError,
                "^gaussian detector covers no grid point$",
            ),
            (
                DetectorProfile("tophat", 1e4, width=1.0),
                ValueError,
                "^tophat detector covers no grid point$",
            ),
            (
                DetectorProfile("point", 1e4),
                GridError,
                "^position 10000.0 lies outside the window$",
            ),
        ],
        ids=["gaussian", "gaussian-underflow", "tophat", "point"],
    )
    def test_detector_off_the_grid_is_rejected(self, det, error, match):
        with pytest.raises(error, match=match):
            materialize_detector(det, make_grid(64, 16.0))


class TestSingleElements:
    def test_unit_mask_is_identity(self, grid16, rng):
        f = random_field(grid16, rng)
        m = Mask(Field(grid16, np.ones(grid16.n)))
        np.testing.assert_array_equal(apply_forward(m, f).values, f.values)

    def test_mask_modulus_bound_enforced(self, grid16):
        with pytest.raises(ValueError, match="<= 1"):
            Mask(Field(grid16, 1.2 * np.ones(grid16.n)))

    def test_zero_distance_propagation_is_identity(self, grid16, rng):
        f = random_field(grid16, rng)
        out = apply_forward(Propagate(0.0, KZ), f)
        np.testing.assert_array_equal(out.values, f.values)

    def test_propagation_roundtrip(self, grid16, rng):
        f = random_field(grid16, rng)
        p = Propagate(1.5, KZ)
        back = apply_backward(p, apply_forward(p, f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_backward_propagation_phase_in_k_space(self):
        # Gaussian wavevector profile picks up exactly exp(+i k^2 f / k_z)
        g = make_grid(512, 16.0)
        sigma = 1.0
        a = materialize_detector(DetectorProfile("gaussian", 0.0, sigma=sigma), g)
        out = apply_backward(Propagate(F, KZ), a)
        ratio = dft(out).values / dft(a).values
        ref = np.exp(1j * g.k**2 * F / KZ)
        band = np.abs(dft(a).values) > 1e-6
        assert np.max(np.abs(ratio[band] - ref[band])) <= 1e-10

    def test_quadratic_phase_is_pointwise_chirp(self, grid16, rng):
        f = random_field(grid16, rng)
        out = apply_forward(QuadraticPhase(F, KZ), f)
        ref = np.exp(-1j * KZ * grid16.x**2 / (4 * F)) * f.values
        np.testing.assert_allclose(out.values, ref, atol=1e-14)

    @pytest.mark.parametrize("f", [4.0, 2.5])
    def test_quadratic_phase_focuses_at_f_behind_propagate(self, f):
        # k_z means the same in both elements, so the focus lies at z = f
        g = make_grid(4096, 64.0)
        beam = Field(g, np.exp(-(g.x**2) / (2 * 3.0**2)))
        lensed = apply_forward(QuadraticPhase(f, KZ), beam)
        step = 0.01
        zs = np.arange(0.5, 8.0, step)
        peaks = [
            np.max(np.abs(apply_forward(Propagate(z, KZ), lensed).values))
            for z in zs
        ]
        assert abs(zs[int(np.argmax(peaks))] - f) <= step

    def test_sampling_guard_names_minimum_n(self):
        g = make_grid(64, 16.0)
        with pytest.raises(SamplingGuardError) as err:
            apply_forward(Propagate(100.0, KZ), Field(g, np.ones(g.n)))
        assert err.value.required_n >= 128
        # the suggested size passes at the same sample spacing
        g2 = make_grid(err.value.required_n, 16.0 * err.value.required_n / 64)
        apply_forward(Propagate(100.0, KZ), Field(g2, np.ones(g2.n)))


class TestAdjointness:
    @pytest.mark.parametrize(
        "element",
        [
            Propagate(1.7, KZ),
            Propagate(0.8, 2 * KZ),
            FourierLens(),
            QuadraticPhase(3.0, KZ),
        ],
    )
    def test_unitary_elements_adjoint_identity(self, element, grid16, rng):
        u = random_field(grid16, rng)
        v = random_field(grid16, rng)
        lhs = inner(u, apply_forward(element, v))
        rhs = inner(apply_backward(element, u), v)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_real_mask_adjoint_identity(self, grid16, rng):
        t = np.clip(np.abs(np.cos(grid16.x)), 0, 1)
        m = Mask(Field(grid16, t))
        u = random_field(grid16, rng)
        v = random_field(grid16, rng)
        lhs = inner(u, apply_forward(m, v))
        rhs = inner(apply_backward(m, u), v)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)

    def test_complex_mask_backward_is_unconjugated(self, grid16, rng):
        # both directions multiply by t itself; the conditioning step owns
        # the single conjugation of the arm profile
        t = 0.9 * np.exp(1j * grid16.x)
        m = Mask(Field(grid16, t))
        f = random_field(grid16, rng)
        np.testing.assert_array_equal(
            apply_backward(m, f).values, apply_forward(m, f).values
        )

    @pytest.mark.parametrize(
        "element",
        [Propagate(2.2, KZ), FourierLens(), QuadraticPhase(2.0, KZ)],
    )
    def test_unitary_elements_preserve_norm(self, element, grid16, rng):
        f = random_field(grid16, rng)
        out = apply_forward(element, f)
        assert abs(out.norm_sq - f.norm_sq) <= 1e-12 * f.norm_sq

    def test_mask_never_increases_norm(self, grid16, rng):
        f = random_field(grid16, rng)
        t = np.clip(np.abs(np.sin(2 * grid16.x)), 0, 1)
        out = apply_forward(Mask(Field(grid16, t)), f)
        assert out.norm_sq <= f.norm_sq * (1 + 1e-12)


class TestChains:
    def test_empty_chain_is_identity(self, grid16, rng):
        f = random_field(grid16, rng)
        np.testing.assert_array_equal(apply_chain_forward((), f).values, f.values)
        np.testing.assert_array_equal(apply_chain_backward((), f).values, f.values)

    def test_propagation_distances_add(self, grid16, rng):
        f = random_field(grid16, rng)
        two = apply_chain_forward((Propagate(0.7, KZ), Propagate(1.1, KZ)), f)
        one = apply_forward(Propagate(1.8, KZ), f)
        assert np.max(np.abs(two.values - one.values)) <= 1e-12 * np.max(
            np.abs(one.values)
        )

    def test_backward_chain_is_adjoint_of_forward_chain(self, grid16, rng):
        t = np.clip(np.abs(np.cos(grid16.x)), 0, 1)  # real mask: true adjoint
        chains = [
            (Propagate(1.0, KZ), QuadraticPhase(4.0, KZ), Mask(Field(grid16, t))),
            (Propagate(1.0, KZ), FourierLens()),
            (FourierLens(), Mask(Field(grid16, t)), Propagate(0.5, KZ)),
        ]
        for chain in chains:
            u = random_field(grid16, rng)
            v = random_field(grid16, rng)
            lhs = inner(u, apply_chain_forward(chain, v))
            rhs = inner(apply_chain_backward(chain, u), v)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)

    def test_focal_pair_reproduces_closed_form(self):
        # backward Propagate(f) + FourierLens on a Gaussian detector profile
        g = make_grid(1024, 32.0)
        for sigma in (0.5, 1.0, 2.0):
            det = materialize_detector(
                DetectorProfile("gaussian", center=0.5, sigma=sigma), g
            )
            out = apply_chain_backward((Propagate(F, KZ), FourierLens()), det)
            ref = focal_profile_reference(g.x, sigma, 0.5, F, KZ)
            i0 = int(np.argmax(np.abs(ref)))
            phase = ref[i0] / out.values[i0]
            phase /= abs(phase)
            err = np.max(np.abs(out.values * phase - ref)) / np.max(np.abs(ref))
            assert err <= 1e-6

    @pytest.mark.parametrize(
        "pattern, ambiguous",
        [
            ("LPL", True),
            ("LPLPL", True),
            ("LLPL", True),
            ("PLPL", False),
            ("LPLP", False),
            ("PLP", False),
            ("LPPL", False),
            ("PLLP", False),
            ("L", False),
        ],
    )
    def test_lens_runs_that_start_and_end_with_a_lens_are_rejected(
        self, pattern, ambiguous
    ):
        # greedy fusion pairs such a run differently read backwards, so the
        # two routes would fuse each propagation with a different lens
        chain = [FourierLens() if c == "L" else Propagate(1.0, KZ) for c in pattern]
        if ambiguous:
            with pytest.raises(ValueError, match=r"ambiguous lens chain \[FourierLens"):
                compile_chain(chain)
            with pytest.raises(ValueError, match="ambiguous lens chain"):
                compile_chain(chain[::-1])
        else:
            assert len(compile_chain(chain)) == len(compile_chain(chain[::-1]))

    def test_lone_lens_roundtrip_and_point_flattening(self, grid16):
        lens = FourierLens()
        point = materialize_detector(DetectorProfile("point", 0.0), grid16)
        flat = apply_backward(lens, point)
        mags = np.abs(flat.values)
        assert np.ptp(mags) <= 1e-12 * mags[0]
        back = apply_forward(lens, flat)
        assert np.max(np.abs(back.values - point.values)) <= 1e-12 / np.sqrt(grid16.dx)


class TestCompiledOps:
    # The benchmark's replay names each traced op after its class
    # (``perfbench/replay.py`` ``op_kind``: ``_SpectralPhaseOp`` ->
    # ``spectral_phase``, ``Mask`` -> ``mask``), so these types are pinned.
    def test_fig3_direct_arm1_is_a_spectral_phase_then_the_mask_itself(self):
        setup = build_setup(ScenarioConfig(mask_kind="double-slit"))
        prop, lens, mask = setup.arm1
        assert (type(prop), type(lens), type(mask)) == (Propagate, FourierLens, Mask)
        ops = compile_chain(setup.arm1)
        assert [type(op) for op in ops] == [_SpectralPhaseOp, Mask]
        assert ops[1] is mask

    def test_lone_lens_compiles_to_a_lens_op(self):
        ops = compile_chain((FourierLens(),))
        assert [type(op) for op in ops] == [_LensOp]

    def test_quadratic_phase_is_its_own_op(self):
        q = QuadraticPhase(2.0, 50.0)
        ops = compile_chain((q,))
        assert len(ops) == 1 and ops[0] is q

    def test_unknown_element_rejected(self):
        with pytest.raises(TypeError, match="unknown element"):
            compile_chain((object(),))

    @pytest.mark.parametrize("apply", [apply_forward, apply_backward])
    def test_mask_on_another_grid_rejected(self, apply, grid16, small_grid, rng):
        mask = Mask(Field(small_grid, np.ones(small_grid.n)))
        with pytest.raises(GridError, match="mask is sampled on a different grid"):
            apply(mask, random_field(grid16, rng))
