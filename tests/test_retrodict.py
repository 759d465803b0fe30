"""Pipeline behaviour: normalization, symmetry, errors, invariances."""

from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    DarkConditionalError,
    DetectorProfile,
    EdgeLeakageError,
    Field,
    FourierLens,
    GridError,
    ImagingSetup,
    Mask,
    Propagate,
    SamplingGuardError,
    SweepError,
    conditional_from_joint,
    edge_energy_fraction,
    joint_for_setup,
    make_biphoton_delta_correlated,
    make_grid,
    run_retrodictive,
    sweep_conditioning,
)
from conftest import rank2_source

F, KZ = 2.0, 50.0


def fig3_setup(grid, mask_values=None, detector=None, kappa=0.25):
    arm1 = [Propagate(F, KZ), FourierLens()]
    if mask_values is not None:
        arm1.append(Mask(Field(grid, mask_values)))
    det = detector or DetectorProfile("gaussian", center=0.0, sigma=0.2)
    return ImagingSetup(
        grid=grid,
        arm1=tuple(arm1),
        arm2=(),
        source=make_biphoton_delta_correlated(grid, kappa=kappa),
        detector1=det,
    )


def double_slit(grid, width=0.4, separation=2.0):
    half = separation / 2
    return (
        (np.abs(grid.x - half) < width / 2) | (np.abs(grid.x + half) < width / 2)
    ).astype(complex)


class TestSetupGrids:
    def test_mask_on_another_grid_rejected(self, grid16, small_grid):
        with pytest.raises(GridError, match="mask and setup grids differ"):
            ImagingSetup(
                grid=grid16,
                arm1=(Mask(Field(small_grid, np.ones(small_grid.n))),),
                arm2=(),
                source=make_biphoton_delta_correlated(grid16, kappa=0.25),
                detector1=DetectorProfile("gaussian", center=0.0, sigma=0.2),
            )

    def test_source_on_another_grid_rejected(self, grid16, small_grid):
        with pytest.raises(GridError, match="source and setup grids differ"):
            ImagingSetup(
                grid=grid16,
                arm1=(),
                arm2=(),
                source=make_biphoton_delta_correlated(small_grid, kappa=0.25),
                detector1=DetectorProfile("gaussian", center=0.0, sigma=0.2),
            )


class TestRunRetrodictive:
    def test_no_mask_density_normalized_single_peak(self, grid16):
        res = run_retrodictive(fig3_setup(grid16))
        d = res.distribution.density
        assert abs(d.sum() * grid16.dx - 1.0) <= 1e-12
        assert np.all(d >= 0)
        peaks = np.flatnonzero(
            (d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]) & (d[1:-1] > d.max() * 1e-3)
        )
        assert len(peaks) == 1

    def test_stage_fields_exposed(self, grid16):
        t = double_slit(grid16)
        res = run_retrodictive(fig3_setup(grid16, t))
        assert len(res.arm1_stages) == 2  # focal pair, then mask
        assert res.alpha3 is res.arm1_stages[-1]
        # mask stage is the pointwise product of the focal stage with t
        np.testing.assert_allclose(
            res.alpha3.values, t * res.arm1_stages[0].values, atol=1e-14
        )
        assert res.beta2 is res.beta1  # empty arm 2
        assert "beta1" in res.edge_fractions

    def test_mask_global_phase_invariance(self, grid16):
        t = double_slit(grid16)
        base = run_retrodictive(fig3_setup(grid16, t)).distribution.density
        rot = run_retrodictive(
            fig3_setup(grid16, t * np.exp(1j * 0.83))
        ).distribution.density
        assert np.max(np.abs(base - rot)) <= 1e-12 * np.max(base)

    def test_mask_scaling_invariance(self, grid16):
        t = double_slit(grid16)
        base = run_retrodictive(fig3_setup(grid16, t)).distribution.density
        scaled = run_retrodictive(fig3_setup(grid16, 0.37 * t)).distribution.density
        assert np.max(np.abs(base - scaled)) <= 1e-12 * np.max(base)

    def test_opaque_mask_is_dark_conditional(self, grid16):
        with pytest.raises(DarkConditionalError):
            run_retrodictive(fig3_setup(grid16, np.zeros(grid16.n)))

    def test_conditioning_position_domain(self, grid16):
        det = DetectorProfile("gaussian", center=0.9 * grid16.extent / 2, sigma=0.2)
        with pytest.raises(ValueError, match="central 80%"):
            run_retrodictive(fig3_setup(grid16, detector=det))

    def test_edge_leakage_guard(self):
        # a near-window-wide detector against a wide pump spot leaves
        # conditioned amplitude in the outer 10% of the periodic window
        g = make_grid(256, 16.0)
        setup = ImagingSetup(
            grid=g,
            arm1=(),
            arm2=(),
            source=make_biphoton_delta_correlated(g, kappa=1 / 8.0),
            detector1=DetectorProfile("tophat", center=0.0, width=15.0),
        )
        with pytest.raises(EdgeLeakageError):
            run_retrodictive(setup)

    def test_deterministic(self, grid16):
        t = double_slit(grid16)
        a = run_retrodictive(fig3_setup(grid16, t)).distribution.density
        b = run_retrodictive(fig3_setup(grid16, t)).distribution.density
        np.testing.assert_array_equal(a, b)


class TestSweep:
    def test_single_position_matches_run(self, grid16):
        setup = fig3_setup(grid16, double_slit(grid16))
        (res,) = sweep_conditioning(setup, [0.0])
        direct = run_retrodictive(setup)
        np.testing.assert_array_equal(
            res.distribution.density, direct.distribution.density
        )

    def test_mirror_symmetry(self, grid16):
        setup = fig3_setup(grid16, double_slit(grid16))
        plus, minus = sweep_conditioning(setup, [0.75, -0.75])
        mirrored = minus.distribution.density[::-1]
        # x = -L/2 has no mirror partner on the grid; compare the rest
        assert (
            np.max(np.abs(plus.distribution.density[1:] - mirrored[:-1]))
            <= 1e-10 * plus.distribution.density.max()
        )

    def test_many_positions_normalized(self):
        g = make_grid(512, 16.0)
        setup = fig3_setup(g, double_slit(g))
        positions = np.linspace(-2.0, 2.0, 32)
        results = sweep_conditioning(setup, positions)
        assert len(results) == 32
        for r in results:
            assert abs(r.distribution.density.sum() * g.dx - 1.0) <= 1e-12

    def test_positions_outside_central_window_rejected(self, grid16):
        setup = fig3_setup(grid16)
        with pytest.raises(ValueError, match="central 80%"):
            sweep_conditioning(setup, [0.0, 0.95 * grid16.extent / 2])

    @pytest.mark.parametrize(
        "det",
        [
            DetectorProfile("gaussian", sigma=0.2),
            DetectorProfile("tophat", width=0.7),
            DetectorProfile("point"),
        ],
    )
    def test_non_finite_position_gets_the_named_error(self, grid16, det):
        setup = fig3_setup(grid16, detector=det)
        for x1 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="central 80%"):
                sweep_conditioning(setup, [x1])
            with pytest.raises(GridError, match="not finite"):
                conditional_from_joint(joint_for_setup(setup), x1)

    def test_setup_error_raised_once_not_per_position(self):
        # f = 200 at k_z = 1 undersamples the focal propagation on n = 64:
        # no position escapes it, so it is raised once and not as SweepError
        g = make_grid(64, 16.0)
        setup = ImagingSetup(
            grid=g,
            arm1=(Propagate(200.0, 1.0), FourierLens()),
            arm2=(),
            source=make_biphoton_delta_correlated(g, kappa=1.0),
            detector1=DetectorProfile("gaussian", center=0.0, sigma=0.6),
        )
        with pytest.raises(SamplingGuardError) as err:
            sweep_conditioning(setup, [-0.5, 0.0, 0.5])
        assert err.value.required_n > g.n

    def test_failures_aggregated_with_positions(self, grid16):
        # opaque mask: every position is a dark conditional
        setup = fig3_setup(grid16, np.zeros(grid16.n))
        with pytest.raises(SweepError) as err:
            sweep_conditioning(setup, [0.0, 0.5])
        assert len(err.value.failures) == 2
        assert err.value.failures[0][0] == 0.0
        assert isinstance(err.value.failures[1][1], DarkConditionalError)


class TestNonDiagonalSource:
    """Retro against the oracle when the source is a dense matrix, so the
    general (vector-matrix) conditioning path is covered end to end."""

    @staticmethod
    def low_rank_setup(grid, x1):
        t = double_slit(grid) * np.exp(1j * 0.5 * grid.x)
        return ImagingSetup(
            grid=grid,
            arm1=(Propagate(F, KZ), FourierLens(), Mask(Field(grid, t))),
            arm2=(Propagate(0.5, KZ),),
            source=rank2_source(grid),
            detector1=DetectorProfile("gaussian", center=x1, sigma=0.2),
        )

    def test_source_is_not_diagonal(self, grid16):
        v = self.low_rank_setup(grid16, 0.0).source.values
        assert np.linalg.matrix_rank(v) == 2
        assert np.max(np.abs(v - np.diag(np.diagonal(v)))) > 0.1 * np.max(np.abs(v))

    @pytest.mark.parametrize("x1", [0.0, 0.5, -1.0])
    def test_retrodictive_matches_oracle(self, grid16, x1):
        setup = self.low_rank_setup(grid16, x1)
        retro = run_retrodictive(setup).distribution.density
        oracle = conditional_from_joint(joint_for_setup(setup), x1).density
        assert np.max(np.abs(retro - oracle)) <= 1e-8


class TestAmbiguousLensChain:
    """A lens, a propagation and a lens: the retro route fused the
    propagation with the first lens and the oracle with the last, so the
    routes differed by 2.3e-4; the chain is now rejected by both."""

    @staticmethod
    def setup_with(arm1):
        g = make_grid(64, 16.0)
        return ImagingSetup(
            grid=g,
            arm1=arm1,
            arm2=(),
            source=make_biphoton_delta_correlated(g, kappa=1.0),
            detector1=DetectorProfile("gaussian", center=0.0, sigma=0.6),
        )

    def test_lens_propagation_lens_is_rejected_by_both_routes(self):
        setup = self.setup_with((FourierLens(), Propagate(1.0, KZ), FourierLens()))
        names = r"ambiguous lens chain \[FourierLens\(\), Propagate\(z=1.0.*FourierLens\(\)\]"
        with pytest.raises(ValueError, match=names):
            run_retrodictive(setup)
        with pytest.raises(ValueError, match=names):
            joint_for_setup(setup)

    def test_propagation_lens_propagation_routes_agree(self):
        setup = self.setup_with((Propagate(1.0, KZ), FourierLens(), Propagate(0.5, KZ)))
        retro = run_retrodictive(setup).distribution.density
        oracle = conditional_from_joint(joint_for_setup(setup), 0.0).density
        assert np.max(np.abs(retro - oracle)) <= 1e-8


def stage_fields(r):
    return [r.alpha, *r.arm1_stages, r.beta1, *r.arm2_stages, r.beta2]


class TestStackedRows:
    """A sweep keeps each stage as one read-only stack; every row must
    still read exactly as a result computed on its own."""

    @staticmethod
    def sweep_setup():
        g = make_grid(512, 16.0)
        return replace(fig3_setup(g, double_slit(g)), arm2=(Propagate(0.5, KZ),))

    def test_edge_fractions_equal_per_row_bit_for_bit(self):
        setup = self.sweep_setup()
        rows = sweep_conditioning(setup, np.linspace(-2.0, 2.0, 16))
        assert len(rows) == 16
        for r in rows:
            assert r.beta2 is not r.beta1
            got = {k: v.hex() for k, v in r.edge_fractions.items()}
            assert got == {
                "beta1": edge_energy_fraction(r.beta1).hex(),
                "beta2": edge_energy_fraction(r.beta2).hex(),
            }

    def test_rows_are_read_only_views(self):
        rows = sweep_conditioning(self.sweep_setup(), [-0.5, 0.0, 0.5])
        for r in rows:
            for f in stage_fields(r):
                with pytest.raises(ValueError):
                    f.values[0] = 1.0
            with pytest.raises(ValueError):
                r.distribution.density[0] = 1.0
        # the rows of one stage are views onto one shared stack
        stack = rows[0].beta1.values.base
        assert stack is not None and stack.shape == (3, 512)
        assert all(r.beta1.values.base is stack for r in rows)

    def test_dense_source_conditions_per_row_bit_equal_to_single_runs(self, grid16):
        positions = [-1.0, -0.25, 0.0, 0.5, 1.0]
        setup = TestNonDiagonalSource.low_rank_setup(grid16, 0.0)
        rows = sweep_conditioning(setup, positions)
        for x1, row in zip(positions, rows):
            single = run_retrodictive(
                replace(setup, detector1=replace(setup.detector1, center=x1))
            )
            for a, b in zip(stage_fields(row), stage_fields(single), strict=True):
                assert a.values.tobytes() == b.values.tobytes()
            assert (
                row.distribution.density.tobytes()
                == single.distribution.density.tobytes()
            )
            assert row.edge_fractions == single.edge_fractions
            assert row.distribution.conditioning_position == x1
