"""Forward oracle: joint evolution, Bayes conditioning, marginals."""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

from biphoton import (
    BiphotonField,
    DarkConditionalError,
    DetectorProfile,
    Field,
    FourierLens,
    ImagingSetup,
    Mask,
    Propagate,
    QuadraticPhase,
    conditional_from_joint,
    evolve_joint,
    joint_distribution,
    joint_for_setup,
    make_biphoton_delta_correlated,
    make_grid,
    marginal_arm2,
    mutual_information_bits,
    run_retrodictive,
)
from biphoton import cli, predict
from biphoton.elements import _detector_rows, apply_chain_forward
from conftest import random_field

F, KZ = 2.0, 50.0


def random_biphoton(grid, rng):
    v = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal(
        (grid.n, grid.n)
    )
    return BiphotonField(grid, v)


class TestEvolveJoint:
    def test_empty_arms_do_nothing(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        out = evolve_joint(B, (), ())
        np.testing.assert_array_equal(out.values, B.values)

    @pytest.mark.parametrize("chain", ["all-op-kinds", "zero-propagation"])
    def test_arm1_acts_on_columns_arm2_on_rows_bit_for_bit(self, small_grid, rng, chain):
        g = small_grid
        B = random_biphoton(g, rng)
        if chain == "all-op-kinds":
            t = rng.uniform(0.3, 1.0, g.n) * np.exp(1j * rng.uniform(-np.pi, np.pi, g.n))
            # compiles to spectral phase, quadratic phase, lens, mask and a
            # fused lens/propagation pair
            arm = (
                Propagate(1.0, 2 * KZ),
                QuadraticPhase(F, KZ),
                FourierLens(),
                Mask(Field(g, t)),
                Propagate(0.5, KZ),
                FourierLens(),
            )
        else:
            arm = (Propagate(0.0, KZ),)
        cols = np.stack(
            [apply_chain_forward(arm, Field(g, c)).values for c in B.values.T], axis=1
        )
        rows = np.stack([apply_chain_forward(arm, Field(g, r)).values for r in B.values])
        assert evolve_joint(B, arm, ()).values.tobytes() == cols.tobytes()
        assert evolve_joint(B, (), arm).values.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n", [64, 512])
    def test_delta_pump_path_equals_the_dense_source(self, n):
        # the chirp and the complex mask act on the pump alone; the dense
        # path's off-diagonal zero products hold -0 where the pump path
        # holds +0, which array_equal allows and the joint cannot see
        g = make_grid(n, n / 4)
        B = make_biphoton_delta_correlated(g, kappa=0.5)
        t = np.exp(1j * np.sin(1.3 * g.x)) * (np.abs(g.x) < 3)
        arm1 = (QuadraticPhase(F, KZ), Mask(Field(g, t)))
        pump = evolve_joint(B, arm1, ())
        dense = evolve_joint(BiphotonField(g, B.values), arm1, ())
        assert np.array_equal(pump.values, dense.values)
        det = DETECTORS["gaussian"]
        J = joint_distribution(pump, det).density.tobytes()
        assert J == joint_distribution(dense, det).density.tobytes()

    def test_separable_amplitude_factorizes(self, small_grid, rng):
        u = random_field(small_grid, rng)
        v = random_field(small_grid, rng)
        B = BiphotonField(small_grid, np.outer(u.values, v.values))
        arm1 = (Propagate(1.0, KZ),)
        arm2 = (QuadPhaseStub := Propagate(0.5, KZ),)
        out = evolve_joint(B, arm1, arm2)
        ref = np.outer(
            apply_chain_forward(arm1, u).values,
            apply_chain_forward((QuadPhaseStub,), v).values,
        )
        assert np.max(np.abs(out.values - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_arms_commute(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        arm1 = (Propagate(1.0, KZ), FourierLens())
        arm2 = (Propagate(2.0, KZ),)
        a = evolve_joint(evolve_joint(B, arm1, ()), (), arm2)
        b = evolve_joint(evolve_joint(B, (), arm2), arm1, ())
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(a.values))

    def test_unitary_arms_preserve_two_norm(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        out = evolve_joint(B, (Propagate(1.5, KZ),), (FourierLens(),))
        assert abs(out.norm_sq - B.norm_sq) <= 1e-10 * B.norm_sq


class TestJointDistribution:
    def test_product_joint_for_separable_state(self, small_grid, rng):
        u = random_field(small_grid, rng)
        v = random_field(small_grid, rng)
        B = BiphotonField(small_grid, np.outer(u.values, v.values))
        J = joint_distribution(B, DetectorProfile("point"))
        pu = np.abs(u.values) ** 2 / (np.sum(np.abs(u.values) ** 2) * small_grid.dx)
        pv = np.abs(v.values) ** 2 / (np.sum(np.abs(v.values) ** 2) * small_grid.dx)
        ref = np.outer(pu, pv)
        assert np.max(np.abs(J.density - ref)) <= 1e-10 * np.max(ref)

    def test_delta_correlated_source_concentrates_on_diagonal(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=1.0)
        J = joint_distribution(B, DetectorProfile("point"))
        off = J.density[~np.eye(grid16.n, dtype=bool)]
        assert np.all(off == 0)
        assert abs(J.density.sum() * grid16.dx**2 - 1.0) <= 1e-10

    def test_normalization_is_exact(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = joint_distribution(B, DetectorProfile("gaussian", sigma=0.6))
        assert abs(J.density.sum() * small_grid.dx**2 - 1.0) <= 1e-10


DETECTORS = {
    "gaussian": DetectorProfile("gaussian", sigma=0.6),
    "tophat": DetectorProfile("tophat", width=0.7),
    "point": DetectorProfile("point"),
}


def _joint_to_file(setup, path):
    path.write_bytes(joint_for_setup(setup).density.tobytes())


def _affinity(monkeypatch, cpus):
    monkeypatch.setattr(
        predict.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


def _spy_on_blocks(monkeypatch):
    """Record the centres of every detector-bank block and the size of
    every thread pool the oracle asks for."""
    centres, pools = [], []
    rows, pool = predict._detector_rows, predict.ThreadPoolExecutor

    def rows_spy(d, g, c):
        centres.append(np.array(c))
        return rows(d, g, c)

    def pool_spy(workers):
        pools.append(workers)
        return pool(workers)

    monkeypatch.setattr(predict, "_detector_rows", rows_spy)
    monkeypatch.setattr(predict, "ThreadPoolExecutor", pool_spy)
    return centres, pools


def _assert_blocks_tile(centres, g):
    # no block over _MIN_BLOCK_ROWS centres, and every centre exactly once
    assert all(len(c) <= predict._MIN_BLOCK_ROWS for c in centres)
    assert np.array_equal(np.sort(np.concatenate(centres)), g.x)


class TestBlockedMatmul:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    @pytest.mark.parametrize("source", ["dense", "delta"])
    def test_bits_equal_the_serial_product(
        self, small_grid, rng, monkeypatch, cpus, detector, source
    ):
        # blocks of two rows: 32 blocks on 1, 2, 3, 5 or 64 CPUs
        g = small_grid
        if source == "dense":
            Psi = random_biphoton(g, rng)
        else:
            Psi = make_biphoton_delta_correlated(g, kappa=0.5)
        det = DETECTORS[detector]
        A = g.dx * (np.conj(_detector_rows(det, g, g.x)) @ Psi.values)
        dens = np.abs(A) ** 2
        dens /= float(dens.sum()) * g.dx**2
        _affinity(monkeypatch, cpus)
        monkeypatch.setattr(predict, "_MIN_BLOCK_ROWS", 2)
        centres, pools = _spy_on_blocks(monkeypatch)
        J = joint_distribution(Psi, det)
        assert J.density.tobytes() == dens.tobytes()
        _assert_blocks_tile(centres, g)
        assert pools == ([] if cpus == 1 else [min(cpus, g.n // 2)])

    @pytest.mark.parametrize(
        "cpus, n, sizes",
        [
            (5, 256, [256]),
            (5, 512, [256, 256]),
            (5, 2048, [256] * 8),
            (1, 2048, [256] * 8),
        ],
    )
    def test_row_blocks_tile_the_rows(self, monkeypatch, cpus, n, sizes):
        # fixed blocks of 256 rows, on one thread per CPU and at most one
        # per block; one thread runs inline, with no pool
        g = make_grid(n, n / 32)
        B = make_biphoton_delta_correlated(g, kappa=0.5)
        Psi = evolve_joint(B, (_open_mask(g, (n // 2, n // 2 + 9)),), ())
        _affinity(monkeypatch, cpus)
        centres, pools = _spy_on_blocks(monkeypatch)
        joint_distribution(Psi, DetectorProfile("gaussian", sigma=0.1))
        assert [len(c) for c in centres] == sizes
        _assert_blocks_tile(centres, g)
        workers = min(cpus, len(sizes))
        assert pools == ([] if workers == 1 else [workers])

    def test_oracle_runs_in_a_forked_child(self, tmp_path, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        # two blocks, so that the child's product goes through a pool
        _affinity(monkeypatch, 2)
        monkeypatch.setattr(predict, "_MIN_BLOCK_ROWS", 128)
        g = make_grid(256, 16.0)
        setup = ImagingSetup(
            grid=g,
            arm1=(Propagate(F, KZ), FourierLens()),
            arm2=(),
            source=make_biphoton_delta_correlated(g, kappa=0.25),
            detector1=DetectorProfile("gaussian", sigma=0.2),
        )
        here = joint_for_setup(setup).density.tobytes()
        path = tmp_path / "joint.bin"
        child = multiprocessing.get_context("fork").Process(
            target=_joint_to_file, args=(setup, path)
        )
        child.start()
        child.join(timeout=60)
        try:
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert path.read_bytes() == here


class TestMemory:
    @pytest.mark.parametrize("mask, bound", [("double-slit", 2.5), ("none", 4.01)])
    def test_peak_of_the_oracle(self, monkeypatch, mask, bound):
        # the benchmark's oracle-verify scenario at n = 1024 on two CPUs,
        # each of whose threads holds one block of the bank; the peak in
        # units of one n x n complex table.  With the double slit it is
        # Psi, the density and the blocks; with no mask, evolve_joint's
        # four n x n tables (plus vectors of n)
        n = 1024
        setup = cli.build_setup(
            cli.parse_config(
                f"grid.n = {n}\ngrid.extent = {n / 32!r}\nkappa = 8\n"
                f"detector.sigma = 0.1\nmask.kind = {mask}\n"
                f"mask.width = 0.4\nmask.separation = 2.0\n"
            )
        )
        _affinity(monkeypatch, 2)
        tracemalloc.start()
        try:
            joint_for_setup(setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 16 * n**2


def _open_mask(g, open_at):
    """A mask with unit-modulus phases at the indices ``open_at``, 0 elsewhere."""
    t = np.zeros(g.n, dtype=complex)
    t[list(open_at)] = np.exp(1j * np.linspace(0.0, 3.0, len(open_at)))
    return Mask(Field(g, t))


def _spy_on_ops(monkeypatch):
    """Record the shape of every stack a compiled op of the oracle acts on."""
    shapes = []

    class Spy:
        def __init__(self, op):
            self.op = op

        def forward(self, v, g):
            shapes.append(v.shape)
            return self.op.forward(v, g)

    chain = predict.compile_chain
    monkeypatch.setattr(predict, "compile_chain", lambda arm: [Spy(op) for op in chain(arm)])
    return shapes


# case -> (source, arm 1, arm 2, mask's open indices), arms in physical order
SKIP_CASES = {
    # both skips: dead rows leave arm 1 after the mask, then dead columns
    # leave the product
    "delta-arm1-mask": ("delta", ["mask", "lens", "propagate"], [], range(20, 46)),
    # dense source: no row of arm 1 dies, the arm-2 mask kills columns
    "dense-arm2-mask": ("dense", ["lens"], ["propagate", "mask"], range(20, 46)),
    "one-live-column": ("delta", ["mask", "propagate"], [], (40,)),
    "seven-live-columns": ("delta", ["mask", "propagate"], [], (3, 10, 11, 12, 30, 50, 63)),
}


def _skip_setup(g, rng, case):
    source, arm1, arm2, open_at = SKIP_CASES[case]
    elements = {
        "mask": _open_mask(g, open_at),
        "lens": FourierLens(),
        "propagate": Propagate(0.5, KZ),
    }
    if source == "dense":
        B = random_biphoton(g, rng)
    else:
        B = make_biphoton_delta_correlated(g, kappa=0.5)
    return B, [elements[e] for e in arm1], [elements[e] for e in arm2], len(open_at)


class TestZeroSkip:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    @pytest.mark.parametrize("case", sorted(SKIP_CASES))
    def test_bits_equal_the_dense_reference(
        self, small_grid, rng, monkeypatch, cpus, detector, case
    ):
        g, det = small_grid, DETECTORS[detector]
        B, arm1, arm2, live = _skip_setup(g, rng, case)
        cols = np.stack(
            [apply_chain_forward(arm1, Field(g, c)).values for c in B.values.T], axis=1
        )
        psi = np.stack([apply_chain_forward(arm2, Field(g, r)).values for r in cols])
        A = g.dx * (np.conj(_detector_rows(det, g, g.x)) @ psi)
        dens = np.abs(A) ** 2
        dens /= float(dens.sum()) * g.dx**2

        _affinity(monkeypatch, cpus)
        monkeypatch.setattr(predict, "_MIN_BLOCK_ROWS", 2)
        ops = _spy_on_ops(monkeypatch)
        products = []
        matmul = np.matmul

        def spy(a, b, **kw):
            products.append((a.shape, b.shape))
            return matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        J = joint_distribution(evolve_joint(B, arm1, arm2), det)
        assert J.density.tobytes() == dens.tobytes()

        # a delta source's leading mask acts on its pump, so every arm-1 op
        # sees only the live rows; the product only the live columns, and
        # never fewer than two
        if SKIP_CASES[case][0] == "delta":
            assert ops and ops == [(live, g.n)] * len(ops)
        assert sorted({b for _, b in products}) == [(g.n, max(2, live))]
        assert sum(a[0] for a, _ in products) == g.n

    def test_all_zero_mask_is_dark(self, small_grid, monkeypatch):
        g = small_grid
        B = make_biphoton_delta_correlated(g, kappa=0.5)
        arm1 = (_open_mask(g, ()), Propagate(0.5, KZ))
        ops = _spy_on_ops(monkeypatch)
        with pytest.raises(DarkConditionalError):
            joint_distribution(evolve_joint(B, arm1, ()), DETECTORS["gaussian"])
        assert ops == [(0, g.n)]


class TestConditionalAndMarginal:
    def test_conditional_of_product_equals_marginal(self, small_grid, rng):
        u = random_field(small_grid, rng)
        v = random_field(small_grid, rng)
        B = BiphotonField(small_grid, np.outer(u.values, v.values))
        J = joint_distribution(B, DetectorProfile("point"))
        m = marginal_arm2(J)
        for x1 in (-2.0, 0.0, 1.5):
            c = conditional_from_joint(J, x1)
            assert np.max(np.abs(c.density - m.density)) <= 1e-10 * np.max(m.density)

    def test_conditional_normalized(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = joint_distribution(B, DetectorProfile("point"))
        c = conditional_from_joint(J, 0.5)
        assert abs(c.density.sum() * small_grid.dx - 1.0) <= 1e-12

    def test_bayes_reassembly(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = joint_distribution(B, DetectorProfile("point"))
        g = small_grid
        p1 = J.density.sum(axis=1) * g.dx
        rebuilt = np.stack(
            [p1[i] * conditional_from_joint(J, g.x[i]).density for i in range(g.n)]
        )
        assert np.max(np.abs(rebuilt - J.density)) <= 1e-12 * np.max(J.density)

    def test_dark_row_raises(self, small_grid):
        diag = np.zeros((small_grid.n, small_grid.n), dtype=complex)
        diag[small_grid.n // 2, small_grid.n // 2] = 1.0
        J = joint_distribution(BiphotonField(small_grid, diag), DetectorProfile("point"))
        with pytest.raises(DarkConditionalError):
            conditional_from_joint(J, small_grid.x[3])

    def test_marginal_normalized(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = joint_distribution(B, DetectorProfile("point"))
        m = marginal_arm2(J)
        assert abs(m.density.sum() * small_grid.dx - 1.0) <= 1e-12


class TestSymmetryAndEquivalence:
    def test_joint_symmetric_for_symmetric_setup(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=0.5)
        arm = (Propagate(1.0, KZ),)
        Psi = evolve_joint(B, arm, arm)
        J = joint_distribution(Psi, DetectorProfile("point"))
        assert np.max(np.abs(J.density - J.density.T)) <= 1e-10 * np.max(J.density)

    def test_equivalence_against_retrodictive_pipeline(self):
        g = make_grid(256, 16.0)
        half = 1.0
        t = (
            (np.abs(g.x - half) < 0.2) | (np.abs(g.x + half) < 0.2)
        ).astype(complex)
        setup = ImagingSetup(
            grid=g,
            arm1=(Propagate(F, KZ), FourierLens(), Mask(Field(g, t))),
            arm2=(),
            source=make_biphoton_delta_correlated(g, kappa=0.25),
            detector1=DetectorProfile("gaussian", center=0.25, sigma=0.2),
        )
        retro = run_retrodictive(setup).distribution
        oracle = conditional_from_joint(joint_for_setup(setup), 0.25)
        assert np.max(np.abs(retro.density - oracle.density)) <= 1e-8

    def test_equivalence_with_complex_mask(self):
        # phase masks exercise the conjugation bookkeeping between pipelines
        g = make_grid(256, 16.0)
        t = np.exp(1j * np.sin(1.3 * g.x)) * np.exp(-(g.x**2) / 18)
        setup = ImagingSetup(
            grid=g,
            arm1=(Propagate(F, KZ), FourierLens(), Mask(Field(g, t))),
            arm2=(Propagate(0.8, KZ),),
            source=make_biphoton_delta_correlated(g, kappa=0.25),
            detector1=DetectorProfile("gaussian", center=0.0, sigma=0.3),
        )
        retro = run_retrodictive(setup).distribution
        oracle = conditional_from_joint(joint_for_setup(setup), 0.0)
        assert np.max(np.abs(retro.density - oracle.density)) <= 1e-8


class TestMutualInformation:
    def test_independent_joint_has_zero_information(self, small_grid, rng):
        u = np.abs(random_field(small_grid, rng).values) ** 2 + 0.1
        v = np.abs(random_field(small_grid, rng).values) ** 2 + 0.1
        B = BiphotonField(small_grid, np.sqrt(np.outer(u, v)).astype(complex))
        J = joint_distribution(B, DetectorProfile("point"))
        assert mutual_information_bits(J, bins=16) <= 1e-12

    def test_diagonal_joint_carries_large_information(self, small_grid):
        B = make_biphoton_delta_correlated(small_grid, kappa=0.5)
        J = joint_distribution(B, DetectorProfile("point"))
        assert mutual_information_bits(J, bins=16) >= 2.0

    def test_bins_must_divide(self, small_grid):
        B = make_biphoton_delta_correlated(small_grid, kappa=0.5)
        J = joint_distribution(B, DetectorProfile("point"))
        with pytest.raises(ValueError):
            mutual_information_bits(J, bins=13)
