"""Forward oracle: joint evolution, Bayes conditioning, marginals."""

import multiprocessing
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    BiphotonField,
    DarkConditionalError,
    DetectorProfile,
    Field,
    FourierLens,
    ImagingSetup,
    JointDistribution,
    Mask,
    Propagate,
    QuadraticPhase,
    conditional_from_joint,
    evolve_joint,
    joint_for_setup,
    make_biphoton_delta_correlated,
    make_grid,
    marginal_arm2,
    mutual_information_bits,
    run_retrodictive,
    sweep_conditioning,
)
from biphoton import cli, predict
from biphoton.elements import apply_chain_forward
from biphoton.retrodict import DARK_WEIGHT
from conftest import dense_joint, random_field

F, KZ = 2.0, 50.0


def random_biphoton(grid, rng):
    v = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal(
        (grid.n, grid.n)
    )
    return BiphotonField(grid, v)


def bare_joint(Psi, det):
    """The joint of a bare pair amplitude: its setup with empty arms."""
    return joint_for_setup(ImagingSetup(Psi.grid, (), (), Psi, det))


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
        J = bare_joint(pump, det).density.tobytes()
        assert J == bare_joint(dense, det).density.tobytes()

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
        J = bare_joint(B, DetectorProfile("point"))
        pu = np.abs(u.values) ** 2 / (np.sum(np.abs(u.values) ** 2) * small_grid.dx)
        pv = np.abs(v.values) ** 2 / (np.sum(np.abs(v.values) ** 2) * small_grid.dx)
        ref = np.outer(pu, pv)
        assert np.max(np.abs(J.density - ref)) <= 1e-10 * np.max(ref)

    def test_delta_correlated_source_concentrates_on_diagonal(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=1.0)
        J = bare_joint(B, DetectorProfile("point"))
        off = J.density[~np.eye(grid16.n, dtype=bool)]
        assert np.all(off == 0)
        assert abs(J.density.sum() * grid16.dx**2 - 1.0) <= 1e-10

    def test_normalization_is_exact(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = bare_joint(B, DetectorProfile("gaussian", sigma=0.6))
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

    def rows_spy(d, g, c, cols):
        centres.append(np.array(c))
        return rows(d, g, c, cols)

    def pool_spy(workers):
        pools.append(workers)
        return pool(workers)

    monkeypatch.setattr(predict, "_detector_rows", rows_spy)
    monkeypatch.setattr(predict, "ThreadPoolExecutor", pool_spy)
    return centres, pools


def _spy_on_products(monkeypatch):
    """Record the operand shapes of every np.matmul."""
    products = []
    matmul = np.matmul

    def spy(a, b, **kw):
        products.append((a.shape, b.shape))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    return products


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
        dens = dense_joint(g, Psi.values, det)
        _affinity(monkeypatch, cpus)
        monkeypatch.setattr(predict, "_MIN_BLOCK_ROWS", 2)
        centres, pools = _spy_on_blocks(monkeypatch)
        J = bare_joint(Psi, det)
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
        setup = ImagingSetup(
            grid=g,
            arm1=(_open_mask(g, (n // 2, n // 2 + 9)),),
            arm2=(),
            source=make_biphoton_delta_correlated(g, kappa=0.5),
            detector1=DetectorProfile("gaussian", sigma=0.1),
        )
        _affinity(monkeypatch, cpus)
        centres, pools = _spy_on_blocks(monkeypatch)
        joint_for_setup(setup)
        assert [len(c) for c in centres] == sizes
        _assert_blocks_tile(centres, g)
        workers = min(cpus, len(sizes))
        assert pools == ([] if workers == 1 else [workers])

    def test_cpus_without_an_affinity_call(self, monkeypatch):
        # the only branch on platforms without os.sched_getaffinity
        setup = _benchmark_setup(512, "double-slit")
        ref = joint_for_setup(setup).density.tobytes()
        monkeypatch.delattr(predict.os, "sched_getaffinity", raising=False)
        assert predict._cpus() == (os.cpu_count() or 1)
        assert joint_for_setup(setup).density.tobytes() == ref

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


# shape -> the oracle-verify scenario's detector keys for it
BAND_DETECTORS = {
    "gaussian": "detector.sigma = 0.1\n",
    "tophat": "detector.shape = tophat\ndetector.width = 0.25\n",
    "point": "detector.shape = point\n",
}


class TestBandedProduct:
    @pytest.mark.parametrize("mask, n", [("double-slit", 2048), ("none", 1024)])
    @pytest.mark.parametrize("shape", sorted(BAND_DETECTORS))
    def test_bits_equal_the_dense_product(self, monkeypatch, shape, mask, n):
        # each block multiplies only its detector band, aligned to
        # _BAND_ALIGN columns; the zeros it leaves out change no bit of
        # the one-call dense product, on one CPU or two.  The double slit
        # takes the live-column route at n = 2048, the widest setup whose
        # dense product the tests pay for; with no mask every column enters
        setup = cli.build_setup(
            cli.parse_config(
                f"grid.n = {n}\ngrid.extent = {n / 32!r}\nkappa = 8\n"
                f"{BAND_DETECTORS[shape]}mask.kind = {mask}\n"
                "mask.width = 0.4\nmask.separation = 2.0\n"
            )
        )
        g, det = setup.grid, setup.detector1
        Psi = evolve_joint(setup.source, predict.forward_arm1_chain(setup.arm1), setup.arm2)
        dens = dense_joint(g, Psi.values, det).tobytes()

        products = _spy_on_products(monkeypatch)
        for cpus in (1, 2):
            _affinity(monkeypatch, cpus)
            products.clear()
            assert joint_for_setup(setup).density.tobytes() == dens
            # a silent fall-back to the full width would pass the bits
            k = [a[1] for a, _ in products]
            assert len(k) == g.n // predict._MIN_BLOCK_ROWS
            assert all(b[0] == a[1] for a, b in products)
            assert all(w < g.n and w % predict._BAND_ALIGN == 0 for w in k)


def _benchmark_setup(n, mask):
    """The benchmark's fig3-direct scenario: dx = 1/32, pump spot 8,
    Gaussian detector of sigma 0.1, the narrow slits."""
    return cli.build_setup(
        cli.parse_config(
            f"grid.n = {n}\ngrid.extent = {n / 32!r}\nkappa = 8\n"
            f"detector.sigma = 0.1\nmask.kind = {mask}\n"
            "mask.width = 0.4\nmask.separation = 2.0\n"
        )
    )


def _peak_of_joint(setup):
    """The tracemalloc peak of one joint_for_setup, in units of 16 n^2."""
    tracemalloc.start()
    try:
        J = joint_for_setup(setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return J, peak / (16 * setup.grid.n**2)


class TestMemory:
    @pytest.mark.parametrize("mask, bound", [("double-slit", 0.75), ("none", 4.01)])
    def test_peak_of_the_oracle(self, monkeypatch, mask, bound):
        # the benchmark's oracle-verify scenario at n = 1024 on two CPUs,
        # each of whose threads holds one block of the bank; the peak in
        # units of one n x n complex table.  With the double slit it is
        # Psi's live columns, the density's and the blocks: 0.35 on one
        # CPU, 0.46-0.62 on two as the threads' blocks overlap, where an
        # n x n float density alone would be 0.5; with no mask,
        # evolve_joint's four n x n tables (plus vectors of n)
        _affinity(monkeypatch, 2)
        assert _peak_of_joint(_benchmark_setup(1024, mask))[1] <= bound

    def test_peak_of_the_joint_alone(self, monkeypatch):
        # the product and its normalization on the no-mask oracle-verify
        # scenario at n = 1024 on two CPUs, where every column is live: the
        # density plus a bank block per thread, 1.63 x 16n^2.  The product
        # reads psi's rows in place; a copy of psi would add 1.0
        n = 1024
        setup = _benchmark_setup(n, "none")
        arm1 = predict.forward_arm1_chain(setup.arm1)
        psi, live = predict._live_columns(setup.source, arm1, setup.arm2)
        assert len(live) == n
        _affinity(monkeypatch, 2)
        tracemalloc.start()
        try:
            predict._joint(setup.grid, psi, live, setup.detector1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 16 * n**2

    def test_keystone_at_n_8192(self, monkeypatch):
        # the image-large-grid scenario, checked against its own oracle:
        # Psi's 26 live columns, the density's and a bank block per thread,
        # 0.04 x 16n^2 on two CPUs, where an n x n float density alone
        # would be 0.5 and a zero-filled Psi 1.0
        setup = _benchmark_setup(8192, "double-slit")
        _affinity(monkeypatch, 2)
        J, peak = _peak_of_joint(setup)
        assert peak <= 0.1
        xs = [k * setup.grid.dx for k in (-40, 0, 37)]
        for x1, r in zip(xs, sweep_conditioning(setup, xs)):
            oracle = conditional_from_joint(J, x1).density
            assert np.max(np.abs(r.distribution.density - oracle)) <= 1e-8


def _total_cases(n, rng):
    """(live, cols) for TestTotal: random column sets, few and many; each
    of the columns 0, 127, 128 and n - 1 alone with its dead (all-zero)
    neighbour; those columns together; every column."""
    big = n >= 4096  # each case builds a 128 MiB table
    sizes = [*rng.integers(1, min(n, 40) + 1, size=4 if big else 10)]
    sizes += [*rng.integers(1, n + 1, size=2 if big else 10)]
    sets = [np.sort(rng.choice(n, k, replace=False)) for k in sizes]
    edges = sorted({c for c in (0, 127, 128, n - 1) if c < n})
    lone = [np.sort([c, (c + 1) % n]) for c in edges]
    cases = []
    for live in sets + lone + [np.array(edges), np.arange(n)]:
        # densities over ten decades, so that the order of the sum shows
        cols = rng.random((n, len(live))) ** 3 * 10.0 ** rng.integers(-5, 5, len(live))
        cases.append((live, cols))
    for (live, cols), c in zip(cases[len(sets) : len(sets) + len(lone)], edges):
        cols[:, live != c] = 0.0
    return cases


class TestTotal:
    """predict._total is the whole table's sum without the table.  It
    rests on numpy's pairwise sum, as ``_detector_rows``' padded norm does:
    each block of 128 contiguous entries summed by its own unrolled loop,
    the block sums paired in a perfect binary tree.  A numpy that sums in
    another tree fails here, not in a joint's last bit."""

    @pytest.mark.parametrize("n", [8, 16, 64, 128, 256, 1024, 4096])
    def test_equals_the_sum_of_the_table(self, n):
        rng = np.random.default_rng(n)
        naive_differs = False
        for live, cols in _total_cases(n, rng):
            ref = float(predict._table(cols, live, n).sum()).hex()
            assert predict._total(cols, live, n).hex() == ref
            naive_differs |= float(cols.sum()).hex() != ref
        # the columns' own sum would not do, so the cases can tell
        assert naive_differs


def _mutual_information_of_table(d, bins):
    """mutual_information_bits by numpy's sums over the n x n table."""
    m = len(d) // bins
    p = d.reshape(bins, m, bins, m).sum(axis=(1, 3))
    p = p / p.sum()
    p1 = p.sum(axis=1, keepdims=True)
    p2 = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (p1 @ p2)[mask])))


# joints held as their live columns (the first two) or whole
TWO_FORMS = {
    "double-slit": lambda: _benchmark_setup(2048, "double-slit"),
    "lone-column": lambda: _coded_setup((40,), "empty"),
    "arm2": lambda: _coded_setup((40, 41), "propagate"),
    "no-mask": lambda: _benchmark_setup(512, "none"),
}


class TestTwoForms:
    """A joint held as its live columns and the same density held whole,
    as the constructor holds it, give every consumer the same bytes: those
    of numpy's sums over the n x n table."""

    @pytest.mark.parametrize("case", list(TWO_FORMS))
    def test_consumers_read_the_same_bytes(self, case):
        setup = TWO_FORMS[case]()
        g = setup.grid
        J = joint_for_setup(setup)
        d = J.density
        K = JointDistribution(g, d, setup.detector1)
        assert (len(J.live) < g.n) == (case in ("double-slit", "lone-column"))
        assert K.density.tobytes() == d.tobytes()
        for joint in (J, K):
            assert not joint.density.flags.writeable
            assert not joint.columns.flags.writeable
            assert (joint.density is joint.columns) == (len(joint.live) == g.n)
        lit = np.flatnonzero(d.sum(axis=1) * g.dx >= DARK_WEIGHT)
        assert lit.size
        for i in lit:
            ref = (d[i] / (float(d[i].sum()) * g.dx)).tobytes()
            assert conditional_from_joint(J, g.x[i]).density.tobytes() == ref
            assert conditional_from_joint(K, g.x[i]).density.tobytes() == ref
        ref = d.sum(axis=0) * g.dx
        ref /= ref.sum() * g.dx
        for bins in (2, 64):
            mi = _mutual_information_of_table(d, bins).hex()
            assert mutual_information_bits(J, bins).hex() == mi
            assert mutual_information_bits(K, bins).hex() == mi
        assert marginal_arm2(J).density.tobytes() == ref.tobytes()
        assert marginal_arm2(K).density.tobytes() == ref.tobytes()


def _scenario_setup(scenario, mask, shape, n):
    """A scenario with the benchmark's slits and a pump spot that fits
    every window, its detector a few samples wide; fourier-2f keeps its
    self-conjugate window."""
    extent = "" if scenario == "fourier-2f" else f"grid.extent = {n / 32!r}\n"
    cfg = cli.parse_config(
        f"scenario = {scenario}\ngrid.n = {n}\n{extent}kappa = 2\n"
        f"detector.shape = {shape}\nmask.kind = {mask}\n"
        "mask.width = 0.4\nmask.separation = 2.0\n"
    )
    dx = cfg.extent / n
    return cli.build_setup(replace(cfg, detector_sigma=3 * dx, detector_width=4 * dx))


# the scenario x mask x shape grid at n = 256 and 512, and the double
# slit at n = 2048
LIVE_GRID = [
    (scenario, mask, shape, n)
    for n in (256, 512)
    for scenario in ("fig3-direct", "custom", "fourier-2f")
    for mask in ("none", "slit", "double-slit")
    for shape in sorted(DETECTORS)
] + [("fig3-direct", "double-slit", shape, 2048) for shape in sorted(DETECTORS)]


def _coded_setup(open_at, arm2):
    """A delta source behind an arm-1 mask open at ``open_at`` and a
    propagation, in backward order, and ``arm2``: "empty", "mask" (zero
    at 100 <= i < 180) or "propagate"."""
    g = make_grid(256, 16.0)
    arm2 = {
        "empty": (),
        "mask": (_open_mask(g, [*range(100), *range(180, g.n)]),),
        "propagate": (Propagate(0.5, KZ),),
    }[arm2]
    return ImagingSetup(
        grid=g,
        arm1=(Propagate(0.5, KZ), _open_mask(g, open_at)),
        arm2=arm2,
        source=make_biphoton_delta_correlated(g, kappa=0.5),
        detector1=DetectorProfile("gaussian", sigma=0.2),
    )


class TestLiveColumns:
    """joint_for_setup hands the evolution's live columns straight to the
    product, and gives the bytes of the dense product over the n x n table
    evolve_joint scatters them into."""

    def _assert_same_bytes(self, setup, monkeypatch):
        Psi = evolve_joint(setup.source, predict.forward_arm1_chain(setup.arm1), setup.arm2)
        ref = dense_joint(setup.grid, Psi.values, setup.detector1).tobytes()
        for cpus in (1, 2):
            _affinity(monkeypatch, cpus)
            assert joint_for_setup(setup).density.tobytes() == ref

    @pytest.mark.parametrize("scenario, mask, shape, n", LIVE_GRID)
    def test_scenarios(self, monkeypatch, scenario, mask, shape, n):
        self._assert_same_bytes(_scenario_setup(scenario, mask, shape, n), monkeypatch)

    @pytest.mark.parametrize("arm2", ["empty", "mask", "propagate"])
    @pytest.mark.parametrize(
        "open_at",
        [(0,), (40,), (255,), (40, 41), (7, 200), (3, 90, 91, 200)],
        ids=["first", "1", "last", "2", "2-apart", "4"],
    )
    def test_setups_built_in_code(self, monkeypatch, open_at, arm2):
        # one live column gets a dead neighbour, which wraps to column 0
        # for the last one; an arm-2 mask zeroes columns of the full table
        self._assert_same_bytes(_coded_setup(open_at, arm2), monkeypatch)

    @pytest.mark.parametrize("arm2", ["empty", "mask", "propagate"])
    def test_all_opaque_mask_is_dark(self, arm2):
        with pytest.raises(DarkConditionalError):
            joint_for_setup(_coded_setup((), arm2))

    def test_product_takes_only_the_live_columns(self, monkeypatch):
        # a silent fall-back to the zero-filled table would pass the bits
        setup = _benchmark_setup(512, "double-slit")
        products = _spy_on_products(monkeypatch)
        joint_for_setup(setup)
        assert products and all(1 < b[1] < setup.grid.n for _, b in products)


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
    # the mask acts on the pump, whose dead entries never become rows;
    # with an empty arm 2 only the live columns enter the product
    "delta-arm1-mask": ("delta", ["mask", "lens", "propagate"], [], range(20, 46)),
    # the same pair amplitude held dense enters whole: its dead columns
    # are multiplied as zeros
    "diagonal-arm1-mask": ("diagonal", ["mask", "lens", "propagate"], [], range(20, 46)),
    # dense source: it enters whole, and the arm-2 mask zeroes columns
    "dense-arm2-mask": ("dense", ["lens"], ["propagate", "mask"], range(20, 46)),
    "one-live-column": ("delta", ["mask", "propagate"], [], (40,)),
    # its dead neighbour wraps to column 0
    "last-live-column": ("delta", ["mask", "propagate"], [], (63,)),
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
    elif source == "diagonal":
        B = BiphotonField(g, make_biphoton_delta_correlated(g, kappa=0.5).values)
    else:
        B = make_biphoton_delta_correlated(g, kappa=0.5)
    return B, [elements[e] for e in arm1], [elements[e] for e in arm2], len(open_at)


class TestZeroSkip:
    """The live-column path that joint_for_setup runs after
    forward_arm1_chain, against a dense reference that evolves and
    multiplies every column on its own."""

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
        dens = dense_joint(g, psi, det).tobytes()

        _affinity(monkeypatch, cpus)
        monkeypatch.setattr(predict, "_MIN_BLOCK_ROWS", 2)
        products = _spy_on_products(monkeypatch)
        ops = _spy_on_ops(monkeypatch)
        J = predict._joint(g, *predict._live_columns(B, arm1, arm2), det)
        assert J.density.tobytes() == dens
        # a delta source's leading mask acts on its pump, so every arm-1 op
        # sees only the live rows, and with an empty arm 2 the product takes
        # only the live columns, never fewer than two (a lone one's dead
        # neighbour joins after arm 1); any other amplitude enters whole
        delta = SKIP_CASES[case][0] == "delta"
        if delta:
            assert ops and ops == [(live, g.n)] * len(ops)
        m = max(2, live) if delta else g.n
        assert products and all(b == (a[1], m) for a, b in products)
        assert sum(a[0] for a, _ in products) == g.n

    def test_dead_neighbour_holds_no_negative_zero(self, small_grid):
        # a lens then a chirp turn an evolved zero row into -0s in places;
        # the dead neighbour is added after arm 1, so evolve_joint's table
        # keeps +0 there, as it does in every other dead column
        g = small_grid
        B = make_biphoton_delta_correlated(g, kappa=0.5)
        arm1 = (_open_mask(g, (40,)), FourierLens(), QuadraticPhase(F, KZ))
        psi, live = predict._live_columns(B, arm1, ())
        assert list(live) == [40, 41]
        dead = psi[:, 1]
        assert not (np.signbit(dead.real) | np.signbit(dead.imag)).any()

    def test_all_zero_mask_is_dark(self, small_grid, monkeypatch):
        g = small_grid
        B = make_biphoton_delta_correlated(g, kappa=0.5)
        arm1 = (_open_mask(g, ()), Propagate(0.5, KZ))
        ops = _spy_on_ops(monkeypatch)
        det = DETECTORS["gaussian"]
        with pytest.raises(DarkConditionalError):
            predict._joint(g, *predict._live_columns(B, arm1, ()), det)
        assert ops == [(0, g.n)]
        with pytest.raises(DarkConditionalError):
            bare_joint(evolve_joint(B, arm1, ()), det)


class TestConditionalAndMarginal:
    def test_conditional_of_product_equals_marginal(self, small_grid, rng):
        u = random_field(small_grid, rng)
        v = random_field(small_grid, rng)
        B = BiphotonField(small_grid, np.outer(u.values, v.values))
        J = bare_joint(B, DetectorProfile("point"))
        m = marginal_arm2(J)
        for x1 in (-2.0, 0.0, 1.5):
            c = conditional_from_joint(J, x1)
            assert np.max(np.abs(c.density - m.density)) <= 1e-10 * np.max(m.density)

    def test_conditional_normalized(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = bare_joint(B, DetectorProfile("point"))
        c = conditional_from_joint(J, 0.5)
        assert abs(c.density.sum() * small_grid.dx - 1.0) <= 1e-12

    def test_bayes_reassembly(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = bare_joint(B, DetectorProfile("point"))
        g = small_grid
        p1 = J.density.sum(axis=1) * g.dx
        rebuilt = np.stack(
            [p1[i] * conditional_from_joint(J, g.x[i]).density for i in range(g.n)]
        )
        assert np.max(np.abs(rebuilt - J.density)) <= 1e-12 * np.max(J.density)

    def test_dark_row_raises(self, small_grid):
        diag = np.zeros((small_grid.n, small_grid.n), dtype=complex)
        diag[small_grid.n // 2, small_grid.n // 2] = 1.0
        J = bare_joint(BiphotonField(small_grid, diag), DetectorProfile("point"))
        with pytest.raises(DarkConditionalError):
            conditional_from_joint(J, small_grid.x[3])

    def test_off_grid_position_reports_its_row(self, grid16, rng):
        # at dx = 0.0625, x1 = 0.03 is nearest the row x = 0
        J = bare_joint(random_biphoton(grid16, rng), DetectorProfile("point"))
        c = conditional_from_joint(J, 0.03)
        assert c.conditioning_position == 0.0 == grid16.x[grid16.index_of(0.03)]
        assert c.density.tobytes() == conditional_from_joint(J, 0.0).density.tobytes()

    def test_marginal_normalized(self, small_grid, rng):
        B = random_biphoton(small_grid, rng)
        J = bare_joint(B, DetectorProfile("point"))
        m = marginal_arm2(J)
        assert abs(m.density.sum() * small_grid.dx - 1.0) <= 1e-12


class TestSymmetryAndEquivalence:
    def test_joint_symmetric_for_symmetric_setup(self, grid16):
        B = make_biphoton_delta_correlated(grid16, kappa=0.5)
        arm = (Propagate(1.0, KZ),)
        Psi = evolve_joint(B, arm, arm)
        J = bare_joint(Psi, DetectorProfile("point"))
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
        J = bare_joint(B, DetectorProfile("point"))
        assert mutual_information_bits(J, bins=16) <= 1e-12

    def test_diagonal_joint_carries_large_information(self, small_grid):
        B = make_biphoton_delta_correlated(small_grid, kappa=0.5)
        J = bare_joint(B, DetectorProfile("point"))
        assert mutual_information_bits(J, bins=16) >= 2.0

    def test_bins_must_divide(self, small_grid):
        B = make_biphoton_delta_correlated(small_grid, kappa=0.5)
        J = bare_joint(B, DetectorProfile("point"))
        for bins in (13, 1, 4.0, np.float64(4.0), "4"):
            with pytest.raises(ValueError, match=f"^bins .*; got {re.escape(repr(bins))}$"):
                mutual_information_bits(J, bins=bins)
