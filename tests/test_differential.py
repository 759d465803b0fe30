"""Randomized differential test of the stacked pipeline.

Random element chains in both arms, every detector shape, a delta or a
rank-2 dense source and one to four on-grid conditioning positions.  Each
sweep row must equal the single-position pipeline bit for bit, and must
agree with the forward Bayes oracle to the keystone tolerance.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biphoton import (
    DarkConditionalError,
    DetectorProfile,
    EdgeLeakageError,
    Field,
    FourierLens,
    ImagingSetup,
    Mask,
    Propagate,
    QuadraticPhase,
    SamplingGuardError,
    conditional_from_joint,
    joint_for_setup,
    make_biphoton_delta_correlated,
    make_grid,
    run_retrodictive,
    sweep_conditioning,
)
from biphoton.elements import compile_chain
from conftest import rank2_source

G = make_grid(64, 16.0)  # dx = 0.25


def complex_mask(seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.3, 1.0, G.n) * np.exp(2j * np.pi * rng.uniform(size=G.n))
    return Mask(Field(G, t))


# lens, propagation and the rest a third each, so alternating
# lens/propagation runs (the fusion-sensitive case) are common
ELEMENTS = st.one_of(
    st.builds(
        Propagate,
        z=st.floats(-20.0, 20.0),
        k_z=st.floats(10.0, 100.0),
    ),
    st.just(FourierLens()),
    st.one_of(
        st.builds(
            QuadraticPhase,
            f=st.one_of(st.floats(-10.0, -0.5), st.floats(0.5, 10.0)),
            k_z=st.floats(10.0, 100.0),
        ),
        st.integers(0, 2**32 - 1).map(complex_mask),
    ),
)

DETECTORS = st.one_of(
    st.builds(DetectorProfile, st.just("gaussian"), sigma=st.floats(0.5, 1.5)),
    st.builds(DetectorProfile, st.just("tophat"), width=st.floats(0.5, 3.0)),
    st.just(DetectorProfile("point")),
)


SOURCES = st.one_of(
    st.floats(1 / 1.5, 2.0).map(lambda kappa: make_biphoton_delta_correlated(G, kappa)),
    st.just(rank2_source(G)),
)


def stage_fields(r):
    return [r.alpha, *r.arm1_stages, r.alpha3, r.beta1, *r.arm2_stages, r.beta2]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    arm1=st.lists(ELEMENTS, max_size=4),
    arm2=st.lists(ELEMENTS, max_size=4),
    detector=DETECTORS,
    source=SOURCES,
    steps=st.lists(st.integers(-16, 16), min_size=1, max_size=4),
)
@example(  # routes differed by 2.3e-4 before such chains were rejected
    arm1=[FourierLens(), Propagate(1.0, 50.0), FourierLens()],
    arm2=[],
    detector=DetectorProfile("gaussian", sigma=0.6),
    source=make_biphoton_delta_correlated(G, 1.0),
    steps=[0],
)
def test_sweep_rows_match_single_runs_and_oracle(arm1, arm2, detector, source, steps):
    try:
        compile_chain(arm1)
        compile_chain(arm2)
    except ValueError:  # ambiguous lens chain: rejected by design
        assume(False)
    setup = ImagingSetup(G, tuple(arm1), tuple(arm2), source, detector)
    positions = [k * G.dx for k in steps]
    singles = []
    for x1 in positions:
        one = replace(setup, detector1=replace(detector, center=x1))
        try:
            singles.append(run_retrodictive(one))
        except (SamplingGuardError, EdgeLeakageError, DarkConditionalError):
            assume(False)
    rows = sweep_conditioning(setup, positions)
    assert len(rows) == len(positions)
    joint = joint_for_setup(setup)
    p1 = joint.density.sum(axis=1)
    for x1, row, single in zip(positions, rows, singles):
        assert all(
            same_bytes(a.values, b.values)
            for a, b in zip(stage_fields(row), stage_fields(single), strict=True)
        )
        assert same_bytes(row.distribution.density, single.distribution.density)
        assert row.distribution.conditioning_position == x1
        assert row.edge_fractions == single.edge_fractions
        # the oracle's rounding on a row grows as 1 / P(x1): rows lit at
        # 1e-11 of the brightest one differed from retro by 1e-6
        if p1[G.index_of(x1)] < 1e-6 * p1.max():
            continue
        oracle = conditional_from_joint(joint, x1).density
        assert np.max(np.abs(row.distribution.density - oracle)) <= 1e-8
