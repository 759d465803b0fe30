"""Route mutants: one-line faults in one route that the keystone check must see.

Each row patches one function in process and names the setup it runs on.
Every setup is complex and off centre: a complex mask and a nonempty arm
2, conditioned away from x1 = 0.  With an empty arm 2 none of the
"complex-delta" mutants shows, since the arm-2 density |beta1|^2 ignores
the phase they get wrong.  A lone lens needs its own setup, as does a
dense source: on "complex-delta" their mutants showed gaps of 1e-15.  The
table is test data: dropping or weakening a row is a change to a check.
"""

import numpy as np
import pytest

from biphoton import (
    BiphotonField,
    DetectorProfile,
    Field,
    FourierLens,
    ImagingSetup,
    Mask,
    Propagate,
    QuadraticPhase,
    conditional_from_joint,
    joint_for_setup,
    make_biphoton_delta_correlated,
    make_grid,
    run_retrodictive,
)
from biphoton import predict
from biphoton.elements import _LensOp
from biphoton.source import DeltaCorrelatedSource
from conftest import rank2_source

KZ = 50.0
G = make_grid(256, 16.0)
MASK = Mask(Field(G, 0.9 * np.exp(2j * np.sin(G.x)) * (np.abs(G.x) < 5)))


def _setup(arm1, source, sigma):
    return ImagingSetup(
        grid=G,
        arm1=arm1,
        arm2=(Propagate(1.0, KZ),),
        source=source,
        detector1=DetectorProfile("gaussian", center=float(G.x[140]), sigma=sigma),
    )


# setup -> (arm 1 in backward order, source, detector sigma)
SETUPS = {
    "complex-delta": (
        (Propagate(2.0, KZ), QuadraticPhase(3.0, KZ), MASK),
        make_biphoton_delta_correlated(G, kappa=0.25),
        0.2,
    ),
    # at sigma = 0.2 the rolled lens showed only 0.049
    "lens-delta": ((FourierLens(), MASK), make_biphoton_delta_correlated(G, kappa=0.25), 0.5),
    "lens-dense": ((FourierLens(), MASK), rank2_source(G), 0.2),
}


def _gap(setup):
    retro = run_retrodictive(setup).distribution.density
    oracle = conditional_from_joint(joint_for_setup(setup), setup.detector1.center)
    return float(np.max(np.abs(retro - oracle.density)))


_lens_backward = _LensOp.backward

# row -> (setup, owner, attribute, mutant); gaps measured: 0.278, 1.19,
# 0.666, 0.278, 0.257, 0.362, 0.616
MUTANTS = {
    "mask-backward-conjugated": (
        "complex-delta",
        Mask,
        "backward",
        lambda self, v, g: np.conj(self.t.values) * v,
    ),
    "delta-project-arm1-unconjugated": (
        "complex-delta",
        DeltaCorrelatedSource,
        "project_arm1",
        lambda self, a: self.grid.dx * (a * self.pump),
    ),
    "quadratic-phase-backward-unconjugated": (
        "complex-delta",
        QuadraticPhase,
        "backward",
        lambda self, v, g: self._chirp(g) * v,
    ),
    "forward-arm1-chain-mask-unconjugated": (
        "complex-delta",
        predict,
        "forward_arm1_chain",
        lambda arm1: list(reversed(tuple(arm1))),
    ),
    "lens-backward-rolled": (
        "lens-delta",
        _LensOp,
        "backward",
        lambda self, v, g: np.roll(_lens_backward(self, v, g), 1, axis=-1),
    ),
    "dense-project-arm1-transposed": (
        "lens-dense",
        BiphotonField,
        "project_arm1",
        lambda self, a: self.grid.dx * (np.conj(a)[..., None, :] @ self.values.T)[..., 0, :],
    ),
    "dense-project-arm1-unconjugated": (
        "lens-dense",
        BiphotonField,
        "project_arm1",
        lambda self, a: self.grid.dx * (a[..., None, :] @ self.values)[..., 0, :],
    ),
}


def test_unmutated_routes_agree():
    # measured 1.0e-15, 1.3e-15, 6.7e-16
    gaps = {name: _gap(_setup(*setup)) for name, setup in SETUPS.items()}
    assert max(gaps.values()) <= 1e-8, gaps


@pytest.mark.parametrize("row", sorted(MUTANTS))
def test_mutant_is_seen(monkeypatch, row):
    name, owner, attribute, mutant = MUTANTS[row]
    monkeypatch.setattr(owner, attribute, mutant)
    assert _gap(_setup(*SETUPS[name])) >= 0.1
