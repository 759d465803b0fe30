"""Route mutants: one-line faults in one route that the keystone check must see.

Each row patches one function in process.  The setup is complex and off
centre: a complex mask, a quadratic phase and a nonempty arm 2, conditioned
away from x1 = 0.  With an empty arm 2 none of these mutants shows, since
the arm-2 density |beta1|^2 ignores the phase they get wrong.  The table
is test data: dropping or weakening a row is a change to a check.
"""

import numpy as np
import pytest

from biphoton import (
    DetectorProfile,
    Field,
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
from biphoton.source import DeltaCorrelatedSource

KZ = 50.0


def _setup():
    g = make_grid(256, 16.0)
    t = 0.9 * np.exp(2j * np.sin(g.x)) * (np.abs(g.x) < 5)
    return ImagingSetup(
        grid=g,
        arm1=(Propagate(2.0, KZ), QuadraticPhase(3.0, KZ), Mask(Field(g, t))),
        arm2=(Propagate(1.0, KZ),),
        source=make_biphoton_delta_correlated(g, kappa=0.25),
        detector1=DetectorProfile("gaussian", center=float(g.x[140]), sigma=0.2),
    )


def _gap(setup):
    retro = run_retrodictive(setup).distribution.density
    oracle = conditional_from_joint(joint_for_setup(setup), setup.detector1.center)
    return float(np.max(np.abs(retro - oracle.density)))


# row -> (owner, attribute, mutant); gaps measured: 0.278, 1.19, 0.666, 0.278
MUTANTS = {
    "mask-backward-conjugated": (
        Mask,
        "backward",
        lambda self, v, g: np.conj(self.t.values) * v,
    ),
    "delta-project-arm1-unconjugated": (
        DeltaCorrelatedSource,
        "project_arm1",
        lambda self, a: self.grid.dx * (a * self.pump),
    ),
    "quadratic-phase-backward-unconjugated": (
        QuadraticPhase,
        "backward",
        lambda self, v, g: self._chirp(g) * v,
    ),
    "forward-arm1-chain-mask-unconjugated": (
        predict,
        "forward_arm1_chain",
        lambda arm1: list(reversed(tuple(arm1))),
    ),
}


def test_unmutated_routes_agree():
    assert _gap(_setup()) <= 1e-8  # measured 1.0e-15


@pytest.mark.parametrize("row", sorted(MUTANTS))
def test_mutant_is_seen(monkeypatch, row):
    owner, name, mutant = MUTANTS[row]
    monkeypatch.setattr(owner, name, mutant)
    assert _gap(_setup()) >= 0.1
