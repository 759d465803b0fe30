import numpy as np
import pytest

from biphoton import BiphotonField, Field, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def random_field(grid, rng):
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return Field(grid, v)


def rank2_source(grid):
    """A dense rank-2 pair amplitude: two product terms with distinct
    centres, widths and phase tilts."""
    x = grid.x

    def bump(c, w, tilt):
        return np.exp(-((x - c) ** 2) / (2 * w**2) + 1j * tilt * x)

    B = np.outer(bump(-0.5, 1.5, 0.7), bump(1.0, 0.8, -1.1)) + (0.6 - 0.3j) * np.outer(
        bump(0.8, 1.2, -0.4), bump(-1.2, 0.6, 2.0)
    )
    return BiphotonField(grid, B)


@pytest.fixture
def grid16():
    return make_grid(256, 16.0)


@pytest.fixture
def small_grid():
    return make_grid(64, 16.0)
