import numpy as np
import pytest

from eigencoupler.coupling import build_joint_generator, build_pipeline
from eigencoupler.potential import Potential


@pytest.fixture(scope="session")
def dw_small():
    """Double well, eps = 0.1, oracle-size grid."""
    return build_pipeline("double_well", 0.1, 200)


@pytest.fixture(scope="session")
def dw_small_joint(dw_small):
    return build_joint_generator(dw_small.model, dw_small.gen)


@pytest.fixture(scope="session")
def fast_chain():
    """Single-well quadratic with an O(1) spectral gap: jump-heavy control
    used wherever the chain needs to move on short horizons."""
    pot = Potential(np.array([0.0, 0.0, 1.0]), name="x^2")
    return build_pipeline(pot, 0.5, 400, kappa=0.5)


@pytest.fixture(scope="session")
def fast_chain_decoupled():
    """Same quadratic control with zero eigenvector scale: constant rates."""
    pot = Potential(np.array([0.0, 0.0, 1.0]), name="x^2")
    return build_pipeline(pot, 0.5, 400, kappa=0.0, p=(1.0, 0.0))
