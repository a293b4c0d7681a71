import pytest

from vortexlab.coupled import continue_alpha, decoupled_state, make_problem
from vortexlab.fields import DivisorData
from vortexlab.surface import build_surface

# canonical off-grid marked points (well separated on the unit torus)
P_ZERO = (0.17137, 0.23731)
P_CONE = (0.67411, 0.29517)
P_PARA = (0.41871, 0.79213)

# sphere points as (lat, lon) radians
S_ZERO1 = (0.7123, 1.1001)
S_ZERO2 = (-0.51234, 4.0123)
S_PARA = (0.1517, 2.591)


@pytest.fixture(scope="session")
def torus32():
    return build_surface("torus", 32)


@pytest.fixture(scope="session")
def torus64():
    return build_surface("torus", 64)


@pytest.fixture(scope="session")
def sphere15():
    return build_surface("sphere", 15)


@pytest.fixture(scope="session")
def sphere31():
    return build_surface("sphere", 31)


@pytest.fixture(scope="session")
def gv_divisor():
    return DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),))


@pytest.fixture(scope="session")
def gv_problem64(torus64, gv_divisor):
    return make_problem(torus64, gv_divisor, tau=4.0, eps=0.1)


@pytest.fixture(scope="session")
def gv_state0(gv_problem64):
    return decoupled_state(gv_problem64, tol=1e-9)


@pytest.fixture(scope="session")
def gv_path(gv_problem64, gv_state0):
    return list(continue_alpha(gv_problem64, gv_state0,
                               gv_problem64.params.alpha_star, n_steps=8,
                               tol=1e-9))


@pytest.fixture(scope="session")
def gv_final(gv_path):
    return gv_path[-1]
