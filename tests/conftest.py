import itertools

import pytest

from drlab.curve import curve_from_h, solve_curve
from drlab.drivers import (ZSpecContinuous, ZSpecDiscrete, make_affine_psi,
                           make_fig1_clamped_psi, make_fig1_psi)
from drlab.models import make_clf_model, make_lf_model
from drlab.recursion import OrbitState, _orbit


def step(state: OrbitState, psi) -> OrbitState:
    """Advance one step of the recursion; a true zero of u is absorbing."""
    _, (u, v, log_u, _) = itertools.islice(_orbit(state, psi), 2)
    return OrbitState(state.n + 1, u, v, log_u)


@pytest.fixture(scope="session")
def z1_discrete():
    return ZSpecDiscrete(((1, 1.0),))


@pytest.fixture(scope="session")
def z1_continuous():
    return ZSpecContinuous(((1.0, 1.0),))


@pytest.fixture(scope="session")
def lf_model(z1_discrete):
    """The reference solvable model: p = 1/2, Z == 1, driver (1+2x)/(1+x)."""
    return make_lf_model(0.5, z1_discrete)


@pytest.fixture(scope="session")
def clf_model(z1_continuous):
    return make_clf_model(0.5, z1_continuous)


@pytest.fixture(scope="session")
def affine():
    return make_affine_psi()


@pytest.fixture(scope="session")
def fig1():
    return make_fig1_psi()


@pytest.fixture(scope="session")
def fig1_clamped():
    return make_fig1_clamped_psi()


@pytest.fixture(scope="session")
def fig1_curve(fig1):
    return solve_curve(fig1, 0.5, 1000)


@pytest.fixture(scope="session")
def lf_curve(lf_model):
    return solve_curve(lf_model.psi, 0.5, 1000)


@pytest.fixture(scope="session")
def clf_curve(clf_model):
    return solve_curve(clf_model.psi, 0.5, 1000)


@pytest.fixture(scope="session")
def fig1_exact_curve():
    """The exactly known curve of the fig1 driver, on a fine grid; the
    reference for experiments whose seed error must sit below 1e-11."""
    return curve_from_h(0.5, 200000, lambda xs: 0.5 * xs * xs)
