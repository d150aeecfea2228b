import numpy as np
import pytest

import qmme
from qmme.presets import PRESETS

MODELS = {}


def _bundle_for(name):
    if name not in MODELS:
        model = PRESETS[name]()
        bundle = qmme.build_generator(model)
        MODELS[name] = (model, bundle, qmme.DynamicalMap(model, bundle))
    return MODELS[name]


@pytest.fixture(scope="session")
def q1():
    return _bundle_for("qubit_dephasing")


@pytest.fixture(scope="session")
def q2():
    return _bundle_for("qubit_driven")


@pytest.fixture(scope="session")
def q2_periodic():
    return _bundle_for("qubit_driven_periodic")


@pytest.fixture(scope="session")
def q3():
    return _bundle_for("qutrit_thermal")


@pytest.fixture(scope="session")
def q3_static():
    return _bundle_for("qutrit_thermal_static")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def block_keys(jumps):
    """The (frequency_index, n) tuple of each block of a jump operator set, from its key arrays."""
    return list(zip(jumps.frequency_index.tolist(), map(tuple, jumps.fourier_index.tolist())))


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)
