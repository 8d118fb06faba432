import numpy as np
import pytest

from wittenlab import circle, flat_torus


@pytest.fixture(scope="session")
def circle_flat():
    return circle(256)


@pytest.fixture(scope="session")
def circle_cos():
    return circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})


@pytest.fixture(scope="session")
def torus_flat():
    return flat_torus(64)


@pytest.fixture(scope="session")
def torus_cos():
    return flat_torus(64, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})


@pytest.fixture(scope="session")
def torus_32x48():
    """Non-square weighted torus: the real-FFT half axis differs per transform."""
    return flat_torus(
        (32, 48),
        potential={"family": "cosine_sine", "params": {"a": 0.5, "k": 1, "b": 0.3, "l": 2}},
    )


@pytest.fixture(scope="session")
def circle_cos_03():
    return circle(256, potential={"family": "cosine", "params": {"a": 0.3, "k": 1}})


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
