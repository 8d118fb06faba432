import collections
import os

# One BLAS thread: on small dense matrices (the per-axis eigh of the exact
# propagators) thread start-up costs far more than the arithmetic.  The
# thread pools are sized when numpy is first imported, which is below.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from wittenlab import circle, flat_torus  # noqa: E402


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


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counter of ``numpy.fft`` transform calls, by function name."""
    counts = collections.Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return counts
