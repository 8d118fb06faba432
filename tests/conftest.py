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
def torus_non_separable():
    """16x24 torus with potential cos(x + y): no per-axis factors, so it is
    time stepped and its implicit solves run conjugate gradients."""
    xs, ys = flat_torus((16, 24)).coordinates()
    return flat_torus((16, 24), potential={"family": "samples", "samples": np.cos(xs + ys)})


@pytest.fixture(scope="session")
def circle_cos_03():
    return circle(256, potential={"family": "cosine", "params": {"a": 0.3, "k": 1}})


@pytest.fixture(scope="session")
def circle_576():
    """Weighted circle finer than any bundled one: its solves stay direct."""
    return circle(576, potential={"family": "cosine", "params": {"a": 0.5, "k": 2}})


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


@pytest.fixture()
def advance_steps(monkeypatch):
    """The step sizes ``heatflow._advance`` is called with, in call order:
    three per attempted step of the step-doubling control (dt, dt/2, dt/2)."""
    from wittenlab import heatflow

    steps = []
    advance = heatflow._advance

    def recording(manifold, u, dt, Lu=None):
        steps.append(dt)
        return advance(manifold, u, dt, Lu)

    monkeypatch.setattr(heatflow, "_advance", recording)
    return steps


@pytest.fixture(scope="session")
def check_runs():
    """Four kernel runs the stacked checks are compared on, by name: ``(snapshots,
    flow)``, flow None off a flow.  Five snapshots each, so blocks of two rows
    end in a partial block."""
    from wittenlab import evolve, initial_delta, make_flow
    from wittenlab.ricciflow import evolve_heat_on_flow

    times = [0.1, 0.12, 0.15, 0.2, 0.3]
    weighted = circle(64, potential={"family": "cosine", "params": {"a": 0.5, "k": 1}})
    torus = flat_torus(32, potential={"family": "cosine_sine", "params": {"a": 0.5, "b": 0.3}})
    flat = circle(64)
    flow = make_flow(weighted, "constant_rate", {"rate": -0.4}, horizon=1.0)
    start = initial_delta(weighted, 0, t0=0.05)
    return {
        # Crank-Nicolson from the implicit Euler ramp
        "weighted_circle": (evolve(start, times, local_error=1e-6), None),
        # exact per-axis propagation
        "separable_torus": (evolve(initial_delta(torus, (3, 5), t0=0.1), times), None),
        # the first snapshot is the closed-form start, the others numerical
        "flat_circle_kernel_start": (evolve(initial_delta(flat, 0, t0=0.1), times), None),
        "conformal_flow": (evolve_heat_on_flow(flow, start, times, local_error=1e-6), flow),
    }
