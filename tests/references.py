"""Independent reference implementations the tests compare the package against."""

import math

import numpy as np

from wittenlab.operators import gradient, laplacian

EIGEN_TRUNCATE = 1e-16  # eigen_sum_circle drops modes with exp(-lam t) below it


def eigen_sum_circle(theta, t, L):
    """Circle kernel by Fourier eigen-expansion, modes cut below ``EIGEN_TRUNCATE``.

    Independent of the image-sum route of ``wittenlab.kernels``; used as an
    oracle against it.
    """
    if t <= 0.0:
        raise ValueError("kernel time must be positive")
    theta = np.asarray(theta, dtype=float)
    out = np.ones_like(theta)
    k = 0
    while True:
        k += 1
        lam = (2.0 * math.pi * k / L) ** 2
        amp = math.exp(-lam * t)
        if amp < EIGEN_TRUNCATE:
            break
        out = out + 2.0 * amp * np.cos(2.0 * math.pi * k * theta / L)
        if k > 100000:
            break
    return out / L


def witten_laplacian_drift_form(manifold, f):
    """Expanded form lap f - grad(phi).grad(f) of the drift Laplacian, which
    ``wittenlab.operators.witten_laplacian`` assembles in divergence form."""
    return laplacian(manifold, f) - np.einsum(
        "a...,a...->...", manifold.potential_gradient, gradient(manifold, f)
    )
