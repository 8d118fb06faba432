"""Spectral differential operators on weighted periodic grids.

The drift Laplacian is assembled in divergence form,

    L f = exp(phi) div( exp(-phi) grad f ),

with Fourier differentiation for grad and div.  Because the first
derivative matrix is antisymmetric on the uniform periodic grid, the
divergence form is self-adjoint in the weighted inner product and
annihilates constants up to rounding, which is what the conservation and
integration-by-parts checks downstream rely on.  The expanded form
``lap f - grad(phi).grad(f)`` is kept as a cross-check only.

Every field is real, so all transforms are real FFTs on the half
spectrum: one spectral derivative (``geometry._axis_derivative``, a 1-D
``rfft``/``irfft`` pair per axis) serves the Laplacians and the one
gradient/Hessian pair (``geometry._gradient``/``_hessian``), which also
builds the manifold's cached grad and hess of phi, and the Nyquist
projection uses ``rfftn``/``irfftn``.  The weight ``exp(-phi)``, the
derivative symbols and the derivatives of phi are cached on the manifold
(see :class:`wittenlab.geometry.WeightedManifold`), so an apply of
:func:`witten_laplacian` is four 1-D real FFTs per axis and a few
pointwise products.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _axis_derivative, _gradient, _hessian

__all__ = [
    "gradient",
    "hessian",
    "laplacian",
    "witten_laplacian",
    "witten_laplacian_drift_form",
    "gamma2",
    "integrate_mu",
    "mu_inner",
    "bochner_residual",
    "dealias_nyquist",
    "random_band_limited",
]


def _check_field(manifold, f):
    f = np.asarray(f, dtype=float)
    if f.shape != manifold.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {manifold.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("field contains non-finite values")
    return f


def dealias_nyquist(manifold, f):
    """Project out the per-axis Nyquist modes.

    The first-derivative symbol is zero there, so content in those modes
    is invisible to the divergence-form operator; removing it keeps time
    stepping from accumulating frozen sawtooth components.
    """
    fh = _zero_nyquist_planes(manifold, np.fft.rfftn(f))
    return np.fft.irfftn(fh, s=manifold.shape, axes=tuple(range(manifold.dim_n)))


def _zero_nyquist_planes(manifold, fh):
    """Zero the per-axis Nyquist planes of Fourier coefficients, in place.

    Works on the full spectrum of ``fftn`` and on the half spectrum of
    ``rfftn``, whose last entry along the halved axis is the Nyquist mode.
    """
    for axis in range(manifold.dim_n):
        idx = [slice(None)] * manifold.dim_n
        idx[axis] = manifold.grid_sizes[axis] // 2
        fh[tuple(idx)] = 0.0
    return fh


def gradient(manifold, f):
    """Spectral gradient, shape (n, *grid)."""
    return _gradient(manifold, _check_field(manifold, f))


def hessian(manifold, f):
    """Spectral Hessian, shape (n, n, *grid); symmetric by construction."""
    return _hessian(manifold, _check_field(manifold, f))


def laplacian(manifold, f):
    """Flat Laplacian with the full second-derivative symbol."""
    f = _check_field(manifold, f)
    out = np.zeros(manifold.shape)
    for a in range(manifold.dim_n):
        out += _axis_derivative(manifold, f, a, 2)
    return out


def witten_laplacian(manifold, f):
    """Drift Laplacian in divergence form.

    Self-adjoint in the weighted inner product and mass conserving:
    both hold exactly in exact arithmetic because the spectral first
    derivative is antisymmetric on the uniform grid.
    """
    f = _check_field(manifold, f)
    density = manifold.density
    out = np.zeros(manifold.shape)
    for a in range(manifold.dim_n):
        flux = density * _axis_derivative(manifold, f, a, 1)
        out += _axis_derivative(manifold, flux, a, 1)
    return out / density


def witten_laplacian_drift_form(manifold, f):
    """Expanded form lap f - grad(phi).grad(f); cross-check only."""
    f = _check_field(manifold, f)
    return laplacian(manifold, f) - np.einsum(
        "a...,a...->...", manifold.potential_gradient, gradient(manifold, f)
    )


def integrate_mu(manifold, f):
    """Integral against the weighted measure (trapezoid on the grid)."""
    f = np.asarray(f, dtype=float)
    if f.shape != manifold.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {manifold.shape}")
    return float(np.sum(f * manifold.measure_weights))


def mu_inner(manifold, f, g):
    return integrate_mu(manifold, f * g)


def gamma2(manifold, f):
    """Iterated carre-du-champ |hess f|^2 + (Ric + hess phi)(grad f, grad f)."""
    f = _check_field(manifold, f)
    G = _gradient(manifold, f)
    return _gamma2(manifold, G, _hessian(manifold, f, G))


def _gamma2(manifold, G, H):
    """Gamma2 of a field from its gradient G and Hessian H; no transforms."""
    return np.einsum("ab...,ab...->...", H, H) + np.einsum(
        "ab...,a...,b...->...", manifold.potential_hessian, G, G
    )


def bochner_residual(manifold, f):
    """Residual of the curvature identity for the drift Laplacian.

    Computes L|grad f|^2 - 2 <grad f, grad Lf> - 2|hess f|^2
    - 2 (Ric + hess phi)(grad f, grad f) pointwise; vanishes for smooth
    fields up to spectral truncation.
    """
    f = _check_field(manifold, f)
    G = _gradient(manifold, f)
    sq = np.einsum("a...,a...->...", G, G)
    Lf = witten_laplacian(manifold, f)
    grad_Lf = gradient(manifold, Lf)
    term_cross = np.einsum("a...,a...->...", G, grad_Lf)
    return (
        witten_laplacian(manifold, sq)
        - 2.0 * term_cross
        - 2.0 * _gamma2(manifold, G, _hessian(manifold, f, G))
    )


def random_band_limited(manifold, rng, max_mode=None, scale=1.0):
    """Random real field with Fourier support in |k| <= max_mode per axis.

    Mode amplitudes decay like 1/(1+|k|) so that products of derivatives
    stay resolvable on the grid.  Used by the property tests and the
    seeded self-test of the command line runner.
    """
    if max_mode is None:
        max_mode = max(2, min(manifold.grid_sizes) // 8)
    out = np.zeros(manifold.shape)
    coords = manifold.coordinates()
    if manifold.dim_n == 1:
        x = coords[0]
        for k in range(1, max_mode + 1):
            a, b = rng.standard_normal(2)
            out += (a * np.cos(k * x) + b * np.sin(k * x)) / (1.0 + k)
    else:
        xs, ys = coords
        n_terms = 3 * max_mode
        kx = rng.integers(-max_mode, max_mode + 1, size=n_terms)
        ky = rng.integers(-max_mode, max_mode + 1, size=n_terms)
        for i in range(n_terms):
            if kx[i] == 0 and ky[i] == 0:
                continue
            a, b = rng.standard_normal(2)
            norm = 1.0 + math.hypot(kx[i], ky[i])
            phase = kx[i] * xs + ky[i] * ys
            out += (a * np.cos(phase) + b * np.sin(phase)) / norm
    return scale * out
