"""Spectral differential operators on weighted periodic grids.

The drift Laplacian is assembled in divergence form,

    L f = exp(phi) div( exp(-phi) grad f ),

with Fourier differentiation for grad and div.  Because the first
derivative matrix is antisymmetric on the uniform periodic grid, the
divergence form is self-adjoint in the weighted inner product and
annihilates constants up to rounding, which is what the conservation and
integration-by-parts checks downstream rely on.

Every field is real, so all transforms are real FFTs on the half
spectrum: one spectral derivative (``geometry._axis_derivative``, a 1-D
``rfft``/``irfft`` pair per axis) serves the Laplacians and the one
gradient/Hessian pair (``geometry._gradient``/``_hessian``), which also
builds the manifold's cached grad and hess of phi; the implicit
solver's preconditioner is one ``rfftn``/``irfftn`` pair over the grid
axes.  The Nyquist projection
(:func:`dealias_nyquist`) takes no transform: it is one rank-one update
per axis with the manifold's cached unit Nyquist vectors.  The
weight ``exp(-phi)``, the derivative symbols and the derivatives of phi
are cached on the manifold (see
:class:`wittenlab.geometry.WeightedManifold`), so an apply of
:func:`witten_laplacian` is four 1-D real FFTs per axis and a few
pointwise products.

Every function here also takes a stack of fields: any leading axes in
front of the grid axes index independent fields, and each field of the
stack gets exactly the values it gets alone (pocketfft transforms each
line of a stacked call as it transforms that line alone, and
``np.vecdot`` reduces each line by a dot product of its own).  Derivative
indices come first, so :func:`gradient` returns ``(n, *stack, *grid)``
and :func:`hessian` ``(n, n, *stack, *grid)``; :func:`integrate_mu` and
:func:`mu_inner` sum over the grid axes and return a float for one field
and an array of the stack's shape for a stack.

Computations over a stack whose temporaries grow with it (the
per-``m`` Harnack defects and entropy terms over a run's snapshots, the
self-test's random fields) take the stack in blocks of rows, at most
``_BLOCK_ELEMENTS`` grid values per temporary (see :func:`_row_blocks`).
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
    "gamma2",
    "integrate_mu",
    "mu_inner",
    "bochner_residual",
    "dealias_nyquist",
    "random_band_limited",
]


# Grid values per temporary of a blocked stack computation: 128 kB of
# doubles.  A 256-node circle takes 64 rows per block, a 64x64 torus 4.
_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(rows, row_elements):
    """Consecutive slices covering ``rows`` stack rows, each of at most
    ``_BLOCK_ELEMENTS // row_elements`` rows and at least one, for a
    computation whose largest temporary holds ``row_elements`` values per
    row."""
    step = max(1, _BLOCK_ELEMENTS // row_elements)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _grid_axes(manifold):
    return tuple(range(-manifold.dim_n, 0))


def _check_shape(manifold, f):
    f = np.asarray(f, dtype=float)
    if f.shape[f.ndim - manifold.dim_n:] != manifold.shape:
        raise ValueError(f"field shape {f.shape} does not end in grid {manifold.shape}")
    return f


def _check_field(manifold, f):
    f = _check_shape(manifold, f)
    if not np.isfinite(f).all():
        raise ValueError("field contains non-finite values")
    return f


def dealias_nyquist(manifold, f):
    """Project out the per-axis Nyquist modes.

    The first-derivative symbol is zero there, so content in those modes
    is invisible to the divergence-form operator; removing it keeps time
    stepping from accumulating frozen sawtooth components.

    The projection ``P = (x)_a (I - w_a w_a^T)`` is applied on the grid as
    one rank-one update per axis, ``f <- f - w_a (w_a . f)`` along axis a,
    with the manifold's cached unit Nyquist vectors ``w_a = (-1)^j /
    sqrt(N_a)`` (``WeightedManifold.nyquist_vectors``): per axis one dot
    product per grid line and two pointwise products, no FFT.  ``np.vecdot``
    reduces each line by a dot product of its own, so each field of a stack
    gets exactly the values it gets alone (a matrix product would reduce a
    stack in another order than one field).
    """
    f = _check_field(manifold, f)
    for axis, w in enumerate(manifold.nyquist_vectors, start=-manifold.dim_n):
        f = f - w * np.vecdot(f, w, axis=axis, keepdims=True)
    return f


def _zero_nyquist_planes(manifold, fh):
    """Zero the per-axis Nyquist planes of Fourier coefficients, in place.

    Works on the full spectrum of ``fftn`` and on the half spectrum of
    ``rfftn``, whose last entry along the halved axis is the Nyquist mode.
    The planes are indexed from the end, so leading stack axes are kept.
    """
    for axis in range(manifold.dim_n):
        idx = [slice(None)] * manifold.dim_n
        idx[axis] = manifold.grid_sizes[axis] // 2
        fh[(Ellipsis, *idx)] = 0.0
    return fh


def gradient(manifold, f):
    """Spectral gradient, shape (n, *stack, *grid)."""
    return _gradient(manifold, _check_field(manifold, f))


def hessian(manifold, f):
    """Spectral Hessian, shape (n, n, *stack, *grid); symmetric by construction."""
    return _hessian(manifold, _check_field(manifold, f))


def laplacian(manifold, f):
    """Flat Laplacian with the full second-derivative symbol."""
    f = _check_field(manifold, f)
    out = np.zeros(f.shape)
    for a in range(manifold.dim_n):
        out += _axis_derivative(manifold, f, a, 2)
    return out


def witten_laplacian(manifold, f):
    """Drift Laplacian in divergence form.

    Self-adjoint in the weighted inner product and mass conserving:
    both hold exactly in exact arithmetic because the spectral first
    derivative is antisymmetric on the uniform grid.
    """
    return _divergence_form(manifold, _check_field(manifold, f))


def _divergence_form(manifold, f, grad=None):
    """``exp(phi) div(exp(-phi) grad f)``, the one assembly of the drift
    Laplacian.  The first derivatives of f come from ``grad`` when the
    caller has the gradient, else one axis at a time as the sum needs them."""
    density = manifold.density
    out = None
    for a in range(manifold.dim_n):
        df = _axis_derivative(manifold, f, a, 1) if grad is None else grad[a]
        term = _axis_derivative(manifold, density * df, a, 1)
        if out is None:
            out = term
        else:
            out += term
    out /= density
    return out


def integrate_mu(manifold, f):
    """Integral against the weighted measure (trapezoid on the grid).

    A float for one field; for a stack, an array of the stack's shape.
    """
    f = _check_shape(manifold, f)
    total = (f * manifold.measure_weights).sum(axis=_grid_axes(manifold))
    return float(total) if f.ndim == manifold.dim_n else total


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


def random_band_limited(manifold, rng, max_mode=None, scale=1.0, size=None):
    """Random real field with Fourier support in |k| <= max_mode per axis.

    Each mode ``k`` (a grid mode index, so the field is periodic and
    band-limited on every period) gets ``(a cos + b sin)(2 pi k.x / L) /
    (1 + |k|)`` with standard normal ``a``, ``b``; the decay keeps products
    of derivatives resolvable on the grid.  A circle takes every mode
    ``1..max_mode``; a torus ``3 max_mode`` random modes, repeats summed
    and ``(0, 0)`` skipped.  The coefficients are drawn in bulk, in the
    order of one draw per mode, placed at ``k`` and ``-k`` of one Fourier
    array and summed by one inverse FFT.  Used by the property tests and
    the seeded self-test of the command line runner.

    ``size=None`` gives one field; ``size=k`` a stack of shape
    ``(k, *grid)`` whose rows equal ``k`` successive single calls, drawn
    in the same order and summed by one inverse FFT over the grid axes.
    A circle draws the coefficients of all rows at once, a torus its
    modes and coefficients row by row; either way every row's modes are
    placed by one ``np.add.at`` per sign.
    """
    if max_mode is None:
        max_mode = max(2, min(manifold.grid_sizes) // 8)
    shape = manifold.shape
    rows = 1 if size is None else size
    if manifold.dim_n == 1:
        # one draw for all rows: the stream of one (max_mode, 2) draw per row
        modes = np.broadcast_to(np.arange(1, max_mode + 1)[:, None], (rows, max_mode, 1))
        ab = rng.standard_normal((rows, max_mode, 2))
    else:
        # kx, ky and the coefficients of a row are drawn in turn, row by row
        n_terms = 3 * max_mode
        modes = np.empty((rows, n_terms, 2), dtype=int)
        ab = np.empty((rows, n_terms, 2))
        for i in range(rows):
            modes[i, :, 0] = rng.integers(-max_mode, max_mode + 1, size=n_terms)
            modes[i, :, 1] = rng.integers(-max_mode, max_mode + 1, size=n_terms)
            nonzero = modes[i].any(axis=1)  # (0, 0) takes no draw
            ab[i, nonzero] = rng.standard_normal((int(nonzero.sum()), 2))
    kept = modes.any(axis=2)
    row = np.nonzero(kept)[0]
    modes, (a, b) = modes[kept], ab[kept].T
    norm = 1.0 + np.sqrt(np.sum(modes * modes, axis=1))
    coef = (0.5 * math.prod(shape)) * (a - 1j * b) / norm
    spectrum = np.zeros((rows,) + shape, dtype=complex)
    np.add.at(spectrum, (row, *(modes % shape).T), coef)
    np.add.at(spectrum, (row, *(-modes % shape).T), coef.conj())
    out = scale * np.fft.ifftn(spectrum, axes=_grid_axes(manifold)).real
    return out[0] if size is None else out
