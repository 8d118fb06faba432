"""Spectral operators: derivatives, self-adjointness, curvature identity."""

import numpy as np
import pytest

from wittenlab import (
    bochner_residual,
    gamma2,
    gradient,
    hessian,
    integrate_mu,
    laplacian,
    mu_inner,
    witten_laplacian,
)
from wittenlab.geometry import _axis_derivative
from wittenlab.operators import (
    dealias_nyquist,
    random_band_limited,
    witten_laplacian_drift_form,
)


def complex_fft_derivative(manifold, f, axis, order):
    """Reference spectral derivative on the full complex FFT spectrum."""
    n = manifold.grid_sizes[axis]
    sym = (1j * manifold.wavenumbers(axis)) ** order
    if order % 2 == 1:
        sym[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    return np.real(np.fft.ifft(sym.reshape(shape) * np.fft.fft(f, axis=axis), axis=axis))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("model", ["circle_cos", "torus_32x48"])
def test_real_fft_derivative_matches_complex_reference(request, rng, model, order):
    M = request.getfixturevalue(model)
    for f in (random_band_limited(M, rng), rng.standard_normal(M.shape)):
        for axis in range(M.dim_n):
            ref = complex_fft_derivative(M, f, axis, order)
            got = _axis_derivative(M, f, axis, order)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_axis_derivative_rejects_other_orders(circle_cos):
    with pytest.raises(ValueError, match="order"):
        _axis_derivative(circle_cos, np.zeros(circle_cos.shape), 0, 3)


def test_dealias_zeroes_exactly_the_nyquist_planes(torus_32x48, rng):
    M = torus_32x48
    f = rng.standard_normal(M.shape)
    fh = np.fft.fftn(f)
    gh = np.fft.fftn(dealias_nyquist(M, f))
    nyquist = np.zeros(M.shape, dtype=bool)
    nyquist[16, :] = True
    nyquist[:, 24] = True
    scale = np.abs(fh).max()
    assert np.abs(gh[nyquist]).max() <= 1e-13 * scale
    assert np.abs(gh[~nyquist] - fh[~nyquist]).max() <= 1e-13 * scale


def test_gradient_constant(circle_flat):
    g = gradient(circle_flat, np.full(circle_flat.shape, 3.7))
    assert np.abs(g).max() < 1e-13


def test_gradient_circle_closed_form(circle_flat):
    x = circle_flat.axis_coordinates(0)
    g = gradient(circle_flat, np.sin(x))
    assert np.abs(g[0] - np.cos(x)).max() < 1e-12


def test_gradient_torus_closed_form(torus_flat):
    xs, ys = torus_flat.coordinates()
    g = gradient(torus_flat, np.cos(xs) + np.sin(ys))
    assert np.abs(g[0] + np.sin(xs)).max() < 1e-11
    assert np.abs(g[1] - np.cos(ys)).max() < 1e-11


def test_hessian_symmetry_and_values(torus_flat):
    xs, ys = torus_flat.coordinates()
    f = np.sin(xs) * np.cos(2 * ys)
    H = hessian(torus_flat, f)
    assert np.array_equal(H[0, 1], H[1, 0])
    assert np.abs(H[0, 0] + f).max() < 1e-10
    assert np.abs(H[0, 1] + 2 * np.cos(xs) * np.sin(2 * ys)).max() < 1e-10


def test_witten_laplacian_kernel_contains_constants(circle_cos, torus_cos):
    for M in (circle_cos, torus_cos):
        out = witten_laplacian(M, np.full(M.shape, 2.5))
        assert np.abs(out).max() < 1e-12


def test_witten_laplacian_flat_reduces_to_laplacian(circle_flat):
    x = circle_flat.axis_coordinates(0)
    f = np.sin(x)
    assert np.abs(witten_laplacian(circle_flat, f) + np.sin(x)).max() < 5e-12


def test_witten_laplacian_drift_closed_form(circle_cos):
    # L sin = -sin + sin cos for the cosine potential
    x = circle_cos.axis_coordinates(0)
    f = np.sin(x)
    expected = -np.sin(x) + np.sin(x) * np.cos(x)
    assert np.abs(witten_laplacian(circle_cos, f) - expected).max() < 1e-10


def test_divergence_vs_drift_form(circle_cos, torus_cos, rng):
    for M in (circle_cos, torus_cos):
        f = random_band_limited(M, rng)
        a = witten_laplacian(M, f)
        b = witten_laplacian_drift_form(M, f)
        assert np.abs(a - b).max() < 1e-9 * (1.0 + np.abs(a).max())


def test_self_adjointness_randomized(circle_cos, torus_cos, rng):
    for M in (circle_cos, torus_cos):
        for _ in range(5):
            f = random_band_limited(M, rng)
            h = random_band_limited(M, rng)
            a = mu_inner(M, f, witten_laplacian(M, h))
            b = mu_inner(M, h, witten_laplacian(M, f))
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_dirichlet_form_nonpositive(circle_cos, torus_cos, rng):
    for M in (circle_cos, torus_cos):
        for _ in range(5):
            f = random_band_limited(M, rng)
            assert mu_inner(M, f, witten_laplacian(M, f)) <= 1e-12


def test_integrate_constant_gives_measure(circle_cos):
    assert integrate_mu(circle_cos, np.ones(circle_cos.shape)) == pytest.approx(
        circle_cos.mu_total
    )


def test_integrate_sin_squared(circle_flat):
    x = circle_flat.axis_coordinates(0)
    assert integrate_mu(circle_flat, np.sin(x) ** 2) == pytest.approx(np.pi, rel=1e-13)


def test_integrate_normalized_density(circle_cos):
    f = np.full(circle_cos.shape, 1.0 / circle_cos.mu_total)
    assert integrate_mu(circle_cos, f) == pytest.approx(1.0, rel=1e-14)


def test_gamma2_flat_single_mode(circle_flat):
    x = circle_flat.axis_coordinates(0)
    out = gamma2(circle_flat, np.sin(x))
    assert np.abs(out - np.sin(x) ** 2).max() < 1e-11


def test_gamma2_with_potential(circle_cos):
    # (f'')^2 + phi'' (f')^2 in one dimension
    x = circle_cos.axis_coordinates(0)
    f = 0.7 + np.sin(x)
    expected = np.sin(x) ** 2 + (-np.cos(x)) * np.cos(x) ** 2
    assert np.abs(gamma2(circle_cos, f) - expected).max() < 1e-10


def test_gamma2_constant_field(circle_cos):
    assert np.abs(gamma2(circle_cos, np.full(circle_cos.shape, 1.3))).max() == 0.0


def test_bochner_residual_trivial(circle_flat):
    res = bochner_residual(circle_flat, np.zeros(circle_flat.shape))
    assert np.abs(res).max() == 0.0


def test_bochner_residual_single_modes(circle_flat, circle_cos):
    x = circle_flat.axis_coordinates(0)
    assert np.abs(bochner_residual(circle_flat, np.sin(x))).max() < 1e-10
    assert np.abs(bochner_residual(circle_cos, np.sin(2 * x))).max() < 1e-8


def test_bochner_residual_randomized(circle_cos, torus_cos, rng):
    for M in (circle_cos, torus_cos):
        for _ in range(10):
            f = random_band_limited(M, rng)
            scale = 1.0 + np.abs(f).max()
            assert np.abs(bochner_residual(M, f)).max() <= 1e-8 * scale * 10


def test_dimension_trace_inequalities(circle_cos, torus_cos, rng):
    # |hess f|^2 >= (lap f)^2 / n and the drift-corrected variant
    for M, m in ((circle_cos, 3.0), (torus_cos, 4.0)):
        n = M.dim_n
        grad_phi = gradient(M, M.potential)
        for _ in range(5):
            f = random_band_limited(M, rng)
            H = hessian(M, f)
            hess_sq = np.einsum("ab...,ab...->...", H, H)
            lap = laplacian(M, f)
            assert np.all(hess_sq >= lap**2 / n - 1e-9 * (1 + hess_sq.max()))
            Lf = witten_laplacian(M, f)
            drift = np.einsum("a...,a...->...", grad_phi, gradient(M, f))
            rhs = Lf**2 / m - drift**2 / (m - n)
            assert np.all(hess_sq >= rhs - 1e-9 * (1 + hess_sq.max()))


def test_field_validation(circle_flat):
    with pytest.raises(ValueError, match="shape"):
        gradient(circle_flat, np.zeros(7))
    bad = np.zeros(circle_flat.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        witten_laplacian(circle_flat, bad)


@pytest.mark.parametrize("name,transforms", [("circle_cos", 4), ("torus_32x48", 10)])
def test_gamma2_takes_the_hessian_from_its_own_gradient(request, rng, fft_calls, name, transforms):
    # one rfft/irfft pair per axis for the gradient and per axis for the
    # second derivatives, plus one pair for the mixed derivative on a torus
    M = request.getfixturevalue(name)
    f = random_band_limited(M, rng)
    assert M.potential_hessian is not None  # cached before counting
    fft_calls.clear()
    gamma2(M, f)
    assert sum(fft_calls.values()) == transforms
