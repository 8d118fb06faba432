"""Construction, measures, curvature, distances, and ball ratios."""

import math

import numpy as np
import pytest

from wittenlab import (
    ball_volume_ratio_check,
    build_manifold,
    circle,
    flat_torus,
    geodesic_distance,
    ricci_bakry_emery,
)
from wittenlab.entropy import w_derivative_decomposition
from wittenlab.geometry import bakry_emery_tensor
from wittenlab.harnack import hamilton_harnack_defect
from wittenlab.heatflow import kernel_state
from wittenlab.operators import gradient, hessian


def bessel_i0(a, terms=60):
    """Modified Bessel I0 by its power series; oracle for cosine measures."""
    s = 0.0
    term = 1.0
    for j in range(terms):
        if j > 0:
            term *= (a * a / 4.0) / (j * j)
        s += term
    return s


def test_flat_circle_measure(circle_flat):
    assert circle_flat.mu_total == pytest.approx(2.0 * np.pi, rel=1e-14)


def test_cosine_circle_measure_vs_bessel_series(circle_cos):
    # int exp(-cos x) dx = 2 pi I0(1)
    expected = 2.0 * np.pi * bessel_i0(1.0)
    assert circle_cos.mu_total == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(7.9549, abs=5e-5)


def test_flat_torus_measure(torus_flat):
    assert torus_flat.mu_total == pytest.approx(4.0 * np.pi**2, rel=1e-14)


def test_torus_cosine_sine_measure():
    M = flat_torus(
        64,
        potential={"family": "cosine_sine", "params": {"a": 0.5, "k": 1, "b": 0.3, "l": 2}},
    )
    expected = 4.0 * np.pi**2 * bessel_i0(0.5) * bessel_i0(0.3)
    assert M.mu_total == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "config,message",
    [
        ({"model": "klein_bottle", "grid": 32}, "unsupported model"),
        ({"model": "circle", "grid": 12}, "even and >="),
        ({"model": "circle", "grid": 33}, "even and >="),
        ({"model": "circle", "grid": 64, "period": -1.0}, "positive"),
        (
            {
                "model": "circle",
                "grid": 64,
                "potential": {"family": "samples", "samples": [0.0] * 10},
            },
            "shape",
        ),
    ],
)
def test_build_rejections(config, message):
    with pytest.raises(ValueError, match=message):
        build_manifold(config)


def test_sampled_potential_roundtrip():
    phi = 0.3 * np.cos(np.arange(64) * 2 * np.pi / 64)
    M = build_manifold(
        {"model": "circle", "grid": 64, "potential": {"family": "samples", "samples": phi}}
    )
    assert np.allclose(M.potential, phi)


def test_flat_curvature_zero(circle_flat, torus_flat):
    for M, m in ((circle_flat, 2.0), (torus_flat, 3.0)):
        cf = ricci_bakry_emery(M, m)
        assert np.abs(cf.values).max() < 1e-12
        assert cf.admissible_K == 0.0


def test_cosine_circle_curvature_m2(circle_cos):
    # tensor is -cos x - sin^2 x; minimum of c^2 - c - 1 over [-1, 1] is -5/4
    x = circle_cos.axis_coordinates(0)
    cf = ricci_bakry_emery(circle_cos, 2.0)
    assert np.allclose(cf.values, -np.cos(x) - np.sin(x) ** 2, atol=1e-11)
    assert cf.admissible_K == pytest.approx(1.25, abs=2e-4)


def test_cosine_circle_curvature_m3(circle_cos):
    # (cos^2 x - 2 cos x - 1)/2 has its minimum -1 at x = 0, a grid node
    x = circle_cos.axis_coordinates(0)
    cf = ricci_bakry_emery(circle_cos, 3.0)
    assert np.allclose(cf.values, (np.cos(x) ** 2 - 2 * np.cos(x) - 1) / 2, atol=1e-11)
    assert cf.min_value == pytest.approx(-1.0, abs=1e-12)
    assert cf.admissible_K == pytest.approx(1.0, abs=1e-12)


def test_curvature_monotone_in_m(circle_cos, torus_cos):
    for M in (circle_cos, torus_cos):
        n = M.dim_n
        prev = ricci_bakry_emery(M, n + 0.5).values
        for m in (n + 1.0, n + 2.0, 2.0 * n + 2.0):
            cur = ricci_bakry_emery(M, m).values
            assert np.all(cur >= prev - 1e-12)
            prev = cur


def test_curvature_m_equals_n_requires_constant(circle_cos, circle_flat):
    with pytest.raises(ValueError, match="constant"):
        ricci_bakry_emery(circle_cos, 1.0)
    cf = ricci_bakry_emery(circle_flat, 1.0)
    assert cf.admissible_K == 0.0


def test_curvature_rejects_m_below_n(circle_flat):
    with pytest.raises(ValueError, match="below"):
        ricci_bakry_emery(circle_flat, 0.5)


def test_infinite_m_tensor(circle_cos):
    x = circle_cos.axis_coordinates(0)
    tensor = bakry_emery_tensor(circle_cos, math.inf)
    assert np.allclose(tensor[0, 0], -np.cos(x), atol=1e-11)


def test_geodesic_distance_circle(circle_flat):
    d = geodesic_distance(circle_flat, 0)
    assert d[0] == 0.0
    assert d.max() == pytest.approx(np.pi, rel=1e-12)
    assert np.allclose(d[1:], d[:0:-1])  # symmetric around the source


def test_geodesic_distance_torus(torus_flat):
    d = geodesic_distance(torus_flat, (0, 0))
    assert d[0, 0] == 0.0
    assert d[32, 32] == pytest.approx(np.pi * math.sqrt(2.0), rel=1e-12)
    assert d[1, 0] == pytest.approx(2 * np.pi / 64, rel=1e-12)


def test_ball_ratio_flat_circle(circle_flat):
    rep = ball_volume_ratio_check(circle_flat, 2.0, 0.0, 0, 0.5, 1.0)
    assert rep.ratio == pytest.approx(2.0, rel=1e-9)
    assert rep.bound == pytest.approx(4.0, rel=1e-12)
    assert rep.ok


def test_ball_ratio_flat_torus_equality(torus_flat):
    rep = ball_volume_ratio_check(torus_flat, 2.0, 0.0, (0, 0), 0.5, 1.0)
    assert rep.ratio == pytest.approx(4.0, rel=1e-8)
    assert rep.ok


def test_ball_ratio_cosine_under_hypothesis(circle_cos):
    K = ricci_bakry_emery(circle_cos, 2.0).admissible_K
    rep = ball_volume_ratio_check(circle_cos, 2.0, K, 0, 0.5, 1.0)
    assert rep.bound == pytest.approx(4.0 * math.exp(math.sqrt(K)), rel=1e-10)
    assert rep.ok


@pytest.mark.parametrize("r,R", [(1.0, 0.5), (0.5, 4.0)])
def test_ball_ratio_rejections(circle_flat, r, R):
    with pytest.raises(ValueError):
        ball_volume_ratio_check(circle_flat, 2.0, 0.0, 0, r, R)


def test_ball_ratio_sweep_under_hypothesis(circle_cos, torus_cos):
    for M, m in ((circle_cos, 2.0), (circle_cos, 3.0), (torus_cos, 3.0)):
        K = ricci_bakry_emery(M, m).admissible_K
        y = 0 if M.dim_n == 1 else (0, 16)
        for r, R in ((0.3, 0.9), (0.5, 1.5), (1.0, 2.0)):
            rep = ball_volume_ratio_check(M, m, K, y, r, R)
            assert rep.ok, (M.model, m, r, R, rep.ratio, rep.bound)


def test_determinism():
    cfg = {
        "model": "circle",
        "grid": 64,
        "period": 2 * np.pi,
        "potential": {"family": "cosine", "params": {"a": 0.5, "k": 2}},
    }
    a = build_manifold(cfg)
    b = build_manifold(cfg)
    assert np.array_equal(a.measure_weights, b.measure_weights)
    assert np.array_equal(a.potential, b.potential)


def test_derived_data_is_cached_and_read_only():
    # non-separable, so the off-diagonal Hessian of phi is nonzero
    shape = (32, 48)
    x, y = np.meshgrid(
        *(np.arange(n) * (2.0 * np.pi / n) for n in shape), indexing="ij"
    )
    phi = 0.5 * np.cos(x) + 0.3 * np.sin(y) + 0.2 * np.cos(x + y)
    M = flat_torus(shape, potential={"family": "samples", "samples": phi.tolist()})
    assert M.density is M.density
    assert M.sqrt_density is M.sqrt_density
    assert M._derivative_symbols is M._derivative_symbols
    assert M._rfftn_wavenumber_square is M._rfftn_wavenumber_square
    assert M.potential_gradient is M.potential_gradient
    assert M.potential_hessian is M.potential_hessian
    assert np.array_equal(M.density, np.exp(-M.potential))
    assert np.array_equal(M.sqrt_density, np.exp(-0.5 * M.potential))
    assert np.array_equal(M.potential_gradient, gradient(M, M.potential))
    assert np.array_equal(M.potential_hessian, hessian(M, M.potential))
    assert np.abs(M.potential_hessian[0, 1]).max() > 0.1
    arrays = [M.density, M.sqrt_density, M._rfftn_wavenumber_square]
    arrays += [sym for axis in M._derivative_symbols for sym in axis]
    arrays += [M.potential_gradient, M.potential_hessian]
    for a in arrays:
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        M.density[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        M.potential_hessian[0, 1, 0, 0] = 1.0


M_BELOW_N_CHECKS = {
    "bakry_emery_tensor": lambda M, s, m: bakry_emery_tensor(M, m),
    "w_derivative_decomposition": lambda M, s, m: w_derivative_decomposition(M, s, m, 0.0),
    "hamilton_harnack_defect": lambda M, s, m: hamilton_harnack_defect(M, s, m, 0.0),
    "ball_volume_ratio_check": lambda M, s, m: ball_volume_ratio_check(
        M, m, 0.0, (0, 0), 0.5, 1.0
    ),
}


@pytest.mark.parametrize("name", sorted(M_BELOW_N_CHECKS))
def test_m_below_n_rejected_alike_and_m_equal_n_accepted(name):
    """One m test: the same message below n, and m == n on a constant potential."""
    M = flat_torus(32)
    state = kernel_state(M, (3, 5), 0.1)
    check = M_BELOW_N_CHECKS[name]
    with pytest.raises(ValueError) as info:
        check(M, state, 1.5)
    assert str(info.value) == "dimension parameter m=1.5 below topological dimension n=2"
    check(M, state, 2.0)
