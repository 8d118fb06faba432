"""Construction, measures, curvature, distances, and ball ratios."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy import special

from wittenlab import (
    ball_volume_ratio_check,
    build_manifold,
    circle,
    flat_torus,
    geodesic_distance,
    ricci_bakry_emery,
)
from wittenlab.entropy import (
    build_series,
    monotonicity_bound,
    phi_mK,
    phi_mK_prime,
    tilde_w_comparison,
    tilde_w_entropy,
    w_derivative_decomposition,
    w_entropy,
)
from wittenlab.geometry import _ball_measures, _disk_weights, bakry_emery_tensor
from wittenlab.harnack import (
    hamilton_harnack_defect,
    integrated_harnack_check,
    integrated_harnack_checks,
    kernel_dt_log_bounds,
    li_yau_defect,
    sup_bound_defect,
)
from wittenlab.heatflow import evolve, initial_delta, kernel_state
from wittenlab.operators import gradient, hessian
from wittenlab.ricciflow import (
    fit_super_flow_constant,
    make_flow,
    margin_columns,
    super_ricci_flow_margin,
    w_decomposition_on_flow,
    w_entropy_on_flow,
)

from references import (
    bakry_emery_uncached,
    dense_operator,
    disk_weights_full_period,
    geodesic_distance_meshgrid,
)


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
        (
            {"model": "circle", "grid": 64,
             "potential": {"family": "cosine", "params": {"k": 1.5}}},
            "parameter k must be an integer",
        ),
        (
            {"model": "flat_torus_2d", "grid": 32,
             "potential": {"family": "cosine_sine", "params": {"l": "2"}}},
            "parameter l must be an integer",
        ),
        # grids are not truncated or parsed
        ({"model": "flat_torus_2d", "grid": [32.7, 32.9]}, "grid must be an integer"),
        ({"model": "circle", "grid": ["16"]}, "grid must be an integer"),
        ({"model": "circle", "grid": 16.0}, "grid must be an integer"),
        ({"model": "circle", "grid": True}, "grid must be an integer"),
        (
            {"model": "circle", "grid": 32,
             "potential": {"family": "cosine", "params": {"a": True}}},
            "parameter a must be a real number",
        ),
        (
            {"model": "flat_torus_2d", "grid": 32,
             "potential": {"family": "cosine_sine", "params": {"b": "0.5"}}},
            "parameter b must be a real number",
        ),
        # not a = 1.0
        (
            {"model": "circle", "grid": 32,
             "potential": {"family": "cosine", "params": {"amp": 0.5}}},
            r"'cosine' has no parameter\(s\) \['amp'\]",
        ),
        (
            {"model": "circle", "grid": 32,
             "potential": {"family": "cosine", "params": {"a": 0.5, "b": 0.5}}},
            r"'cosine' has no parameter\(s\) \['b'\]",
        ),
        # periods are not converted: not a circumference of 1.0 or 6.5
        ({"model": "circle", "grid": 64, "period": True}, "period must be a positive real"),
        ({"model": "circle", "grid": 64, "period": ["6.5"]}, "period must be a positive real"),
        # a cosine mode that does not fit the period would jump at the wrap
        (
            {"model": "circle", "grid": 64, "period": 5.0,
             "potential": {"family": "cosine", "params": {"k": 1}}},
            r"k=1 is not periodic on period 5.0",
        ),
        (
            {"model": "flat_torus_2d", "grid": 32, "period": [2 * np.pi, 7.0],
             "potential": {"family": "cosine_sine", "params": {"l": 2}}},
            r"l=2 is not periodic on period 7.0",
        ),
        # sampled potentials are checked before and after exp(-phi)
        (
            {"model": "circle", "grid": 16,
             "potential": {"family": "samples", "samples": [0.0] * 15 + [math.nan]}},
            "potential contains non-finite values",
        ),
        (
            {"model": "circle", "grid": 16,
             "potential": {"family": "samples", "samples": [0.0] * 15 + [800.0]}},
            "measure weights must be positive",
        ),
    ],
)
def test_build_rejections(config, message):
    with pytest.raises(ValueError, match=message):
        build_manifold(config)


@pytest.mark.parametrize("k,period", [(1, 4 * np.pi), (2, 3 * np.pi), (3, 2 * np.pi)])
def test_cosine_potentials_on_commensurate_periods_are_periodic(k, period):
    """k * period / (2 pi) whole: the potential's spectrum is one grid mode."""
    M = circle(64, period, {"family": "cosine", "params": {"a": 0.5, "k": k}})
    spectrum = np.abs(np.fft.rfft(M.potential))
    mode = round(k * period / (2 * np.pi))
    assert spectrum[mode] == pytest.approx(0.5 * 32)
    spectrum[mode] = 0.0
    assert spectrum.max() <= 1e-12 * 32


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


@pytest.mark.parametrize("build,n,potential,ms", [
    pytest.param(circle, 256, {"family": "cosine", "params": {"a": 1.0, "k": 1}},
                 (2.0, 3, 5.5, math.inf), id="circle_cos"),
    pytest.param(flat_torus, (32, 48), {"family": "cosine_sine", "params": {"b": 0.3, "l": 2}},
                 (3.0, 4, math.inf), id="torus_cosine_sine"),
    pytest.param(circle, 64, None, (1, 2.0), id="circle_flat"),
    pytest.param(flat_torus, 32, None, (2, 3.0), id="torus_flat"),
])
def test_curvature_is_built_once_per_m_and_equals_a_fresh_build(build, n, potential, ms):
    M = build(n, potential=potential)  # a new manifold: an empty cache
    for m in ms:
        tensor, values = bakry_emery_uncached(M, m)
        cached, cf = bakry_emery_tensor(M, m), ricci_bakry_emery(M, m)
        assert np.array_equal(cached, tensor)
        assert np.array_equal(cf.values, values)
        assert not cached.flags.writeable and not cf.values.flags.writeable
        assert bakry_emery_tensor(M, float(m)) is cached
        assert ricci_bakry_emery(M, float(m)) is cf
    assert sorted(M._bakry_emery_tensors) == sorted(map(float, ms))
    assert sorted(M._curvature_fields) == sorted(map(float, ms))


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


@pytest.mark.parametrize(
    "fixture,node",
    [
        ("circle_cos", (255,)),
        ("circle_cos", (100,)),
        ("torus_32x48", (31, 47)),
        ("torus_32x48", (13, 29)),
    ],
)
def test_geodesic_distance_equals_the_meshgrid_formula(request, fixture, node):
    M = request.getfixturevalue(fixture)
    assert np.array_equal(geodesic_distance(M, node), geodesic_distance_meshgrid(M, node))


def test_ball_ratio_flat_circle(circle_flat):
    rep = ball_volume_ratio_check(circle_flat, 2.0, 0.0, 0, 0.5, 1.0)
    assert rep.ratio == pytest.approx(2.0, rel=1e-9)
    assert rep.bound == pytest.approx(4.0, rel=1e-12)
    assert rep.ok


def test_ball_ratio_flat_torus_equality(torus_flat):
    rep = ball_volume_ratio_check(torus_flat, 2.0, 0.0, (0, 0), 0.5, 1.0)
    assert rep.ratio == pytest.approx(4.0, rel=1e-13)
    assert rep.ok


def _gauss_legendre_ball(a, x0, r, dim):
    """int of exp(-a cos x) over the ball of radius r centred at x = x0:
    200 Gauss-Legendre nodes in the radius, 1024 trapezoid angles on a disk."""
    s, w = np.polynomial.legendre.leggauss(200)
    if dim == 1:
        return float(np.exp(-a * np.cos(x0 + r * s)) @ w * r)
    rho, rho_w = 0.5 * r * (s + 1.0), 0.5 * r * w
    theta = np.arange(1024) * (2.0 * np.pi / 1024)
    ring = np.exp(-a * np.cos(x0 + np.multiply.outer(rho, np.cos(theta)))).mean(axis=1)
    return float(ring @ (2.0 * np.pi * rho * rho_w))


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
@pytest.mark.parametrize(
    "build,n,a,center",
    [
        pytest.param(circle, 256, 1.0, (37,), id="circle_256"),
        pytest.param(flat_torus, 64, 0.5, (11, 5), id="torus_hamilton"),  # the bundled model
    ],
)
def test_ball_measures_are_exact(build, n, a, center, r):
    M = build(n, potential={"family": "cosine", "params": {"a": a, "k": 1}})
    (measure,) = _ball_measures(M, center, [r])
    x0 = M.axis_coordinates(0)[center[0]]
    assert measure == pytest.approx(_gauss_legendre_ball(a, x0, r, M.dim_n), rel=5e-14)


@pytest.mark.parametrize(
    "n,r",
    [
        pytest.param(64, 0.3, id="0.3"),
        pytest.param(64, 1.0, id="1.0"),
        pytest.param(64, 2.5, id="2.5"),
        # 6,801 distinct |k| by 1,152 nodes: the cosine table takes several blocks
        pytest.param(256, 3.0, id="256x256-3.0"),
    ],
)
def test_disk_weights_match_bessel_j1(n, r):
    M = flat_torus(n)
    kx, ky = M.wavenumbers(0), M.wavenumbers(1)
    grid_k = np.unique(np.sqrt(np.add.outer(kx * kx, ky * ky)))
    k = np.concatenate([grid_k, np.linspace(0.0, 300.0, 601) / r])  # |k| r <= 300
    with np.errstate(invalid="ignore"):
        reference = np.where(k > 0.0, 2.0 * np.pi * r * special.j1(k * r) / k, np.pi * r * r)
    weights = _disk_weights(k, r)
    assert np.abs(weights - reference).max() <= 1e-13 * np.pi * r * r
    # the quarter-period rule against the whole period it folds; the whole
    # period's own distance from j1 reaches 4.5e-15 of pi r^2 at |k| r ~ 150
    assert np.abs(weights - disk_weights_full_period(k, r)).max() <= 5e-15 * np.pi * r * r


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
    assert M._wavenumber_square is M._wavenumber_square
    assert M._rfftn_wavenumber_square is M._rfftn_wavenumber_square
    assert M.measure_weights is M.measure_weights
    assert M.potential_gradient is M.potential_gradient
    assert M.potential_hessian is M.potential_hessian
    assert np.array_equal(M.density, np.exp(-M.potential))
    assert np.array_equal(M.sqrt_density, np.exp(-0.5 * M.potential))
    assert np.array_equal(M.measure_weights, np.exp(-M.potential) * M.cell_volume)
    assert np.array_equal(M.potential_gradient, gradient(M, M.potential))
    assert np.array_equal(M.potential_hessian, hessian(M, M.potential))
    assert np.abs(M.potential_hessian[0, 1]).max() > 0.1
    arrays = [M.potential, M.density, M.sqrt_density, M.measure_weights]
    arrays += [M._wavenumber_square, M._rfftn_wavenumber_square]
    arrays += [sym for axis in M._derivative_symbols for sym in axis]
    arrays += [M.potential_gradient, M.potential_hessian]
    for a in arrays:
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        M.density[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        M.potential_hessian[0, 1, 0, 0] = 1.0


# every entry that takes m, called with m and, where it takes one, K
M_RULE_CHECKS = {
    "bakry_emery_tensor": lambda M, snaps, m, K: bakry_emery_tensor(M, m),
    "w_derivative_decomposition": lambda M, snaps, m, K: w_derivative_decomposition(
        snaps[0], m, K
    ),
    "w_entropy": lambda M, snaps, m, K: w_entropy(snaps[0], m, K),
    "tilde_w_entropy": lambda M, snaps, m, K: tilde_w_entropy(snaps[0], m, K),
    "hamilton_harnack_defect": lambda M, snaps, m, K: hamilton_harnack_defect(
        snaps[0], m, K
    ),
    "li_yau_defect": lambda M, snaps, m, K: li_yau_defect(snaps[0], m),
    "sup_bound_defect": lambda M, snaps, m, K: sup_bound_defect(
        snaps[0], m, K, 2.0 * float(snaps[0].u.max())
    ),
    "integrated_harnack_check": lambda M, snaps, m, K: integrated_harnack_check(
        snaps, (0, 0), (3, 5), 0.1, 0.3, m, K
    ),
    "integrated_harnack_checks": lambda M, snaps, m, K: integrated_harnack_checks(
        snaps, [(0, 0)], [(3, 5)], 0.1, 0.3, m, K
    ),
    "kernel_dt_log_bounds": lambda M, snaps, m, K: kernel_dt_log_bounds(snaps, m, K),
    "build_series": lambda M, snaps, m, K: build_series(snaps, m, K),
    "ricci_bakry_emery": lambda M, snaps, m, K: ricci_bakry_emery(M, m),
    "ball_volume_ratio_check": lambda M, snaps, m, K: ball_volume_ratio_check(
        M, m, K, (0, 0), 0.5, 1.0
    ),
    "margin_columns": lambda M, snaps, m, K: margin_columns(
        make_flow(M, "static"), [(m, K)], [0.1, 0.3]
    ),
    "super_ricci_flow_margin": lambda M, snaps, m, K: super_ricci_flow_margin(
        make_flow(M, "static"), m, K, 0.1
    ),
    "fit_super_flow_constant": lambda M, snaps, m, K: fit_super_flow_constant(
        make_flow(M, "static"), m
    ),
    "w_decomposition_on_flow": lambda M, snaps, m, K: w_decomposition_on_flow(
        make_flow(M, "static"), snaps[0], m, K
    ),
    "w_entropy_on_flow": lambda M, snaps, m, K: w_entropy_on_flow(
        make_flow(M, "static"), snaps[0], m, K
    ),
}
WITHOUT_K = {"bakry_emery_tensor", "ricci_bakry_emery", "fit_super_flow_constant", "li_yau_defect"}
K_RULE_CHECKS = sorted(set(M_RULE_CHECKS) - WITHOUT_K)
# the closed forms that take m and K but no model
SCALAR_RULE_CHECKS = {
    "phi_mK": lambda M, snaps, m, K: phi_mK(0.5, m, K),
    "phi_mK_prime": lambda M, snaps, m, K: phi_mK_prime(0.5, m, K),
    "monotonicity_bound": lambda M, snaps, m, K: monotonicity_bound(0.5, m, K),
    "tilde_w_comparison": lambda M, snaps, m, K: tilde_w_comparison(m, K, 0.5),
}
# the Bakry-Emery tensor and what is built on it take m = inf (CD(-K, inf))
INFINITE_M_OK = {
    "bakry_emery_tensor", "ricci_bakry_emery", "fit_super_flow_constant",
    "super_ricci_flow_margin", "margin_columns",
}
NOT_A_FINITE_NUMBER = [True, "3", math.nan, math.inf, -math.inf]


@functools.lru_cache
def _torus_run(a):
    """A 32x32 torus with potential a cos x, and a kernel run on it at t = 0.1, 0.3."""
    M = flat_torus(32, potential={"family": "cosine", "params": {"a": a}})
    return M, evolve(initial_delta(M, (3, 5), t0=0.1), [0.1, 0.3])


@pytest.mark.parametrize("name", sorted(M_RULE_CHECKS))
def test_m_below_n_rejected_alike_and_m_equal_n_accepted(name):
    """One m rule: every entry gives the same message below n, and at m == n
    on a weighted model; m == n on a constant potential runs."""
    check = M_RULE_CHECKS[name]
    for a, m, message in (
        (0.0, 1.5, "dimension parameter m=1.5 below topological dimension n=2"),
        (0.5, 2.0, "dimension parameter m=2.0 equals topological dimension n=2, "
                   "which needs a constant potential"),
    ):
        with pytest.raises(ValueError) as info:
            check(*_torus_run(a), m, 0.0)
        assert str(info.value) == message
    check(*_torus_run(0.0), 2.0, 0.0)


@pytest.mark.parametrize("name", K_RULE_CHECKS)
def test_negative_K_rejected_alike(name):
    """One K rule: every entry that takes K rejects K < 0 with one message."""
    M, snaps = _torus_run(0.5)
    with pytest.raises(ValueError) as info:
        M_RULE_CHECKS[name](M, snaps, 3.0, -1.0)
    assert str(info.value) == "curvature constant K=-1.0 must be nonnegative"
    M_RULE_CHECKS[name](M, snaps, 3.0, 0.5)


@pytest.mark.parametrize("name", sorted({**M_RULE_CHECKS, **SCALAR_RULE_CHECKS}))
def test_m_and_K_that_are_not_finite_numbers_are_rejected_naming_them(name):
    """Bools, strings, NaN and inf raise ValueError naming m or K, from every
    public entry that takes them, as the config rejects them."""
    check = {**M_RULE_CHECKS, **SCALAR_RULE_CHECKS}[name]
    M, snaps = _torus_run(0.5)
    for m in NOT_A_FINITE_NUMBER:
        if m == math.inf and name in INFINITE_M_OK:
            check(M, snaps, m, 0.5)
            continue
        with pytest.raises(ValueError, match="^dimension parameter m must be a finite number"):
            check(M, snaps, m, 0.5)
    if name in WITHOUT_K:
        return
    for K in NOT_A_FINITE_NUMBER:
        with pytest.raises(ValueError, match="^curvature constant K must be a finite number"):
            check(M, snaps, 3.0, K)


@pytest.mark.parametrize("A", NOT_A_FINITE_NUMBER)
def test_sup_bound_A_that_is_not_a_finite_number_is_rejected_naming_it(A):
    M, snaps = _torus_run(0.5)
    with pytest.raises(ValueError, match="^A must be a finite number"):
        sup_bound_defect(snaps[0], 3.0, 0.5, A)


def test_axis_eigensystems_need_a_separable_potential(torus_non_separable):
    assert torus_non_separable.axis_eigensystems is None
    xs, ys = torus_non_separable.coordinates()
    M = flat_torus(
        (16, 24),
        potential={"family": "samples", "samples": np.cos(xs) + 0.5 * np.sin(2 * ys)},
    )
    systems = M.axis_eigensystems
    assert M.axis_eigensystems is systems
    for axis, ((left, lam, right), n) in enumerate(zip(systems, M.shape)):
        assert (left.shape, lam.shape, right.shape) == ((n, n - 1), (n - 1,), (n - 1, n))
        assert not any(a.flags.writeable for a in (left, lam, right))
        assert lam.max() <= 1e-12 < -lam.min()  # dissipative, constants kept
        # at tau = 0 the factor is the conjugated Nyquist projection
        v = (-1.0) ** np.arange(n)
        s = np.exp(-0.5 * M.potential.mean(axis=1 - axis))
        P = np.eye(n) - np.outer(v, v) / n
        assert np.abs(left @ right - P / s[:, None] * s[None, :]).max() <= 1e-12


def test_axis_eigensystems_take_one_eigh_per_axis(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    M = flat_torus((16, 24), potential={"family": "cosine_sine", "params": {"a": 0.5}})
    assert M.axis_eigensystems is not None
    assert shapes == [(15, 15), (23, 23)]


def test_symmetric_eigensystem_is_cached_read_only_and_the_fft_operator(circle_cos):
    M = circle_cos
    system = M.symmetric_eigensystem
    assert M.symmetric_eigensystem is system
    mu, V = system
    assert not (mu.flags.writeable or V.flags.writeable)
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.symmetric_eigensystem = None
    # S = rho^1/2 L rho^-1/2 of the FFT operator, dissipative, with the
    # constants and the Nyquist mode (invisible to D) in its kernel
    s = M.sqrt_density
    S = s[:, None] * dense_operator(M) / s[None, :]
    assert np.abs((V * mu) @ V.T - S).max() <= 1e-13 * np.abs(mu).max()
    assert np.abs(mu[-2:]).max() <= 1e-11 < -mu[-3]
    assert np.abs(V.T @ V - np.eye(M.shape[0])).max() <= 1e-13


def test_symmetric_eigensystem_on_every_circle_and_no_torus(
    circle_576, torus_cos, torus_32x48, torus_non_separable
):
    mu, V = circle_576.symmetric_eigensystem
    assert mu.shape == (576,) and V.shape == (576, 576)
    for M in (torus_cos, torus_32x48, torus_non_separable):
        with pytest.raises(ValueError, match="defined on circles, not on flat_torus_2d"):
            M.symmetric_eigensystem


NODE_TAKERS = {
    "geodesic_distance": lambda M, node: geodesic_distance(M, node),
    "kernel_state": lambda M, node: kernel_state(M, node, 0.1),
    "initial_delta": lambda M, node: initial_delta(M, node, t0=0.1),
    "ball_volume_ratio_check": lambda M, node: ball_volume_ratio_check(
        M, 2.0, 0.0, node, 0.5, 1.0
    ),
    "integrated_harnack_check": lambda M, node: integrated_harnack_check(
        [kernel_state(M, 0, 0.1), kernel_state(M, 0, 0.3)], 0, node, 0.1, 0.3, 2.0, 0.0
    ),
    # the node is the second pair's y: every node of the lists is checked
    "integrated_harnack_checks": lambda M, node: integrated_harnack_checks(
        [kernel_state(M, 0, 0.1), kernel_state(M, 0, 0.3)], [0, 0], [0, node],
        0.1, 0.3, 2.0, 0.0,
    ),
}


@pytest.mark.parametrize(
    "node,message",
    [
        (-1, r"node \[-1\] lies outside the grid \(64,\)"),  # no silent wrap-around
        (64, r"node \[64\] lies outside the grid \(64,\)"),
        ((3, 5), r"node \[3, 5\] needs 1 index\(es\) on model circle"),
    ],
)
@pytest.mark.parametrize("name", sorted(NODE_TAKERS))
def test_nodes_are_checked_against_the_grid(name, node, message):
    M = circle(64)
    with pytest.raises(ValueError, match=message):
        NODE_TAKERS[name](M, node)
    NODE_TAKERS[name](M, 63)
