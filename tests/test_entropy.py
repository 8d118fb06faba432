"""Entropy functionals, W-entropy decomposition, and normalization identities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from wittenlab import (
    build_series,
    entropy_H,
    entropy_second_derivative,
    evolve,
    flat_torus,
    initial_delta,
    kernel_state,
    make_state,
    phi_mK,
    phi_mK_prime,
    ricci_bakry_emery,
    stack_states,
    tilde_w_comparison,
    tilde_w_entropy,
    uniform_state,
    w_derivative_decomposition,
    w_entropy,
    w_monotonicity_check,
)
from wittenlab.entropy import _entropy_second_derivative, monotonicity_bound
from wittenlab.operators import (
    gradient,
    hessian,
    integrate_mu,
    random_band_limited,
    witten_laplacian,
)


def positive_test_state(M, rng, t=0.0):
    f = random_band_limited(M, rng, max_mode=3, scale=0.3)
    u = np.exp(f)
    return make_state(M, u / integrate_mu(M, u), t)


def mode_state(M, t, amplitude=0.9):
    x = M.axis_coordinates(0)
    u = (1.0 + amplitude * math.exp(-t) * np.cos(x)) / M.mu_total
    return make_state(M, u, t)


@pytest.mark.parametrize("model", ["circle_cos", "torus_32x48"])
def test_the_dissipation_rate_is_nonnegative_exactly(request, rng, model):
    """dH/dt = int |grad log u|^2 u dmu is a sum of nonnegative terms, so it
    is >= 0 bit for bit on every positive state, one or stacked, never a
    rounding below: the entropy checks gate on monotonicity alone."""
    M = request.getfixturevalue(model)
    fields = random_band_limited(M, rng, size=12)
    grid_axes = tuple(range(1, M.dim_n + 1))
    for lift in (1e-12, 1e-3, 1.0):
        rows = fields - fields.min(axis=grid_axes, keepdims=True) + lift
        states = [make_state(M, u, 0.1 * (i + 1)) for i, u in enumerate(rows)]
        assert all(entropy_H(s)[1] >= 0.0 for s in states)
        assert (entropy_H(stack_states(states))[1] >= 0.0).all()


# ---------------------------------------------------------------- phi_mK


def test_phi_normalization_at_zero_K():
    for m, t in ((1.0, 0.3), (3.0, 1.7)):
        assert phi_mK(t, m, 0.0) == pytest.approx(0.5 * m * (math.log(4 * math.pi * t) + 1))


def test_phi_prime_by_richardson():
    for m, K, t in ((2.0, 1.0, 0.5), (3.0, 0.25, 1.2), (1.0, 2.0, 0.05)):
        h = 1e-5 * t
        d1 = (phi_mK(t + h, m, K) - phi_mK(t - h, m, K)) / (2 * h)
        d2 = (phi_mK(t + h / 2, m, K) - phi_mK(t - h / 2, m, K)) / h
        richardson = (4 * d2 - d1) / 3
        assert richardson == pytest.approx(phi_mK_prime(t, m, K), rel=1e-9)


def test_phi_series_against_expi_oracle():
    # sum_{j>=1} x^j/(j j!) = Ei(x) - gamma - log x
    for K, t in ((0.5, 0.4), (1.0, 1.0), (2.5, 1.5)):
        x = 4 * K * t
        series = phi_mK(t, 2.0, K) - phi_mK(t, 2.0, 0.0)
        oracle = special.expi(x) - np.euler_gamma - math.log(x)
        assert series == pytest.approx(oracle, rel=1e-13)


def test_phi_small_t_linear_in_K():
    m, K = 2.0, 1.0
    for t in (1e-4, 1e-5):
        gap = phi_mK(t, m, K) - phi_mK(t, m, 0.0)
        assert gap == pytest.approx(0.5 * m * 4 * K * t, rel=1e-3)


def test_phi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi_mK(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        phi_mK(1.0, 2.0, -0.5)


# ---------------------------------------------------------------- H and its derivatives


def test_entropy_uniform(circle_cos):
    s = uniform_state(circle_cos, t=1.0)
    H, dH = entropy_H(s)
    assert H == pytest.approx(math.log(circle_cos.mu_total), rel=1e-13)
    assert abs(dH) < 1e-12
    assert abs(entropy_second_derivative(s)) < 1e-12


def test_entropy_against_fine_grid_oracle(circle_flat):
    from wittenlab import circle

    s = mode_state(circle_flat, 0.0, amplitude=0.5)
    H, dH = entropy_H(s)
    fine = circle(4096)
    s_fine = mode_state(fine, 0.0, amplitude=0.5)
    H_ref, dH_ref = entropy_H(s_fine)
    assert H == pytest.approx(H_ref, rel=1e-12)
    assert dH == pytest.approx(dH_ref, rel=1e-12)


def test_entropy_production_nonnegative(circle_cos, torus_cos, rng):
    for M in (circle_cos, torus_cos):
        for t in (0.1, 0.7):
            s = positive_test_state(M, rng, t)
            _, dH = entropy_H(s)
            assert dH >= 0.0


def test_entropy_increases_along_flow(circle_cos, rng):
    s0 = positive_test_state(circle_cos, rng)
    snaps = evolve(s0, [0.1, 0.3, 0.8, 2.0])
    H_vals = [entropy_H(s)[0] for s in snaps]
    assert all(b > a for a, b in zip(H_vals, H_vals[1:]))


def test_entropy_derivative_matches_finite_difference(circle_flat):
    # exact single-mode states; quadrature versus centered differences
    t0, d = 0.5, 1e-3
    H = {dt: entropy_H(mode_state(circle_flat, t0 + dt))[0] for dt in (-d, 0.0, d)}
    fd1 = (H[d] - H[-d]) / (2 * d)
    _, dH = entropy_H(mode_state(circle_flat, t0))
    assert abs(fd1 - dH) <= 1e-4 * abs(dH)
    fd2 = (H[d] - 2 * H[0.0] + H[-d]) / d**2
    d2H = entropy_second_derivative(mode_state(circle_flat, t0))
    assert abs(fd2 - d2H) <= 1e-3 * abs(d2H)


def test_second_derivative_sign_flat(circle_flat, rng):
    # nonnegative curvature of the flat model makes H concave
    for t in (0.2, 1.0):
        s = positive_test_state(circle_flat, rng, t)
        assert entropy_second_derivative(s) <= 0.0


@pytest.mark.parametrize("t", [0.005, 0.01, 0.02, 0.05])
def test_flat_circle_kernel_is_the_equality_case(circle_flat, t):
    """The Gaussian's log-Hessian is -1/(2t): T1 = 0 and H'' = -1/(2t^2) at
    m = 1, K = 0, also where much of the grid holds rounding-floor values
    of u, which a spectral derivative of log u rings on (T1 = -2.5e-2 at
    t = 0.005)."""
    s = initial_delta(circle_flat, 0, t0=t)
    assert s.kernel.analytic
    assert abs(w_derivative_decomposition(s, 1, 0.0).T1) <= 1e-14
    exact = -1.0 / (2.0 * t * t)
    assert abs(entropy_second_derivative(s) - exact) <= 1e-12 * abs(exact)


def exact_time_second_derivative(s):
    """H'' from u_t = Lu and u_tt = L^2 u: -int L^2u log u dmu - int (Lu)^2/u dmu."""
    M, u = s.manifold, s.u
    Lu = witten_laplacian(M, u)
    return -integrate_mu(M, witten_laplacian(M, Lu) * np.log(u)) - integrate_mu(M, Lu * Lu / u)


def test_second_derivative_matches_the_exact_time_identity(circle_cos):
    # the bundled torus_hamilton model from its exact start, and the ramp's
    # start on the cosine circle
    torus = flat_torus(64, potential={"family": "cosine", "params": {"a": 0.5, "k": 1}})
    (on_torus,) = evolve(initial_delta(torus, (0, 0), t0=0.05), [0.1])
    on_circle = initial_delta(circle_cos, 0, t0=0.1)
    for s, tol in ((on_torus, 1e-7), (on_circle, 1e-12)):
        (d2H,) = _entropy_second_derivative(s, None)
        exact = exact_time_second_derivative(s)
        assert abs(d2H - exact) <= tol * abs(exact)


# ---------------------------------------------------------------- W entropy


def test_w_uniform_closed_form(circle_cos):
    m, K, t = 3.0, 1.0, 0.8
    s = uniform_state(circle_cos, t=t)
    out = w_entropy(s, m, K)
    expected = math.log(circle_cos.mu_total) - phi_mK(t, m, K) - t * phi_mK_prime(t, m, K)
    assert out["W_mK"] == pytest.approx(expected, rel=1e-12)


def test_w_gaussian_rigidity_small_t():
    from wittenlab import circle

    M = circle(1024)
    s = kernel_state(M, (0,), 1e-3)
    out = w_entropy(s, 1.0, 0.0)
    assert abs(out["W_mK"]) < 1e-7


def test_corrected_entropy_decreases_under_hypothesis(circle_cos):
    m = 3.0
    K = ricci_bakry_emery(circle_cos, m).admissible_K
    from wittenlab import initial_delta

    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.1, 0.4, 1.0, 2.0])
    for s in snaps:
        out = w_entropy(s, m, K)
        assert out["dH_dt"] - phi_mK_prime(s.t, m, K) <= 0.0


def test_decomposition_uniform_closed_form(circle_flat):
    # with grad log u = 0 the three integrals collapse to constants
    m, K, t = 3.0, 0.7, 0.9
    n = 1
    s = uniform_state(circle_flat, t=t)
    dec = w_derivative_decomposition(s, m, K)
    assert dec.T1 == pytest.approx(-2 * t * n * (K / 2 + 1 / (2 * t)) ** 2, rel=1e-12)
    assert dec.T2 == pytest.approx(0.0, abs=1e-14)
    assert dec.T3 == pytest.approx(-(m - n) * (1 + K * t) ** 2 / (2 * t), rel=1e-12)
    assert dec.dW_dt_formula == pytest.approx(
        -(m / (2 * t)) * math.exp(4 * K * t) * (1 + 4 * K * t), rel=1e-12
    )


def test_decomposition_t3_zero_when_m_equals_n(circle_flat, rng):
    s = positive_test_state(circle_flat, rng, t=0.5)
    dec = w_derivative_decomposition(s, 1.0, 0.3)
    assert dec.T3 == 0.0


def test_decomposition_rejects_m_equals_n_nonconstant(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.5)
    with pytest.raises(ValueError, match="constant"):
        w_derivative_decomposition(s, 1.0, 0.3)


def test_t1_t3_always_nonpositive(circle_cos, torus_cos, rng):
    for M in (circle_cos, torus_cos):
        for t in (0.1, 0.6):
            s = positive_test_state(M, rng, t)
            dec = w_derivative_decomposition(s, M.dim_n + 2.0, 0.4)
            assert dec.T1 <= 0.0
            assert dec.T3 <= 0.0


def test_t2_nonpositive_under_admissible_K(circle_cos, rng):
    m = 2.0
    K = ricci_bakry_emery(circle_cos, m).admissible_K
    for t in (0.1, 0.5, 1.5):
        s = positive_test_state(circle_cos, rng, t)
        dec = w_derivative_decomposition(s, m, K)
        assert dec.T2 <= 1e-10


def test_decomposition_zero_K_matches_independent_terms(circle_cos, rng):
    """K = 0 reduction equals an independently coded three-term identity."""
    m = 3.0
    s = positive_test_state(circle_cos, rng, t=0.6)
    dec = w_derivative_decomposition(s, m, 0.0)
    assert dec.T4 == 0.0

    M, t, u = circle_cos, s.t, s.u
    logu = np.log(u)
    n = M.dim_n
    H = hessian(M, logu)[0, 0]
    G = gradient(M, logu)[0]
    gphi = gradient(M, M.potential)[0]
    ric = -np.cos(M.axis_coordinates(0)) - np.sin(M.axis_coordinates(0)) ** 2 / (m - n)
    t1 = -2 * t * integrate_mu(M, (H + 1 / (2 * t)) ** 2 * u)
    t2 = -2 * t * integrate_mu(M, ric * G**2 * u)
    t3 = -2 * t / (m - n) * integrate_mu(M, (gphi * G - (m - n) / (2 * t)) ** 2 * u)
    assert dec.T1 == pytest.approx(t1, abs=1e-10)
    assert dec.T2 == pytest.approx(t2, abs=1e-10)
    assert dec.T3 == pytest.approx(t3, abs=1e-10)


def test_series_formula_matches_finite_difference(circle_cos, rng):
    m = 3.0
    K = ricci_bakry_emery(circle_cos, m).admissible_K
    s0 = positive_test_state(circle_cos, rng)
    d = 1e-3
    centers = [0.1, 0.5]
    times = sorted({t + dt for t in centers for dt in (-d, 0.0, d)})
    snaps = evolve(s0, times, local_error=1e-11)
    series = build_series(snaps, m, K)
    for t in centers:
        i = int(np.argmin(np.abs(series.times - t)))
        res = abs(series.residual[i])
        assert res <= 1e-3 * (1 + abs(series.dW_dt_formula[i]))


def test_series_derives_its_formula_columns_read_only(circle_cos, rng):
    snaps = [positive_test_state(circle_cos, rng, t=t) for t in (0.2, 0.3, 0.5)]
    series = build_series(snaps, 3.0, 1.0)
    T = np.stack([series.T1, series.T2, series.T3, series.T4])
    assert np.array_equal(series.dW_dt_formula, T.sum(axis=0))
    assert np.array_equal(series.residual, series.dW_dt_numeric - T.sum(axis=0))
    assert np.array_equal(series.H_mK, series.H - series.Phi)
    assert series.monotonicity_bound is series.T4
    for name in ("H_mK", "dW_dt_formula", "residual"):
        value = getattr(series, name)
        assert value is getattr(series, name), name  # computed once
        assert not value.flags.writeable, name


def test_series_monotonicity_under_hypothesis(circle_cos):
    m = 3.0
    K = ricci_bakry_emery(circle_cos, m).admissible_K
    from wittenlab import initial_delta

    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.05, 0.1, 0.5, 1.0, 2.0])
    series = build_series(snaps, m, K)
    assert w_monotonicity_check(series)
    assert np.all(series.T1 <= 0)
    assert np.all(series.T3 <= 0)
    assert np.all(series.T2 <= 1e-10)


def test_monotonicity_bound_uniform_structure(circle_flat):
    # uniform state: T2 = 0 and dW/dt <= T4 comes from the signs of T1, T3
    m, K, t = 2.5, 0.4, 0.7
    s = uniform_state(circle_flat, t=t)
    dec = w_derivative_decomposition(s, m, K)
    assert dec.T2 == pytest.approx(0.0, abs=1e-14)
    assert dec.dW_dt_formula <= dec.T4


# ---------------------------------------------------------------- normalization comparison


def test_tilde_comparison_zero_K():
    out = tilde_w_comparison(2.0, 0.0, 0.7)
    assert out["Psi"] == 0.0
    assert out["d_dt_tPsi"] == 0.0
    assert out["identity_residual"] == 0.0


def test_tilde_comparison_spot_value():
    out = tilde_w_comparison(2.0, 1.0, 1.0)
    target = 5 * math.exp(4.0) - 4.0
    second = out["identity_residual"] + target
    assert second == pytest.approx(target, rel=1e-9)
    assert abs(out["identity_residual"]) <= 1e-9


def test_tilde_comparison_lattice():
    # ranges kept where the exponential terms stay small enough for an
    # absolute 1e-9 resolution in double precision
    for m in np.linspace(1.0, 5.0, 10):
        for K in np.linspace(0.0, 1.5, 10):
            for t in np.linspace(0.05, 1.2, 10):
                out = tilde_w_comparison(float(m), float(K), float(t))
                assert abs(out["identity_residual"]) <= 1e-9


def test_tilde_w_dual_path(circle_cos, rng):
    """W-tilde minus W equals d/dt(t Psi), computed two independent ways."""
    m, K = 3.0, 0.8
    (s,) = evolve(positive_test_state(circle_cos, rng), [0.6])
    w = w_entropy(s, m, K)["W_mK"]
    wt = tilde_w_entropy(s, m, K)["W_tilde"]
    offset = tilde_w_comparison(m, K, s.t)["d_dt_tPsi"]
    assert wt - w == pytest.approx(offset, abs=1e-6)


def test_monotonicity_bound_value():
    m, K, t = 2.0, 1.0, 1.0
    assert monotonicity_bound(t, m, K) == pytest.approx(-(5 * math.exp(4.0) - 4.0), rel=1e-12)


def test_series_on_shared_snapshot_fields_equals_fresh_states(torus_32x48, rng):
    # the second m reuses the fields the first cached on each snapshot
    snaps = [positive_test_state(torus_32x48, rng, t=t) for t in (0.2, 0.3, 0.5)]
    for m in (3.0, 4.5):
        K = ricci_bakry_emery(torus_32x48, m).admissible_K
        shared = build_series(snaps, m, K)
        fresh = build_series([replace(s) for s in snaps], m, K)
        for name in shared.__dataclass_fields__:
            assert np.array_equal(getattr(shared, name), getattr(fresh, name)), name
        for i, s in enumerate(snaps):
            dec = w_derivative_decomposition(replace(s), m, K)
            terms = (shared.T1[i], shared.T2[i], shared.T3[i], shared.T4[i])
            assert (dec.T1, dec.T2, dec.T3, dec.T4) == terms
