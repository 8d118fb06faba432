"""Conformal flows: conjugate coupling, margins, reductions, time change."""

import math

import numpy as np
import pytest

from wittenlab import (
    build_series,
    entropy_dissipation_on_flow,
    entropy_H,
    entropy_second_derivative,
    evolve,
    evolve_heat_on_flow,
    fit_super_flow_constant,
    initial_delta,
    make_flow,
    make_state,
    ricci_bakry_emery,
    super_ricci_flow_margin,
    uniform_state,
    w_decomposition_on_flow,
    w_derivative_decomposition,
    w_entropy,
    w_entropy_on_flow,
)
from wittenlab.operators import integrate_mu, random_band_limited


def positive_test_state(M, rng, t=0.0):
    f = random_band_limited(M, rng, max_mode=3, scale=0.3)
    u = np.exp(f)
    return make_state(M, u / integrate_mu(M, u), t)


def mode_state(M, t, amplitude=0.9):
    x = M.axis_coordinates(0)
    u = (1.0 + amplitude * np.cos(x)) / M.mu_total
    return make_state(M, u, t)


def test_static_flow_is_frozen(circle_cos):
    flow = make_flow(circle_cos, "static", horizon=2.0)
    assert flow.log_factor(1.3) == 0.0
    assert np.array_equal(flow.potential(1.3), circle_cos.potential)
    assert np.allclose(flow.measure_weights(1.7), circle_cos.measure_weights)


def test_conjugate_coupling_shrinking_circle(circle_flat):
    flow = make_flow(circle_flat, "constant_rate", {"rate": -0.5}, horizon=1.0)
    # d phi / dt = n lam' = -1/2 and the measure never moves
    t = 0.6
    shift = flow.potential(t) - circle_flat.potential
    assert np.allclose(shift, 1 * (-0.5 * t))
    w0 = flow.measure_weights(0.0)
    for s in (0.0, 0.5, 1.0):
        assert np.abs(flow.measure_weights(s) - w0).max() <= 1e-14 * w0.max()


def test_flow_rejects_bad_parameters(circle_flat):
    with pytest.raises(ValueError):
        make_flow(circle_flat, "constant_rate", {"rate": math.inf}, horizon=1.0)
    with pytest.raises(ValueError):
        make_flow(circle_flat, "spiral", horizon=1.0)
    with pytest.raises(ValueError):
        make_flow(circle_flat, "static", horizon=-2.0)
    with pytest.raises(ValueError, match="^flow horizon must be a finite positive number"):
        make_flow(circle_flat, "static", None, True)  # not a horizon of 1.0


@pytest.mark.parametrize(
    "family,params",
    [
        ("constant_rate", {"rate": True}),  # not lambda(t) = t
        ("constant_rate", {"lambda0": "0.5"}),
        ("sinusoidal", {"amplitude": True}),
        ("sinusoidal", {"frequency": "2"}),
        ("constant_rate", {"rat": -0.4}),  # not a static flow
        ("sinusoidal", {"rate": -0.4}),
        ("static", {"rate": -0.4}),
    ],
)
def test_flow_parameters_must_be_numbers(circle_flat, family, params):
    # a value that is no number is named so; a number under a key the
    # family does not read is named as an unknown parameter
    ((key, value),) = params.items()
    if isinstance(value, (bool, str)):
        message = "must be a finite number"
    else:
        message = rf"family '{family}' has no parameter\(s\) \['{key}'\]"
    with pytest.raises(ValueError, match=message):
        make_flow(circle_flat, family, params, horizon=1.0)


def test_margin_static_flat(circle_flat):
    flow = make_flow(circle_flat, "static", horizon=1.0)
    rep = super_ricci_flow_margin(flow, 2.0, 0.0, 0.5)
    assert np.abs(rep.defect).max() < 1e-12
    assert rep.ok


def test_margin_shrinking_needs_K_one(circle_flat):
    # (1/2) dg/dt = -g, so the condition asks K >= 1
    flow = make_flow(circle_flat, "constant_rate", {"rate": -1.0}, horizon=1.0)
    assert not super_ricci_flow_margin(flow, 2.0, 0.9, 0.3).ok
    assert super_ricci_flow_margin(flow, 2.0, 1.0, 0.3).ok
    assert fit_super_flow_constant(flow, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_fitted_constant_sinusoidal(circle_cos_03):
    flow = make_flow(
        circle_cos_03, "sinusoidal", {"amplitude": 1.0, "frequency": 1.0}, horizon=2.0
    )
    m = 3.0
    K = fit_super_flow_constant(flow, m)
    for t in np.linspace(0.0, 2.0, 9):
        rep = super_ricci_flow_margin(flow, m, K, float(t))
        assert rep.min_defect >= -1e-10


def test_static_flow_heat_matches_base(circle_cos, rng):
    flow = make_flow(circle_cos, "static", horizon=1.0)
    s0 = positive_test_state(circle_cos, rng)
    base = evolve(s0, [0.2, 0.7])
    on_flow = evolve_heat_on_flow(flow, s0, [0.2, 0.7])
    for a, b in zip(base, on_flow):
        assert np.abs(a.u - b.u).max() <= 1e-12


def test_time_change_equivalence(circle_flat):
    # lam(t) = -t/2 gives operator scale e^{t}: base flow at s(t) = e^t - 1
    flow = make_flow(circle_flat, "constant_rate", {"rate": -0.5}, horizon=1.0)
    s0 = mode_state(circle_flat, 0.0)
    T = 0.8
    on_flow = evolve_heat_on_flow(flow, s0, [T], local_error=1e-10)[0]
    x = circle_flat.axis_coordinates(0)
    s_of_t = math.exp(T) - 1.0
    exact = (1.0 + 0.9 * math.exp(-s_of_t) * np.cos(x)) / circle_flat.mu_total
    assert np.abs(on_flow.u - exact).max() < 1e-6


def test_flow_mass_conserved(circle_cos, rng):
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.3}, horizon=2.0)
    s0 = positive_test_state(circle_cos, rng)
    snaps = evolve_heat_on_flow(flow, s0, [0.5, 1.5])
    for s in snaps:
        assert s.mass == pytest.approx(1.0, abs=1e-12)


def test_flow_decomposition_static_reduction(circle_cos, rng):
    flow = make_flow(circle_cos, "static", horizon=1.0)
    s = positive_test_state(circle_cos, rng, t=0.5)
    a = w_decomposition_on_flow(flow, s, 3.0, 0.7)
    b = w_derivative_decomposition(s, 3.0, 0.7)
    assert a.T1 == pytest.approx(b.T1, rel=1e-12)
    assert a.T2 == pytest.approx(b.T2, rel=1e-12)
    assert a.T3 == pytest.approx(b.T3, rel=1e-12)
    assert a.T4 == b.T4


def test_flow_w_entropy_static_reduction(circle_cos, rng):
    flow = make_flow(circle_cos, "static", horizon=1.0)
    s = positive_test_state(circle_cos, rng, t=0.5)
    a = w_entropy_on_flow(flow, s, 3.0, 0.7)
    b = w_entropy(s, 3.0, 0.7)
    for key in ("H", "dH_dt", "H_mK", "W_mK"):
        assert a[key] == pytest.approx(b[key], rel=1e-12)


def test_flow_decomposition_matches_finite_difference(circle_cos):
    """dW/dt formula along a moving metric against numerical differences."""
    m = 3.0
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.4}, horizon=1.5)
    K = max(fit_super_flow_constant(flow, m), ricci_bakry_emery(circle_cos, m).admissible_K)
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    d = 1e-3
    t_eval = 0.5
    snaps = evolve_heat_on_flow(flow, s0, [t_eval - d, t_eval, t_eval + d], local_error=1e-11)
    W = [w_entropy_on_flow(flow, s, m, K)["W_mK"] for s in snaps]
    dW_num = (W[2] - W[0]) / (2 * d)
    dec = w_decomposition_on_flow(flow, snaps[1], m, K)
    assert dW_num == pytest.approx(dec.dW_dt_formula, abs=1e-3 * (1 + abs(dec.dW_dt_formula)))


def test_flow_monotonicity_under_fitted_K(circle_cos):
    m = 3.0
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.4}, horizon=2.0)
    K = fit_super_flow_constant(flow, m)
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve_heat_on_flow(flow, s0, [0.1, 0.5, 1.0, 1.8])
    for s in snaps:
        dec = w_decomposition_on_flow(flow, s, m, K)
        assert dec.dW_dt_formula <= dec.T4 + 1e-9 * (1 + abs(dec.T4))


def test_entropy_dissipation_static_reduction(circle_cos, rng):
    flow = make_flow(circle_cos, "static", horizon=1.0)
    s = positive_test_state(circle_cos, rng, t=0.4)
    rows = entropy_dissipation_on_flow(flow, [s])
    _, dH = entropy_H(s)
    assert rows[0]["dH_dt"] == pytest.approx(dH, rel=1e-12)
    assert rows[0]["d2H_dt2"] == pytest.approx(
        entropy_second_derivative(s), rel=1e-12
    )


def test_entropy_dissipation_uniform(circle_cos):
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.2}, horizon=1.0)
    s = uniform_state(circle_cos, t=0.5)
    rows = entropy_dissipation_on_flow(flow, [s])
    assert abs(rows[0]["dH_dt"]) < 1e-12
    assert abs(rows[0]["d2H_dt2"]) < 1e-12


def test_entropy_dissipation_matches_finite_difference(circle_flat):
    flow = make_flow(circle_flat, "constant_rate", {"rate": -0.5}, horizon=1.0)
    s0 = mode_state(circle_flat, 0.0, amplitude=0.5)
    d = 1e-3
    t0 = 0.4
    snaps = evolve_heat_on_flow(flow, s0, [t0 - d, t0, t0 + d], local_error=1e-11)
    H = [entropy_H(s)[0] for s in snaps]
    rows = entropy_dissipation_on_flow(flow, [snaps[1]])
    fd1 = (H[2] - H[0]) / (2 * d)
    fd2 = (H[2] - 2 * H[1] + H[0]) / d**2
    assert rows[0]["dH_dt"] == pytest.approx(fd1, rel=1e-4)
    assert rows[0]["d2H_dt2"] == pytest.approx(fd2, rel=1e-3)


def test_entropy_dissipation_reports_residuals(circle_flat):
    flow = make_flow(circle_flat, "constant_rate", {"rate": -0.5}, horizon=1.0)
    s0 = mode_state(circle_flat, 0.0, amplitude=0.5)
    d = 1e-3
    snaps = evolve_heat_on_flow(flow, s0, [0.4 - d, 0.4, 0.4 + d], local_error=1e-11)
    rows = entropy_dissipation_on_flow(flow, snaps)
    mid = rows[1]
    assert abs(mid["residual_dH"]) <= 1e-4 * abs(mid["dH_dt"])
    assert abs(mid["residual_d2H"]) <= 1e-3 * abs(mid["d2H_dt2"])


def test_static_flow_series_equals_fixed_metric_series(circle_cos):
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s0, [0.1, 0.3, 0.6])
    m = 3.0
    K = ricci_bakry_emery(circle_cos, m).admissible_K
    fixed = build_series(snaps, m, K)
    on_flow = build_series(
        snaps, m, K, flow=make_flow(circle_cos, "static", horizon=1.0)
    )
    for name in fixed.__dataclass_fields__:
        assert np.array_equal(getattr(on_flow, name), getattr(fixed, name)), name


def test_entropy_dissipation_rows_carry_residuals(circle_cos, rng):
    flow = make_flow(circle_cos, "static", horizon=1.0)
    snaps = [positive_test_state(circle_cos, rng, t=t) for t in (0.2, 0.3, 0.5)]
    rows = entropy_dissipation_on_flow(flow, snaps)
    assert [r["t"] for r in rows] == [0.2, 0.3, 0.5]
    for r, s in zip(rows, snaps):
        assert r["dH_dt"] == entropy_H(s)[1]
        assert r["d2H_dt2"] == entropy_second_derivative(s)
        assert math.isfinite(r["residual_dH"])
    # the second difference of H exists at interior snapshots only
    assert math.isnan(rows[0]["residual_d2H"]) and math.isnan(rows[2]["residual_d2H"])
    assert math.isfinite(rows[1]["residual_d2H"])
    assert all("residual_dH" not in r for r in entropy_dissipation_on_flow(flow, snaps[:2]))


def test_flat_flow_matches_time_changed_closed_form(circle_flat):
    # constant potential: the flow takes the exact propagator on the base clock
    flow = make_flow(circle_flat, "constant_rate", {"rate": -0.5}, horizon=1.0)
    s0 = mode_state(circle_flat, 0.0)
    x = circle_flat.axis_coordinates(0)
    times = [0.3, 0.8]
    for T, snap in zip(times, evolve_heat_on_flow(flow, s0, times)):
        exact = (1.0 + 0.9 * math.exp(-math.expm1(T)) * np.cos(x)) / circle_flat.mu_total
        assert snap.t == T
        assert np.abs(snap.u - exact).max() <= 1e-13 * exact.max()


def test_flow_manifest_rows_are_on_the_base_clock(circle_cos):
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.5}, horizon=1.0)
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    manifest = []
    (snap,) = evolve_heat_on_flow(flow, s0, [0.6], manifest=manifest)
    assert snap.t == 0.6
    assert manifest[-1]["t"] == pytest.approx(0.05 + flow.base_time(0.05, 0.6), abs=1e-13)


@pytest.mark.parametrize(
    "amplitude,frequency", [(0.0, 1.0), (1.0, 1.0), (10.0, 0.5), (2.0, 50.0), (3.0, -2.0)]
)
def test_sinusoidal_base_time_matches_bessel_closed_form(circle_flat, amplitude, frequency):
    # over k full periods the integral of e^{-2 lam} is 2 pi k/w e^{-2 lam0} I0(2A)
    params = {"lambda0": 0.3, "amplitude": amplitude, "frequency": frequency}
    flow = make_flow(circle_flat, "sinusoidal", params, horizon=1.0)
    for k in (1, 3):
        period = 2.0 * math.pi * k / abs(frequency)
        exact = period * math.exp(-0.6) * float(np.i0(2.0 * amplitude))
        assert flow.base_time(0.37, 0.37 + period) == pytest.approx(exact, rel=1e-14)


def test_constant_rate_base_time_closed_form(circle_flat):
    moving = make_flow(circle_flat, "constant_rate", {"lambda0": 0.2, "rate": 0.7})
    exact = (math.exp(-0.4 - 1.4 * 0.1) - math.exp(-0.4 - 1.4 * 0.9)) / 1.4
    assert moving.base_time(0.1, 0.9) == pytest.approx(exact, rel=1e-14)
    frozen = make_flow(circle_flat, "constant_rate", {"lambda0": 0.2, "rate": 0.0})
    assert frozen.base_time(0.1, 0.9) == pytest.approx(0.8 * math.exp(-0.4), rel=1e-15)
    assert make_flow(circle_flat, "static").base_time(0.1, 0.9) == 0.9 - 0.1
