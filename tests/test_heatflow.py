"""Heat flow: kernels, conservation, positivity, convergence order."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wittenlab import (
    PositivityError,
    evolve,
    evolve_heat_on_flow,
    initial_delta,
    kernel_state,
    make_flow,
    make_state,
    step,
    uniform_state,
)
from wittenlab import build_manifold, circle, flat_torus, heatflow
from wittenlab.cli import bundled_config_path
from wittenlab.config import load_config
from wittenlab.heatflow import SolverConvergenceError, _helmholtz_solve
from wittenlab.kernels import wrapped_gaussian
from wittenlab.operators import (
    gradient,
    hessian,
    integrate_mu,
    random_band_limited,
    witten_laplacian,
)

import references
from references import (
    dense_operator,
    eigen_sum_circle,
    helmholtz_solve_precondition_first,
    log_u_derivatives,
    symmetric_target,
)


def mode_state(M, t, amplitude=0.9, k=1):
    """(1 + a e^{-k^2 t} cos(k x)) / mu: exact single-mode decay solution.

    Amplitude below 1 keeps the state strictly positive on the grid.
    """
    x = M.axis_coordinates(0)
    u = (1.0 + amplitude * math.exp(-(k**2) * t) * np.cos(k * x)) / M.mu_total
    return make_state(M, u, t)


def test_wrapped_gaussian_matches_eigen_sum():
    theta = np.linspace(-np.pi, np.pi, 37)
    for t in (0.01, 0.1, 1.0):
        a = wrapped_gaussian(theta, t, 2 * np.pi)
        b = eigen_sum_circle(theta, t, 2 * np.pi)
        assert np.abs(a - b).max() < 1e-12


def test_initial_delta_on_diagonal_value(circle_flat):
    s = initial_delta(circle_flat, 0, t0=0.01)
    assert s.u[0] == pytest.approx((4 * np.pi * 0.01) ** -0.5, abs=1e-12)
    assert s.mass == pytest.approx(1.0, abs=1e-13)


def test_initial_delta_torus_separates(torus_flat):
    s = initial_delta(torus_flat, (0, 0), t0=0.02)
    x = torus_flat.axis_coordinates(0)
    k1 = wrapped_gaussian(x, 0.02, 2 * np.pi)
    product = np.outer(k1, k1)
    assert np.abs(s.u - product).max() < 1e-12


def test_torus_start_whose_profile_product_underflows_stays_positive():
    # t0 = 2.1 h^2 is resolved, but far from the source the product of two
    # profiles, each clamped at the smallest normal double, underflows to 0
    M = flat_torus(128)
    s = initial_delta(M, (0, 0), t0=0.005)
    assert s.u.min() > 0.0
    assert s.mass == pytest.approx(1.0, abs=1e-12)
    x = M.axis_coordinates(0)
    k1 = wrapped_gaussian(x, 0.005, 2 * np.pi)
    product = np.outer(k1, k1)
    representable = product >= np.finfo(float).tiny
    assert 0 < representable.sum() < product.size
    np.testing.assert_allclose(
        s.u[representable], product[representable] / integrate_mu(M, product), rtol=1e-14
    )


def test_initial_delta_default_t0_and_mass(circle_cos):
    s = initial_delta(circle_cos, 5, t0=0.05)  # the solver.t0 default of config
    assert s.t == 0.05
    assert s.mass == pytest.approx(1.0, abs=1e-12)
    assert s.u.min() > 0.0


def test_initial_delta_rejects_bad_t0(circle_flat):
    with pytest.raises(ValueError):
        initial_delta(circle_flat, 0, t0=-0.1)


def test_kernel_symmetry(circle_flat):
    s = initial_delta(circle_flat, 64, t0=0.01)
    u = np.roll(s.u, -64)  # center the source at index 0
    assert np.abs(u[1:] - u[:0:-1]).max() < 1e-12


def test_uniform_state_is_stationary(circle_cos):
    s = uniform_state(circle_cos, t=0.3)
    out = step(s, 0.05)
    assert np.abs(out.u - s.u).max() < 1e-13


def test_step_conserves_mass(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.05)
    out = step(s, 0.01)
    assert out.mass == pytest.approx(s.mass, abs=1e-12)
    assert out.t == pytest.approx(0.06)


def test_single_mode_decay_against_oracle(circle_flat):
    T = 0.5
    s = mode_state(circle_flat, 0.0)
    n_steps = 100
    for _ in range(n_steps):
        s = step(s, T / n_steps)
    exact = mode_state(circle_flat, T)
    assert np.abs(s.u - exact.u).max() < 5e-7


def test_scheme_second_order(circle_flat):
    # halving dt shrinks the error against the exact mode decay about 4x
    T = 0.4

    def error(n_steps):
        s = mode_state(circle_flat, 0.0)
        for _ in range(n_steps):
            s = step(s, T / n_steps)
        return np.abs(s.u - mode_state(circle_flat, T).u).max()

    ratio = error(20) / error(40)
    assert 3.6 < ratio < 4.4


def test_implicit_euler_first_order(circle_flat):
    # the substep of the warm-up ramp of initial_delta
    T = 0.4

    def error(n_steps):
        u = mode_state(circle_flat, 0.0).u
        for _ in range(n_steps):
            u = heatflow._implicit_euler_substep(circle_flat, u, T / n_steps)
        return np.abs(u - mode_state(circle_flat, T).u).max()

    ratio = error(20) / error(40)
    assert 1.7 < ratio < 2.3


def test_evolve_hits_targets_and_matches_oracle(circle_flat):
    s0 = mode_state(circle_flat, 0.0)
    snaps = evolve(s0, [0.25, 0.5, 1.0], local_error=1e-9)
    for s in snaps:
        exact = mode_state(circle_flat, s.t)
        assert np.abs(s.u - exact.u).max() < 1e-6
        assert s.mass == pytest.approx(1.0, abs=1e-11)


def test_evolve_manifest_records_steps(circle_flat):
    s0 = mode_state(circle_flat, 0.0)
    manifest = []
    evolve(s0, [0.2], manifest=manifest)
    assert manifest and all(r["dt"] > 0 for r in manifest)
    assert manifest[-1]["t"] == pytest.approx(0.2)


def attempted_steps(steps):
    """The attempted step sizes in ``advance_steps``: each attempt advances
    by dt once and by dt/2 twice."""
    assert len(steps) % 3 == 0
    full = steps[0::3]
    assert steps[1::3] == steps[2::3] == [0.5 * dt for dt in full]
    return full


def landing_shortfalls(attempts, manifest, start, targets, local_error):
    """The attempts after an accepted step cut short (to land on a target, or
    to ``DT_MAX``) that are shorter than the proposal it was cut from, and
    are not cut by ``DT_MAX`` or by their own target; and the number of
    attempts that followed such a cut step.

    The proposal is followed from the manifest as a lower bound: after an
    accepted step it is at least the step the growth rule gives, and after
    a cut one at least the bound it was cut from too.  A rejection leaves it
    unknown until the next accepted step."""
    rows = iter(manifest)
    row = next(rows, None)
    t = start
    bound = kept = None
    short, checked = [], 0
    for dt in attempts:
        target = next(x for x in targets if t < x - heatflow._SAME_TIME)
        if kept is not None:
            checked += 1
            if dt < min(kept, heatflow.DT_MAX, target - t):
                short.append({"t": t, "dt": dt, "proposal": kept})
        kept = None
        if row is None or row["dt"] != dt:  # rejected
            bound = None
            continue
        err = row["error_estimate"]
        grown = dt * min(5.0, max(0.2, 0.9 * (local_error / max(err, 1e-16)) ** (1.0 / 3.0)))
        if bound is not None and dt < bound:
            kept = bound
            bound = max(grown, bound)
        else:
            bound = grown
        t = row["t"]
        row = next(rows, None)
    assert row is None and t == pytest.approx(targets[-1], abs=1e-10)
    return short, checked


def test_landing_keeps_the_proposal_it_was_cut_from(advance_steps):
    M = circle(64, potential={"family": "cosine", "params": {"a": 0.5, "k": 1}})
    s0 = initial_delta(M, 0, t0=0.05)
    times = [float(t) for t in np.linspace(0.1, 0.6, 40)]
    local_error = 1e-6
    runs = {}
    for run in (heatflow._adaptive_evolve, references.adaptive_evolve_regrowing):
        advance_steps.clear()
        manifest = []
        snaps = run(s0, times, local_error, manifest)
        assert [s.t for s in snaps] == pytest.approx(times, abs=1e-10)
        attempts = attempted_steps(advance_steps)
        runs[run.__name__] = (len(manifest), *landing_shortfalls(
            attempts, manifest, s0.t, times, local_error
        ))
    accepted, short, checked = runs["_adaptive_evolve"]
    assert short == [] and checked >= len(times) // 2
    # the regrowing controller restarts from the cut step and falls short
    old_accepted, old_short, _ = runs["adaptive_evolve_regrowing"]
    assert old_short and accepted < old_accepted


def test_checks_dense_schedule_takes_fewer_steps(advance_steps):
    # the benchmark's checks_dense run: 120 base times and their flow times
    from wittenlab.cli import _Runner
    from wittenlab.config import validate_experiment

    data = {
        "manifold": {
            "model": "circle",
            "grid": 256,
            "potential": {"family": "cosine", "params": {"a": 0.3, "k": 1}},
        },
        "solver": {
            "t0": 0.05, "x0": 0, "times": [0.1 + 1.7 * i / 119 for i in range(120)],
            "local_error": 1e-6,
        },
        "flow": {"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 2.0},
        "checks": [{"name": "mass"}, {"name": "flow_entropy", "m": [3], "K": 1.0}],
    }
    runner = _Runner(validate_experiment(data), {"mass", "flow_entropy"}, seed=0)
    merged = sorted(set().union(*runner._clock_times.values()))
    assert len(merged) == 240
    counts = {}
    for run in (heatflow._adaptive_evolve, references.adaptive_evolve_regrowing):
        advance_steps.clear()
        manifest = []
        run(runner.start_state, merged, 1e-6, manifest)
        attempts = attempted_steps(advance_steps)
        counts[run.__name__] = (len(manifest), len(attempts) - len(manifest))
    assert counts == {"_adaptive_evolve": (322, 2), "adaptive_evolve_regrowing": (358, 2)}


def test_evolve_rejects_bad_times(circle_flat):
    s0 = mode_state(circle_flat, 0.5)
    with pytest.raises(ValueError):
        evolve(s0, [0.4])
    with pytest.raises(ValueError):
        evolve(s0, [0.6, 0.6])


def test_equilibration_to_uniform(circle_flat):
    s0 = mode_state(circle_flat, 0.0)
    (final,) = evolve(s0, [20.0], local_error=1e-9)
    assert np.abs(final.u - 1.0 / circle_flat.mu_total).max() < 1e-8


def test_monotone_equilibration_with_potential(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.2, 0.8, 2.0, 6.0])
    uniform = 1.0 / circle_cos.mu_total
    sup_dist = [np.abs(s.u - uniform).max() for s in snaps]
    assert all(b < a for a, b in zip(sup_dist, sup_dist[1:]))


def test_decay_rate_matches_spectral_gap(circle_cos):
    # the slowest transient decays like the smallest nonzero eigenvalue of -L
    M = circle_cos
    n = M.shape[0]
    dense = np.empty((n, n))
    basis = np.eye(n)
    for j in range(n):
        dense[:, j] = witten_laplacian(M, basis[:, j])
    sym = np.diag(np.exp(-M.potential / 2)) @ dense @ np.diag(np.exp(M.potential / 2))
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    # skip the null modes (constants, plus the sawtooth the spectral first
    # derivative cannot see) to find the spectral gap
    lam1 = -eigs[eigs < -1e-8].max()
    s = initial_delta(M, 0, t0=0.05)
    t_grid = [3.0, 4.0, 5.0]
    snaps = evolve(s, t_grid, local_error=1e-10)
    uniform = 1.0 / M.mu_total
    sup = np.array([np.abs(s.u - uniform).max() for s in snaps])
    slope = (np.log(sup[0]) - np.log(sup[-1])) / (t_grid[-1] - t_grid[0])
    assert slope == pytest.approx(lam1, rel=2e-2)


def test_dt_log_u_stationary(circle_cos):
    s = uniform_state(circle_cos, t=1.0)
    assert np.abs(s.dt_log_u).max() < 1e-10


def test_dt_log_u_mode_closed_form(circle_flat):
    t, a = 0.7, 0.9
    s = mode_state(circle_flat, t, amplitude=a)
    x = circle_flat.axis_coordinates(0)
    decayed = a * math.exp(-t) * np.cos(x)
    expected = -decayed / (1.0 + decayed)
    assert np.abs(s.dt_log_u - expected).max() < 1e-10


def test_dt_log_u_matches_finite_differences(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.1)
    d = 1e-3
    snaps = evolve(s, [0.3 - d, 0.3, 0.3 + d], local_error=1e-11)
    fd = (np.log(snaps[2].u) - np.log(snaps[0].u)) / (2 * d)
    rate = snaps[1].dt_log_u
    # the gap is second order in the finite-difference spacing
    assert np.abs(rate - fd).max() < 2e-4


def test_dt_log_u_kernel_on_diagonal_small_t(circle_flat):
    s = kernel_state(circle_flat, (0,), 1e-3)
    rate = s.dt_log_u
    assert rate[0] == pytest.approx(-0.5 / 1e-3, rel=1e-10)


@pytest.mark.parametrize("model", ["circle_cos", "torus_32x48", "torus_flat"])
def test_log_derivatives_share_one_gradient_bit_for_bit(request, model):
    """dt_log_u and grad_log_u from one grad u equal the separate applies."""
    M = request.getfixturevalue(model)
    x0 = (0,) * M.dim_n
    for s in evolve(initial_delta(M, x0, t0=0.1), [0.2, 0.4]):
        assert not s.kernel.analytic  # the spectral route, not the closed form
        dt_ref, grad_ref = log_u_derivatives(s)
        assert np.array_equal(s.dt_log_u, dt_ref)
        assert np.array_equal(s.grad_log_u, grad_ref)


def test_grad_log_analytic_matches_spectral_at_moderate_t(circle_flat):
    s = kernel_state(circle_flat, (0,), 0.25)
    g_analytic = s.grad_log_u
    g_spectral = np.stack([np.real(np.fft.ifft(
        1j * np.where(np.abs(np.fft.fftfreq(256, 1 / 256)) == 128, 0,
                      np.fft.fftfreq(256, 1 / 256)) * np.fft.fft(s.u)))]) / s.u
    mask = s.u > 1e-8
    assert np.abs((g_analytic[0] - g_spectral[0])[mask]).max() < 1e-6


def test_positivity_guard_raises_on_gross_negativity(circle_flat):
    x = circle_flat.axis_coordinates(0)
    with pytest.raises(PositivityError):
        make_state(circle_flat, np.cos(x), 0.1)


def test_positivity_error_names_the_node_as_ints(circle_flat):
    u = np.ones(circle_flat.shape)
    u[6] = -1.0
    with pytest.raises(PositivityError, match=r"at node \(6,\)$") as err:
        make_state(circle_flat, u, 0.1)
    assert err.value.node == (6,) and type(err.value.node[0]) is int
    with pytest.raises(PositivityError, match=r"at node \(6,\) \(beyond") as err:
        heatflow._project_mass(circle_flat, u, integrate_mu(circle_flat, u), where="state")
    assert err.value.node == (6,) and type(err.value.node[0]) is int


def test_oversized_step_reports_positivity_violation(circle_flat):
    # implicit midpoint overshoots on a sharply peaked state with a huge dt
    s = initial_delta(circle_flat, 0, t0=2e-3)
    with pytest.raises(PositivityError) as err:
        step(s, 5.0)
    assert err.value.node is not None


NOT_FINITE_POSITIVE = [0.0, -0.1, math.inf, -math.inf, math.nan, True, "0.1", None]


@pytest.mark.parametrize("dt", NOT_FINITE_POSITIVE)
def test_step_rejects_a_dt_that_is_not_a_finite_positive_number(circle_cos, dt):
    s = initial_delta(circle_cos, 0, t0=0.05)
    with pytest.raises(ValueError, match=r"^dt must be a finite positive number, got "):
        step(s, dt)


# one start path each: the closed-form kernel, the implicit Euler ramp and
# the exact propagator of a separable torus
@pytest.mark.parametrize("model, x0", [
    ("circle_flat", 0), ("circle_cos", 0), ("torus_32x48", (3, 5)),
])
@pytest.mark.parametrize("t0", NOT_FINITE_POSITIVE)
def test_initial_delta_rejects_a_t0_that_is_not_a_finite_positive_number(
    request, model, x0, t0
):
    M = request.getfixturevalue(model)
    with pytest.raises(ValueError, match=r"^t0 must be a finite positive number, got "):
        initial_delta(M, x0, t0)


@pytest.mark.parametrize("model, x0", [("circle_flat", 0), ("torus_flat", (3, 5))])
@pytest.mark.parametrize("t", NOT_FINITE_POSITIVE)
def test_kernel_state_rejects_a_t_that_is_not_a_finite_positive_number(request, model, x0, t):
    M = request.getfixturevalue(model)
    with pytest.raises(ValueError, match=r"^t must be a finite positive number, got "):
        kernel_state(M, x0, t)


def test_solver_convergence_error(torus_non_separable, monkeypatch):
    from wittenlab import heatflow as hf

    s = initial_delta(torus_non_separable, (0, 0), t0=0.05)
    monkeypatch.setattr(hf, "CG_MAXITER", 1)
    with pytest.raises(hf.SolverConvergenceError):
        step(s, 0.1)


def test_kernel_state_rejects_nonconstant_potential(circle_cos):
    with pytest.raises(ValueError, match="constant"):
        kernel_state(circle_cos, (0,), 0.01)


def test_evolved_kernel_keeps_symmetry(circle_flat):
    s = initial_delta(circle_flat, 64, t0=0.01)
    (out,) = evolve(s, [0.2])
    u = np.roll(out.u, -64)
    assert np.abs(u[1:] - u[:0:-1]).max() < 1e-12


def test_kernel_mass_drift_over_long_run(circle_flat):
    s = initial_delta(circle_flat, 0, t0=1e-3)
    snaps = evolve(s, [0.01, 0.1, 0.5, 1.0, 2.0])
    for out in snaps:
        assert abs(out.mass - 1.0) <= 1e-10
        assert out.u.min() > 0.0


@pytest.mark.parametrize(
    "name,x0,t0", [("circle_flat", (5,), 1e-3), ("torus_flat", (3, 60), 0.02)]
)
def test_exact_evolve_matches_closed_form_kernel(request, name, x0, t0):
    M = request.getfixturevalue(name)
    s0 = initial_delta(M, x0, t0=t0)
    manifest = []
    snaps = evolve(s0, [t0, 0.03, 0.3, 1.0], manifest=manifest)
    assert snaps[0] is s0
    assert [r["t"] for r in manifest] == [0.03, 0.3, 1.0]
    assert [r["dt"] for r in manifest] == pytest.approx([0.03 - t0, 0.27, 0.7])
    assert all(r["error_estimate"] == 0.0 for r in manifest)
    for s in snaps[1:]:
        exact = kernel_state(M, x0, s.t).u
        assert np.abs(s.u - exact).max() <= 1e-12 * exact.max()
        assert abs(s.mass - 1.0) <= 1e-10
        assert s.u.min() > 0.0
        assert not s.kernel.analytic


def test_exact_evolve_agrees_with_crank_nicolson(circle_flat):
    s0 = initial_delta(circle_flat, 0, t0=0.05)
    times = [0.1, 0.5]
    exact = evolve(s0, times)
    manifest = []
    stepped = heatflow._adaptive_evolve(s0, times, 1e-10, manifest)
    assert len(manifest) > len(times)
    for a, b in zip(exact, stepped):
        assert np.abs(a.u - b.u).max() <= 1e-7 * a.u.max()


@pytest.mark.parametrize("name", ["circle_flat", "torus_flat"])
def test_exact_evolve_removes_nyquist_content(request, name):
    # a sawtooth on every axis is invisible to the operator; stepping
    # dealiases it, and the exact path must too, even over a tiny interval
    M = request.getfixturevalue(name)
    saw = np.ones(M.shape)
    for axis, n in enumerate(M.shape):
        shape = [1] * M.dim_n
        shape[axis] = n
        saw = saw * ((-1.0) ** np.arange(n)).reshape(shape)
    u = (1.0 + 0.5 * saw + 0.3 * np.cos(M.coordinates()[0])) / M.mu_total
    s0 = make_state(M, u, 0.0)
    for s in evolve(s0, [1e-6, 1e-3, 1.0]):
        uh = np.fft.fftn(s.u)
        for axis, n in enumerate(M.shape):
            assert np.abs(np.take(uh, n // 2, axis=axis)).max() <= 1e-13 * abs(uh.flat[0])
        assert abs(s.mass - s0.mass) <= 1e-10
        assert s.u.min() > 0.0


def test_weighted_model_still_steps(circle_cos):
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    manifest = []
    snaps = evolve(s0, [0.1, 0.2], manifest=manifest)
    assert len(manifest) > len(snaps)


def smooth_state(M, t, max_mode=4):
    u = 1.0 + 0.2 * random_band_limited(M, np.random.default_rng(5), max_mode=max_mode)
    return make_state(M, u / M.mu_total, t)


def test_separable_torus_propagator_matches_dense_expm(torus_32x48):
    M = torus_32x48
    tau = 0.45
    exact = symmetric_target(M, tau)
    factors = [(left * np.exp(tau * lam)) @ right for left, lam, right in M.axis_eigensystems]
    assert np.abs(np.kron(*factors) - exact).max() <= 1e-12 * np.abs(exact).max()

    s0 = smooth_state(M, 0.1)
    manifest = []
    (s,) = evolve(s0, [0.1 + tau], manifest=manifest)
    expected = (exact @ s0.u.ravel()).reshape(M.shape)
    assert np.abs(s.u - expected).max() <= 1e-12 * expected.max()
    assert manifest == [{"t": 0.1 + tau, "dt": pytest.approx(tau), "error_estimate": 0.0}]


def test_circle_factors_match_dense_expm():
    # circles are still stepped, but their per-axis factors are exact too
    M = circle(32, potential={"family": "cosine", "params": {"a": 1.0, "k": 2}})
    ((left, lam, right),) = M.axis_eigensystems
    for tau in (0.1, 1.0):
        exact = symmetric_target(M, tau)
        got = (left * np.exp(tau * lam)) @ right
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


def test_separable_torus_agrees_with_crank_nicolson(torus_32x48):
    # Crank-Nicolson's error at local_error 1e-10 is measured against a
    # run at 1e-11; the exact snapshots lie within it, closer to the finer run
    M = torus_32x48
    s0 = smooth_state(M, 0.0, max_mode=2)
    times = [0.05, 0.2]
    exact = evolve(s0, times)
    manifest = []
    cn = heatflow._adaptive_evolve(s0, times, 1e-10, manifest)
    finer = heatflow._adaptive_evolve(s0, times, 1e-11, None)
    assert len(manifest) > len(times)
    for a, b, c in zip(exact, cn, finer):
        measured = np.abs(b.u - c.u).max()
        assert np.abs(a.u - b.u).max() <= 2.0 * measured
        assert np.abs(a.u - c.u).max() < np.abs(a.u - b.u).max()


def test_non_separable_crank_nicolson_converges_to_the_symmetric_target(torus_non_separable):
    # no per-axis factors exist here; Crank-Nicolson's error at local_error
    # 1e-10, measured against a run at 1e-11, bounds its distance to T
    M = torus_non_separable
    assert M.axis_eigensystems is None
    s0 = smooth_state(M, 0.0, max_mode=2)
    times = [0.05, 0.2]
    cn = evolve(s0, times, local_error=1e-10)
    finer = evolve(s0, times, local_error=1e-11)
    for t, b, c in zip(times, cn, finer):
        exact = (symmetric_target(M, t) @ s0.u.ravel()).reshape(M.shape)
        measured = np.abs(b.u - c.u).max()
        assert np.abs(exact - b.u).max() <= 2.0 * measured
        assert np.abs(exact - c.u).max() < np.abs(exact - b.u).max()


def test_bundled_torus_is_propagated_exactly_with_mass_and_positivity():
    raw = load_config(bundled_config_path("torus_hamilton"))
    M = build_manifold(raw["manifold"])
    solver = raw["solver"]
    s0 = initial_delta(M, tuple(solver["x0"]), t0=solver["t0"])
    manifest = []
    snaps = evolve(
        s0, solver["times"], local_error=solver["local_error"], manifest=manifest
    )
    assert [r["error_estimate"] for r in manifest] == [0.0] * len(solver["times"])
    for s in snaps:
        assert abs(s.mass - s0.mass) <= 1e-10
        assert s.u.min() > 0.0


def test_exact_start_is_the_symmetric_target_on_the_weighted_delta(torus_32x48):
    M = torus_32x48
    x0, t0 = (3, 7), 0.2
    delta = np.zeros(M.shape)
    delta[x0] = 1.0 / M.measure_weights[x0]  # unit weighted mass
    T = symmetric_target(M, t0)
    expected = (T @ delta.ravel()).reshape(M.shape)
    s0 = initial_delta(M, x0, t0=t0)
    assert np.abs(s0.u - expected).max() <= 1e-12 * expected.max()
    assert abs(s0.mass - 1.0) <= 1e-14
    assert expected.min() > 0.0 and s0.u.min() > 0.0
    # from the exact start, evolve gives T(t) delta / w: T(2 t0) = T(t0) T(t0)
    (s,) = evolve(s0, [2 * t0])
    later = (T @ expected.ravel()).reshape(M.shape)
    assert np.abs(s.u - later).max() <= 1e-12 * later.max()


def test_only_stepped_models_start_with_helmholtz_solves(
    torus_32x48, circle_cos, torus_non_separable, monkeypatch
):
    calls = []
    solve = heatflow._helmholtz_solve
    monkeypatch.setattr(
        heatflow, "_helmholtz_solve", lambda *args: calls.append(1) or solve(*args)
    )
    initial_delta(torus_32x48, (0, 0), t0=0.1)
    assert calls == []
    for M in (circle_cos, torus_non_separable):
        calls.clear()
        initial_delta(M, (0,) * M.dim_n, t0=0.1)
        assert calls, M.shape


def test_unresolved_exact_start_raises_and_names_t0(torus_32x48):
    # the kernel at t0 = 0.05 dips to -2.9e-7 of its maximum on this grid
    h2 = max(torus_32x48.spacings) ** 2
    with pytest.raises(PositivityError, match="negative value") as info:
        initial_delta(torus_32x48, (0, 0), t0=0.05)
    message = str(info.value)
    assert "raise solver.t0 or refine the grid" in message
    assert f"squared grid spacing {h2:.6g}" in message


def test_clamped_exact_start_and_snapshots_keep_unit_mass(torus_32x48):
    # at t0 = 0.08 the kernel dips to -1.3e-9 of its maximum: within the
    # rounding tolerance, so those nodes are raised to the rounding floor,
    # and the state is rescaled so that the raised mass does not stay
    s0 = initial_delta(torus_32x48, (0, 0), t0=0.08)
    assert s0.u.min() > 0.0
    for s in [s0, *evolve(s0, [0.081, 0.1, 0.3])]:
        assert abs(s.mass - 1.0) <= 1e-14, s.t


def test_non_separable_and_forced_torus_runs_still_step(torus_32x48):
    xs, ys = torus_32x48.coordinates()
    mixed = flat_torus(
        (32, 48), potential={"family": "samples", "samples": 0.3 * np.cos(xs + ys)}
    )
    assert mixed.axis_eigensystems is None
    for M, run in ((mixed, evolve), (torus_32x48, heatflow._adaptive_evolve)):
        manifest = []
        run(initial_delta(M, (0, 0), t0=0.1), [0.11], 1e-8, manifest)
        assert len(manifest) > 1
        assert all(r["error_estimate"] > 0.0 for r in manifest)


@pytest.mark.parametrize("local_error", [-1.0, 0.0, math.nan, 2.0])
def test_local_error_outside_zero_one_is_rejected(circle_flat, circle_cos, local_error):
    for M in (circle_flat, circle_cos):  # the exact path and Crank-Nicolson alike
        with pytest.raises(ValueError, match=r"local_error must be a finite number in \(0, 1\)"):
            evolve(uniform_state(M), [0.2], local_error=local_error)


def test_adaptive_evolve_raises_when_step_size_collapses(circle_flat, monkeypatch):
    s0 = uniform_state(circle_flat)
    shift = 1.0 / circle_flat.mu_total

    def advance(manifold, u, dt, Lu=None):
        # one step and two half steps never agree, whatever the step size
        return u + shift

    monkeypatch.setattr(heatflow, "_advance", advance)
    with pytest.raises(SolverConvergenceError, match="local error estimate"):
        heatflow._adaptive_evolve(s0, [0.1], 1e-8, None)


def test_a_span_beyond_the_step_budget_is_refused_before_any_step(circle_cos, monkeypatch):
    s0 = initial_delta(circle_cos, 0, t0=0.05)

    def advance(*args, **kwargs):
        raise AssertionError("a time step was taken")

    monkeypatch.setattr(heatflow, "_advance", advance)
    # a shrinking flow's base clock runs away: rate -5 reaches 4.85e7 at t = 2
    flow = make_flow(circle_cos, "constant_rate", {"rate": -5.0}, horizon=2.0)
    with pytest.raises(
        SolverConvergenceError,
        match=r"time span 4\.85165e\+07 needs more than the step budget of 100000 steps",
    ):
        evolve_heat_on_flow(flow, s0, [0.1, 2.0])
    # the budget itself is a span the control steps through
    edge = s0.t + heatflow._STEP_BUDGET * heatflow.DT_MAX
    with pytest.raises(SolverConvergenceError, match="step budget"):
        evolve(s0, [edge * (1.0 + 1e-12)])
    with pytest.raises(AssertionError, match="a time step was taken"):
        evolve(s0, [edge])


def test_no_snapshot_times_give_no_snapshots(circle_cos):
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.4}, horizon=1.0)
    manifest = []
    assert evolve(s0, [], manifest=manifest) == []
    assert evolve_heat_on_flow(flow, s0, [], manifest=manifest) == []
    assert manifest == []


def test_kernel_state_rejects_integer_node_on_torus(torus_flat):
    with pytest.raises(ValueError, match="index pairs"):
        kernel_state(torus_flat, 3, 0.1)


def test_pcg_names_an_indefinite_system(torus_non_separable):
    M = torus_non_separable
    b = 1.0 + 0.5 * np.cos(3.0 * M.coordinates()[0])
    with pytest.raises(SolverConvergenceError, match=r"p\.Ap = .* <= 0"):
        _helmholtz_solve(M, -0.3, b, b)


def test_pcg_names_a_non_finite_residual(torus_non_separable):
    b = np.full(torus_non_separable.shape, 1.0)
    rhs = b.copy()
    rhs[5, 7] = np.nan
    with pytest.raises(SolverConvergenceError, match="non-finite residual"):
        _helmholtz_solve(torus_non_separable, 0.1, rhs, b)


def test_direct_solve_names_a_non_finite_right_hand_side(circle_cos):
    b = np.full(circle_cos.shape, 1.0)
    rhs = b.copy()
    rhs[5] = np.nan
    with pytest.raises(SolverConvergenceError, match="non-finite right-hand side"):
        _helmholtz_solve(circle_cos, 0.1, rhs, b)


def test_direct_solve_names_an_indefinite_system(circle_cos):
    b = 1.0 + 0.5 * np.cos(3.0 * circle_cos.axis_coordinates(0))
    with pytest.raises(
        SolverConvergenceError, match=r"gamma = -0\.3 is not positive definite"
    ):
        _helmholtz_solve(circle_cos, -0.3, b, b)


@pytest.mark.parametrize("model", ["circle_cos", "circle_576"])
def test_direct_solve_reads_neither_start_nor_its_apply_and_makes_no_fft(
    request, fft_calls, model
):
    M = request.getfixturevalue(model)
    # building the cached eigensystem takes FFTs; the solves that use it do not
    assert M.symmetric_eigensystem is not None and M.sqrt_density is not None
    u = 1.0 + 0.5 * random_band_limited(M, np.random.default_rng(6))
    b = u + 0.05 * witten_laplacian(M, u)
    fft_calls.clear()
    got = _helmholtz_solve(M, 0.05, b, u)
    assert fft_calls == {}
    nan = np.full(M.shape, np.nan)
    assert np.array_equal(_helmholtz_solve(M, 0.05, b, nan, nan), got)
    assert fft_calls == {}


# Both steps round at about eps (dt/2) max|mu| of max|u| (max|mu| is 1.6e4
# on 256 nodes, 8e4 on circle_576), so 1e-13 resolves steps up to ~5e-3.
@pytest.mark.parametrize("model", ["circle_cos", "circle_cos_03", "circle_576"])
@pytest.mark.parametrize("dt", [1e-4, 1e-3, 4e-3])
def test_circle_step_is_the_solve_step_as_one_diagonal_map(request, fft_calls, model, dt):
    M = request.getfixturevalue(model)
    u = initial_delta(M, 0, t0=0.05).u
    want = references.crank_nicolson_step_by_solve(M, u, dt)
    fft_calls.clear()
    got = heatflow._advance(M, u, dt)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(u).max()
    # the step takes no transform: the projection is a rank-one update
    assert fft_calls == {}


def test_circle_step_names_a_non_finite_state_and_an_indefinite_system(circle_cos):
    u = initial_delta(circle_cos, 0, t0=0.05).u.copy()
    with pytest.raises(
        SolverConvergenceError, match=r"gamma = -0\.25 is not positive definite"
    ):
        heatflow._advance(circle_cos, u, -0.5)
    u[5] = np.nan
    with pytest.raises(SolverConvergenceError, match="non-finite right-hand side"):
        heatflow._advance(circle_cos, u, 0.01)


def _solve_outcome(solve, *args):
    """The solution of ``solve(*args)``, or the type and message it raises."""
    try:
        return solve(*args)
    except (SolverConvergenceError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model", ["torus_non_separable", "torus_32x48"])
def test_helmholtz_solve_equals_the_precondition_first_solve(request, model):
    M = request.getfixturevalue(model)
    u = 1.0 + 0.5 * random_band_limited(M, np.random.default_rng(3))
    Lu = witten_laplacian(M, u)
    for gamma in (1e-4, 0.01, 0.05, 0.3, 2.0):
        b = u + gamma * Lu
        for Lx0 in (Lu, None):
            got = _helmholtz_solve(M, gamma, b, u, Lx0)
            assert np.array_equal(got, helmholtz_solve_precondition_first(M, gamma, b, u, Lx0))
    zero = np.zeros(M.shape)
    assert np.array_equal(_helmholtz_solve(M, 0.1, zero, u), zero)


@pytest.mark.parametrize("maxiter", [None, 1, 2])
def test_helmholtz_solve_breaks_down_as_the_precondition_first_solve(
    torus_non_separable, monkeypatch, maxiter
):
    M = torus_non_separable
    if maxiter is not None:
        monkeypatch.setattr(heatflow, "CG_MAXITER", maxiter)
    u = 1.0 + 0.5 * np.cos(3.0 * M.coordinates()[0])
    Lu = witten_laplacian(M, u)
    nan_rhs, nan_start = u.copy(), u.copy()
    nan_rhs[5, 7] = np.nan
    nan_start[7, 3] = np.nan
    cases = [
        (0.1, u + 0.1 * Lu, u, Lu),  # converges unless CG_MAXITER is cut
        (0.1, nan_rhs, u, None),  # non-finite residual
        (-0.3, u, u, None),  # p.Ap <= 0
        (0.1, u, nan_start, None),  # the start apply rejects the NaN
        (0.1, u, nan_start, Lu),  # the NaN reaches the residual
    ]
    outcomes = []
    for args in cases:
        got = _solve_outcome(_helmholtz_solve, M, *args)
        want = _solve_outcome(helmholtz_solve_precondition_first, M, *args)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)
        outcomes.append(want if isinstance(want, tuple) else None)
    if maxiter is None:
        assert outcomes[0] is None
    else:
        assert "within" in outcomes[0][1]
    assert "non-finite residual" in outcomes[1][1]
    assert "p.Ap = -247 <= 0 at iteration 0" in outcomes[2][1]
    assert outcomes[3] == (ValueError, "field contains non-finite values")
    assert "non-finite residual" in outcomes[4][1]


def _count_solve_transforms(fft_calls, monkeypatch, solve, *args):
    """``(applies, preconditioner transforms)`` of one solve: the operator
    applies it makes, and the FFT calls it makes outside them."""
    from wittenlab import operators

    divergence_form = operators._divergence_form
    apply_transforms = []

    def counting(manifold, f, grad=None):
        before = sum(fft_calls.values())
        out = divergence_form(manifold, f, grad)
        apply_transforms.append(sum(fft_calls.values()) - before)
        return out

    monkeypatch.setattr(operators, "_divergence_form", counting)
    fft_calls.clear()
    solve(*args)
    monkeypatch.setattr(operators, "_divergence_form", divergence_form)
    return len(apply_transforms), sum(fft_calls.values()) - sum(apply_transforms)


@pytest.mark.parametrize("model", ["torus_non_separable", "torus_32x48"])
def test_a_solve_preconditions_once_per_iteration(request, fft_calls, monkeypatch, model):
    """k iterations make k preconditioner passes, each one ``rfftn`` and
    one ``irfftn``; the precondition-first solve made k + 1 passes."""
    M = request.getfixturevalue(model)
    u = 1.0 + 0.5 * random_band_limited(M, np.random.default_rng(4))
    Lu = witten_laplacian(M, u)
    for gamma in (0.01, 0.3):
        args = (M, gamma, u + gamma * Lu, u, Lu)
        k, transforms = _count_solve_transforms(fft_calls, monkeypatch, _helmholtz_solve, *args)
        assert k >= 2 and transforms == 2 * k
        assert _count_solve_transforms(
            fft_calls, monkeypatch, helmholtz_solve_precondition_first, *args
        ) == (k, 2 * k + 2)
    # a start that already meets CG_TOL is neither applied nor preconditioned
    gamma = 0.05
    args = (M, gamma, u - gamma * Lu, u, Lu)
    assert _count_solve_transforms(fft_calls, monkeypatch, _helmholtz_solve, *args) == (0, 0)
    assert fft_calls == {}
    assert _count_solve_transforms(
        fft_calls, monkeypatch, helmholtz_solve_precondition_first, *args
    ) == (0, 2)


@pytest.mark.parametrize("model", ["torus_non_separable", "circle_cos"])
def test_benchmark_counters_see_three_dealias_calls_per_attempted_step(
    request, monkeypatch, model
):
    """The benchmark tracer wraps ``dealias_nyquist`` and ``witten_laplacian``
    where ``heatflow`` looks them up, counts a solve per dealias call inside
    ``evolve`` and needs a multiple of 3 (step doubling).  On a torus both
    counts equal those of a run on the precondition-first solve; a circle
    step applies no L."""
    M = request.getfixturevalue(model)
    s0 = initial_delta(M, (0,) * M.dim_n, t0=0.05)

    def counted_run(solve):
        counts = {"dealias": 0, "apply": 0, "advance": 0}

        def wrap(module, name, key):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
            return original

        originals = [
            (heatflow, "dealias_nyquist", wrap(heatflow, "dealias_nyquist", "dealias")),
            (heatflow, "witten_laplacian", wrap(heatflow, "witten_laplacian", "apply")),
            # the precondition-first solve looks the apply up in its own module
            (references, "witten_laplacian", wrap(references, "witten_laplacian", "apply")),
            (heatflow, "_advance", wrap(heatflow, "_advance", "advance")),
            (heatflow, "_helmholtz_solve", heatflow._helmholtz_solve),
        ]
        monkeypatch.setattr(heatflow, "_helmholtz_solve", solve)
        manifest = []
        evolve(s0, [0.1, 0.3], local_error=1e-8, manifest=manifest)
        for module, name, original in originals:
            monkeypatch.setattr(module, name, original)
        return counts, len(manifest)

    counts, accepted = counted_run(_helmholtz_solve)
    assert counts["dealias"] == counts["advance"] > 0
    assert counts["dealias"] % 3 == 0 and counts["dealias"] // 3 >= accepted > 0
    if M.dim_n == 1:
        assert counts["apply"] == 0
    else:
        assert counts["apply"] > counts["dealias"]
        assert counted_run(helmholtz_solve_precondition_first) == (counts, accepted)


@pytest.mark.parametrize(
    "model", ["circle_cos", "circle_cos_03", "circle_576", "torus_non_separable", "torus_32x48"]
)
def test_helmholtz_solve_matches_dense_solve(request, model):
    M = request.getfixturevalue(model)
    size = M.density.size
    dense = dense_operator(M)
    u = 1.0 + 0.5 * random_band_limited(M, np.random.default_rng(5))
    Lu = witten_laplacian(M, u)
    gamma = 0.05
    b = u + gamma * Lu  # a Crank-Nicolson right-hand side, started from u
    exact = np.linalg.solve(np.eye(size) - gamma * dense, b.ravel()).reshape(M.shape)
    for Lx0 in (Lu, None):
        got = _helmholtz_solve(M, gamma, b, u, Lx0)
        assert np.abs(got - exact).max() <= 1e-11 * np.abs(exact).max()


def test_crank_nicolson_applies_L_once_per_start_state(torus_non_separable, monkeypatch):
    # Outside PCG, an attempted step applies L for the second half step's
    # right-hand side, plus once per start state for the full and first
    # half steps, shared with the retries after a rejection.
    counts = {"outside": 0, "advance": 0}
    in_solve = []
    apply, solve, advance = (
        heatflow.witten_laplacian, heatflow._helmholtz_solve, heatflow._advance
    )

    def counting_apply(manifold, f):
        if not in_solve:
            counts["outside"] += 1
        return apply(manifold, f)

    def marked_solve(*args, **kwargs):
        in_solve.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            in_solve.pop()

    def counting_advance(*args, **kwargs):
        counts["advance"] += 1
        return advance(*args, **kwargs)

    s0 = initial_delta(torus_non_separable, (0, 0), t0=0.05)
    monkeypatch.setattr(heatflow, "witten_laplacian", counting_apply)
    monkeypatch.setattr(heatflow, "_helmholtz_solve", marked_solve)
    monkeypatch.setattr(heatflow, "_advance", counting_advance)
    manifest = []
    evolve(s0, [0.1, 0.3], local_error=1e-10, manifest=manifest)
    assert counts["advance"] % 3 == 0
    attempts = counts["advance"] // 3
    accepted = len(manifest)
    rejected = attempts - accepted
    assert rejected > 0
    assert counts["outside"] == 2 * accepted + rejected


DERIVED_FIELDS = (
    "dt_log_u",
    "grad_log_u",
    "log_u",
    "log_u_hessian",
    "log_u_gamma2",
    "entropy_pair",
)


def uncached_fields(M, s):
    """The derived fields of a numerical state, computed from scratch on M."""
    log_u = np.log(s.u)
    g = gradient(M, s.u) / s.u
    H = hessian(M, s.u) / s.u - np.einsum("a...,b...->ab...", g, g)
    return {
        "dt_log_u": witten_laplacian(M, s.u) / s.u,
        "grad_log_u": g,
        "log_u": log_u,
        "log_u_hessian": H,
        "log_u_gamma2": np.einsum("ab...,ab...->...", H, H)
        + np.einsum("ab...,a...,b...->...", M.potential_hessian, g, g),
        "entropy_pair": (
            -integrate_mu(M, s.u * log_u),
            integrate_mu(M, np.einsum("a...,a...->...", g, g) * s.u),
        ),
    }


# the exact start of the 32x48 torus is not resolved at t0 = 0.05
@pytest.mark.parametrize("name,t0", [("circle_cos", 0.05), ("torus_32x48", 0.1)])
def test_derived_fields_are_cached_read_only_and_exact(request, name, t0):
    M = request.getfixturevalue(name)
    x0 = (0,) * M.dim_n
    (s,) = evolve(initial_delta(M, x0, t0=t0), [0.2])
    expected = uncached_fields(M, s)
    for field in DERIVED_FIELDS:
        value = getattr(s, field)
        assert getattr(s, field) is value, field
        if field == "entropy_pair":
            assert value == expected[field]
        else:
            assert not value.flags.writeable, field
            assert np.array_equal(value, expected[field]), field


def test_replace_starts_an_empty_cache(circle_flat):
    # closed-form kernel states take their log-derivatives from t
    s = kernel_state(circle_flat, (0,), 0.1)
    before = s.dt_log_u
    later = replace(s, t=0.2)
    assert "dt_log_u" not in vars(later)
    assert np.array_equal(later.dt_log_u, kernel_state(circle_flat, (0,), 0.2).dt_log_u)
    assert not np.array_equal(later.dt_log_u, before)
    assert s.dt_log_u is before


@pytest.mark.parametrize("name,transforms", [("circle_cos", 2), ("torus_32x48", 6)])
def test_log_u_gamma2_reuses_the_cached_gradient_and_hessian(request, fft_calls, name, transforms):
    M = request.getfixturevalue(name)
    s = smooth_state(M, 0.0)
    assert M.potential_hessian is not None  # cached before counting
    gradient_of_log = s.grad_log_u
    fft_calls.clear()
    assert s.log_u_hessian is not None
    # the second derivatives of u, and on a torus one mixed derivative of
    # the grad u that grad_log_u took: no transform of log u
    assert sum(fft_calls.values()) == transforms
    fft_calls.clear()
    value = s.log_u_gamma2
    assert sum(fft_calls.values()) == 0
    assert s.grad_log_u is gradient_of_log
    assert np.array_equal(value, uncached_fields(M, s)["log_u_gamma2"])
