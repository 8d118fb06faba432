"""Heat flow: kernels, conservation, positivity, convergence order."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wittenlab import (
    PositivityError,
    dt_log_u,
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
from wittenlab.heatflow import SolverConvergenceError, _helmholtz_solve, grad_log_u
from wittenlab.kernels import eigen_sum_circle, wrapped_gaussian
from wittenlab.operators import (
    gamma2,
    gradient,
    hessian,
    integrate_mu,
    random_band_limited,
    witten_laplacian,
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


def test_initial_delta_default_t0_and_mass(circle_cos):
    s = initial_delta(circle_cos, 5)
    assert s.t == pytest.approx(max(circle_cos.spacings) ** 2)
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
    out = step(circle_cos, s, 0.05)
    assert np.abs(out.u - s.u).max() < 1e-13


def test_step_conserves_mass(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.05)
    out = step(circle_cos, s, 0.01)
    assert out.mass == pytest.approx(s.mass, abs=1e-12)
    assert out.t == pytest.approx(0.06)


def test_single_mode_decay_against_oracle(circle_flat):
    T = 0.5
    s = mode_state(circle_flat, 0.0)
    n_steps = 100
    for _ in range(n_steps):
        s = step(circle_flat, s, T / n_steps)
    exact = mode_state(circle_flat, T)
    assert np.abs(s.u - exact.u).max() < 5e-7


def test_scheme_second_order(circle_flat):
    # halving dt shrinks the error against the exact mode decay about 4x
    T = 0.4

    def error(n_steps):
        s = mode_state(circle_flat, 0.0)
        for _ in range(n_steps):
            s = step(circle_flat, s, T / n_steps)
        return np.abs(s.u - mode_state(circle_flat, T).u).max()

    ratio = error(20) / error(40)
    assert 3.6 < ratio < 4.4


def test_implicit_euler_first_order(circle_flat):
    T = 0.4

    def error(n_steps):
        s = mode_state(circle_flat, 0.0)
        for _ in range(n_steps):
            s = step(circle_flat, s, T / n_steps, scheme="implicit_euler")
        return np.abs(s.u - mode_state(circle_flat, T).u).max()

    ratio = error(20) / error(40)
    assert 1.7 < ratio < 2.3


def test_evolve_hits_targets_and_matches_oracle(circle_flat):
    s0 = mode_state(circle_flat, 0.0)
    snaps = evolve(circle_flat, s0, [0.25, 0.5, 1.0], local_error=1e-9)
    for s in snaps:
        exact = mode_state(circle_flat, s.t)
        assert np.abs(s.u - exact.u).max() < 1e-6
        assert s.mass == pytest.approx(1.0, abs=1e-11)


def test_evolve_manifest_records_steps(circle_flat):
    s0 = mode_state(circle_flat, 0.0)
    manifest = []
    evolve(circle_flat, s0, [0.2], manifest=manifest)
    assert manifest and all(r["dt"] > 0 for r in manifest)
    assert manifest[-1]["t"] == pytest.approx(0.2)


def test_evolve_rejects_bad_times(circle_flat):
    s0 = mode_state(circle_flat, 0.5)
    with pytest.raises(ValueError):
        evolve(circle_flat, s0, [0.4])
    with pytest.raises(ValueError):
        evolve(circle_flat, s0, [0.6, 0.6])


def test_equilibration_to_uniform(circle_flat):
    s0 = mode_state(circle_flat, 0.0)
    (final,) = evolve(circle_flat, s0, [20.0], local_error=1e-9)
    assert np.abs(final.u - 1.0 / circle_flat.mu_total).max() < 1e-8


def test_monotone_equilibration_with_potential(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(circle_cos, s, [0.2, 0.8, 2.0, 6.0])
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
    snaps = evolve(M, s, t_grid, local_error=1e-10)
    uniform = 1.0 / M.mu_total
    sup = np.array([np.abs(s.u - uniform).max() for s in snaps])
    slope = (np.log(sup[0]) - np.log(sup[-1])) / (t_grid[-1] - t_grid[0])
    assert slope == pytest.approx(lam1, rel=2e-2)


def test_dt_log_u_stationary(circle_cos):
    s = uniform_state(circle_cos, t=1.0)
    assert np.abs(dt_log_u(circle_cos, s)).max() < 1e-10


def test_dt_log_u_mode_closed_form(circle_flat):
    t, a = 0.7, 0.9
    s = mode_state(circle_flat, t, amplitude=a)
    x = circle_flat.axis_coordinates(0)
    decayed = a * math.exp(-t) * np.cos(x)
    expected = -decayed / (1.0 + decayed)
    assert np.abs(dt_log_u(circle_flat, s) - expected).max() < 1e-10


def test_dt_log_u_matches_finite_differences(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.1)
    d = 1e-3
    snaps = evolve(circle_cos, s, [0.3 - d, 0.3, 0.3 + d], local_error=1e-11)
    fd = (np.log(snaps[2].u) - np.log(snaps[0].u)) / (2 * d)
    rate = dt_log_u(circle_cos, snaps[1])
    # the gap is second order in the finite-difference spacing
    assert np.abs(rate - fd).max() < 2e-4


def test_dt_log_u_kernel_on_diagonal_small_t(circle_flat):
    s = kernel_state(circle_flat, (0,), 1e-3)
    rate = dt_log_u(circle_flat, s)
    assert rate[0] == pytest.approx(-0.5 / 1e-3, rel=1e-10)


def test_grad_log_analytic_matches_spectral_at_moderate_t(circle_flat):
    s = kernel_state(circle_flat, (0,), 0.25)
    g_analytic = grad_log_u(circle_flat, s)
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
        heatflow._clamp_rounding_negatives(circle_flat, u)
    assert err.value.node == (6,) and type(err.value.node[0]) is int


def test_oversized_step_reports_positivity_violation(circle_flat):
    # implicit midpoint overshoots on a sharply peaked state with a huge dt
    s = initial_delta(circle_flat, 0, t0=2e-3)
    with pytest.raises(PositivityError) as err:
        step(circle_flat, s, 5.0)
    assert err.value.node is not None


def test_solver_convergence_error(circle_cos, monkeypatch):
    from wittenlab import heatflow as hf

    s = initial_delta(circle_cos, 0, t0=0.05)
    monkeypatch.setattr(hf, "CG_MAXITER", 1)
    with pytest.raises(hf.SolverConvergenceError):
        step(circle_cos, s, 0.1)


def test_kernel_state_rejects_nonconstant_potential(circle_cos):
    with pytest.raises(ValueError, match="constant"):
        kernel_state(circle_cos, (0,), 0.01)


def test_evolved_kernel_keeps_symmetry(circle_flat):
    s = initial_delta(circle_flat, 64, t0=0.01)
    (out,) = evolve(circle_flat, s, [0.2])
    u = np.roll(out.u, -64)
    assert np.abs(u[1:] - u[:0:-1]).max() < 1e-12


def test_kernel_mass_drift_over_long_run(circle_flat):
    s = initial_delta(circle_flat, 0, t0=1e-3)
    snaps = evolve(circle_flat, s, [0.01, 0.1, 0.5, 1.0, 2.0])
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
    snaps = evolve(M, s0, [t0, 0.03, 0.3, 1.0], manifest=manifest)
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
    exact = evolve(circle_flat, s0, times)
    manifest = []
    stepped = evolve(
        circle_flat, s0, times, local_error=1e-10, scheme="crank_nicolson",
        manifest=manifest,
    )
    assert len(manifest) > len(times)  # an explicit scheme forces time stepping
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
    for s in evolve(M, s0, [1e-6, 1e-3, 1.0]):
        uh = np.fft.fftn(s.u)
        for axis, n in enumerate(M.shape):
            assert np.abs(np.take(uh, n // 2, axis=axis)).max() <= 1e-13 * abs(uh.flat[0])
        assert abs(s.mass - s0.mass) <= 1e-10
        assert s.u.min() > 0.0


def test_weighted_model_still_steps(circle_cos):
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    manifest = []
    snaps = evolve(circle_cos, s0, [0.1, 0.2], manifest=manifest)
    assert len(manifest) > len(snaps)


def dense_operator(M):
    """L as a dense matrix on the C-ordered grid, one apply per basis vector."""
    basis = np.eye(M.density.size)
    return np.stack(
        [witten_laplacian(M, e.reshape(M.shape)).ravel() for e in basis], axis=1
    )


def nyquist_projection(M):
    """P, which zeroes the per-axis Nyquist planes, as a dense matrix."""
    P = np.ones((1, 1))
    for n in M.shape:
        v = (-1.0) ** np.arange(n)
        P = np.kron(P, np.eye(n) - np.outer(v, v) / n)
    return P


def smooth_state(M, t, max_mode=4):
    u = 1.0 + 0.2 * random_band_limited(M, np.random.default_rng(5), max_mode=max_mode)
    return make_state(M, u / M.mu_total, t)


def test_separable_torus_propagator_matches_dense_expm(torus_32x48):
    from scipy.linalg import expm

    M = torus_32x48
    tau = 0.45
    P = nyquist_projection(M)
    exact = expm(tau * (P @ dense_operator(M) @ P)) @ P
    factors = [(left * np.exp(tau * lam)) @ right for left, lam, right in M.axis_eigensystems]
    assert np.abs(np.kron(*factors) - exact).max() <= 1e-12 * np.abs(exact).max()

    s0 = smooth_state(M, 0.1)
    manifest = []
    (s,) = evolve(M, s0, [0.1 + tau], manifest=manifest)
    expected = (exact @ s0.u.ravel()).reshape(M.shape)
    assert np.abs(s.u - expected).max() <= 1e-12 * expected.max()
    assert manifest == [{"t": 0.1 + tau, "dt": pytest.approx(tau), "error_estimate": 0.0}]


def test_circle_factors_match_dense_expm():
    # circles are still stepped, but their per-axis factors are exact too
    from scipy.linalg import expm

    M = circle(32, potential={"family": "cosine", "params": {"a": 1.0, "k": 2}})
    P = nyquist_projection(M)
    PLP = P @ dense_operator(M) @ P
    ((left, lam, right),) = M.axis_eigensystems
    for tau in (0.1, 1.0):
        exact = expm(tau * PLP) @ P
        got = (left * np.exp(tau * lam)) @ right
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


def test_separable_torus_agrees_with_crank_nicolson(torus_32x48):
    # Crank-Nicolson's error at local_error 1e-10 is measured against a
    # run at 1e-11; the exact snapshots lie within it, closer to the finer run
    M = torus_32x48
    s0 = smooth_state(M, 0.0, max_mode=2)
    times = [0.05, 0.2]
    exact = evolve(M, s0, times)
    manifest = []
    cn = evolve(
        M, s0, times, local_error=1e-10, scheme="crank_nicolson", manifest=manifest
    )
    finer = evolve(M, s0, times, local_error=1e-11, scheme="crank_nicolson")
    assert len(manifest) > len(times)
    for a, b, c in zip(exact, cn, finer):
        measured = np.abs(b.u - c.u).max()
        assert np.abs(a.u - b.u).max() <= 2.0 * measured
        assert np.abs(a.u - c.u).max() < np.abs(a.u - b.u).max()


def test_bundled_torus_is_propagated_exactly_with_mass_and_positivity():
    raw = load_config(bundled_config_path("torus_hamilton"))
    M = build_manifold(raw["manifold"])
    solver = raw["solver"]
    s0 = initial_delta(M, tuple(solver["x0"]), t0=solver["t0"])
    manifest = []
    snaps = evolve(
        M, s0, solver["times"], local_error=solver["local_error"], manifest=manifest
    )
    assert [r["error_estimate"] for r in manifest] == [0.0] * len(solver["times"])
    for s in snaps:
        assert abs(s.mass - s0.mass) <= 1e-10
        assert s.u.min() > 0.0


def test_non_separable_and_forced_torus_runs_still_step(torus_32x48):
    xs, ys = torus_32x48.coordinates()
    mixed = flat_torus(
        (32, 48), potential={"family": "samples", "samples": 0.3 * np.cos(xs + ys)}
    )
    assert mixed.axis_eigensystems is None
    for M, scheme in ((mixed, None), (torus_32x48, "crank_nicolson")):
        manifest = []
        evolve(M, initial_delta(M, (0, 0), t0=0.05), [0.06], scheme=scheme, manifest=manifest)
        assert len(manifest) > 1
        assert all(r["error_estimate"] > 0.0 for r in manifest)


def test_adaptive_evolve_raises_when_step_size_collapses(circle_flat, monkeypatch):
    s0 = uniform_state(circle_flat)
    shift = 1.0 / circle_flat.mu_total

    def advance(manifold, u, dt, scheme, Lu=None):
        # one step and two half steps never agree, whatever the step size
        return u + shift

    monkeypatch.setattr(heatflow, "_advance", advance)
    with pytest.raises(SolverConvergenceError, match="local error estimate"):
        evolve(circle_flat, s0, [0.1], scheme="crank_nicolson")


def test_no_snapshot_times_give_no_snapshots(circle_cos):
    s0 = initial_delta(circle_cos, 0, t0=0.05)
    flow = make_flow(circle_cos, "constant_rate", {"rate": -0.4}, horizon=1.0)
    manifest = []
    assert evolve(circle_cos, s0, [], manifest=manifest) == []
    assert evolve_heat_on_flow(flow, s0, [], manifest=manifest) == []
    assert manifest == []


def test_kernel_state_rejects_integer_node_on_torus(torus_flat):
    with pytest.raises(ValueError, match="index pairs"):
        kernel_state(torus_flat, 3, 0.1)


def test_pcg_names_an_indefinite_system(circle_cos):
    b = 1.0 + 0.5 * np.cos(3.0 * circle_cos.axis_coordinates(0))
    with pytest.raises(SolverConvergenceError, match=r"p\.Ap = .* <= 0"):
        _helmholtz_solve(circle_cos, -0.3, b, b)


def test_pcg_names_a_non_finite_residual(circle_cos):
    b = np.full(circle_cos.shape, 1.0)
    rhs = b.copy()
    rhs[5] = np.nan
    with pytest.raises(SolverConvergenceError, match="non-finite residual"):
        _helmholtz_solve(circle_cos, 0.1, rhs, b)


def test_helmholtz_solve_matches_dense_solve(torus_32x48):
    M = torus_32x48
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


def test_crank_nicolson_applies_L_once_per_start_state(circle_cos, monkeypatch):
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

    s0 = initial_delta(circle_cos, 0, t0=0.05)
    monkeypatch.setattr(heatflow, "witten_laplacian", counting_apply)
    monkeypatch.setattr(heatflow, "_helmholtz_solve", marked_solve)
    monkeypatch.setattr(heatflow, "_advance", counting_advance)
    manifest = []
    evolve(circle_cos, s0, [0.1, 0.3], local_error=1e-10, manifest=manifest)
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
    "log_u_gradient",
    "log_u_hessian",
    "log_u_gamma2",
    "entropy_pair",
)


def uncached_fields(M, s):
    """The derived fields of a numerical state, computed from scratch on M."""
    log_u = np.log(s.u)
    g = gradient(M, s.u) / s.u
    return {
        "dt_log_u": witten_laplacian(M, s.u) / s.u,
        "grad_log_u": g,
        "log_u": log_u,
        "log_u_gradient": gradient(M, log_u),
        "log_u_hessian": hessian(M, log_u),
        "log_u_gamma2": gamma2(M, log_u),
        "entropy_pair": (
            -integrate_mu(M, s.u * log_u),
            integrate_mu(M, np.einsum("a...,a...->...", g, g) * s.u),
        ),
    }


@pytest.mark.parametrize("name", ["circle_cos", "torus_32x48"])
def test_derived_fields_are_cached_read_only_and_exact(request, name):
    M = request.getfixturevalue(name)
    x0 = (0,) * M.dim_n
    (s,) = evolve(M, initial_delta(M, x0, t0=0.05), [0.2])
    expected = uncached_fields(M, s)
    for field in DERIVED_FIELDS:
        value = getattr(s, field)
        assert getattr(s, field) is value, field
        if field == "entropy_pair":
            assert value == expected[field]
        else:
            assert not value.flags.writeable, field
            assert np.array_equal(value, expected[field]), field
    assert dt_log_u(M, s) is s.dt_log_u
    assert grad_log_u(M, s) is s.grad_log_u


def test_replace_starts_an_empty_cache(circle_flat):
    # closed-form kernel states take their log-derivatives from t
    s = kernel_state(circle_flat, (0,), 0.1)
    before = s.dt_log_u
    later = replace(s, t=0.2)
    assert "dt_log_u" not in vars(later)
    assert np.array_equal(later.dt_log_u, kernel_state(circle_flat, (0,), 0.2).dt_log_u)
    assert not np.array_equal(later.dt_log_u, before)
    assert s.dt_log_u is before


def test_fields_on_another_manifold_bypass_the_cache(circle_flat, circle_cos):
    # the (manifold, state) functions compute on the manifold they are given
    s = mode_state(circle_flat, 0.3)
    rate = dt_log_u(circle_cos, s)
    assert "dt_log_u" not in vars(s)
    assert np.array_equal(rate, uncached_fields(circle_cos, s)["dt_log_u"])
    assert not np.array_equal(rate, s.dt_log_u)
    expected = uncached_fields(circle_cos, s)["grad_log_u"]
    assert np.array_equal(grad_log_u(circle_cos, s), expected)
    assert dt_log_u(circle_cos, s) is not rate
    assert np.array_equal(s.dt_log_u, uncached_fields(circle_flat, s)["dt_log_u"])


def test_log_u_gamma2_reuses_the_cached_gradient_and_hessian(torus_32x48, fft_calls):
    M = torus_32x48
    s = smooth_state(M, 0.0)
    assert M.potential_hessian is not None  # cached before counting
    gradient_of_log = s.log_u_gradient
    fft_calls.clear()
    assert s.log_u_hessian is not None
    # two second derivatives and one mixed derivative of the cached gradient
    assert sum(fft_calls.values()) == 6
    fft_calls.clear()
    value = s.log_u_gamma2
    assert sum(fft_calls.values()) == 0
    assert s.log_u_gradient is gradient_of_log
    assert np.array_equal(value, gamma2(M, s.log_u))
