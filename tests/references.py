"""Independent reference implementations the tests compare the package against."""

import math
from dataclasses import replace

import numpy as np

from wittenlab import evolve, heatflow, kernels
from wittenlab.entropy import SERIES_RTOL, monotonicity_bound, phi_mK_prime
from wittenlab.geometry import (
    _m_equals_n,
    _smallest_eigenvalue_field,
    bakry_emery_tensor,
    geodesic_distance,
    ricci_bakry_emery,
)
from wittenlab.harnack import (
    HARNACK_TOL_REL,
    KERNEL_BOUND_TOL_REL,
    IntegratedHarnackReport,
    KernelDtLogReport,
)
from wittenlab.operators import (
    _grid_axes,
    bochner_residual,
    gradient,
    hessian,
    integrate_mu,
    laplacian,
    mu_inner,
    random_band_limited,
    witten_laplacian,
)
from wittenlab.reports import SERIES_COLUMNS, _column, _fmt, _header, _node_prefixes
from wittenlab.ricciflow import FIT_SAMPLES

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


def random_band_limited_loop(manifold, rng, max_mode=None, scale=1.0):
    """Mode-by-mode trigonometric sum that ``wittenlab.operators.random_band_limited``
    builds by one inverse FFT, with the same draws in the same order.

    Evaluates ``cos(k x)`` on the raw coordinates, so it agrees with the
    package only at period 2 pi; used as an oracle there.
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


def operators_selftest_loop(manifold, count, seed):
    """The operator self-test one field pair at a time, drawn ``f0, h0, f1,
    h1, ...``: the worst scaled Bochner residual and the worst relative
    adjointness gap that ``wittenlab.cli`` finds on stacked blocks."""
    rng = np.random.default_rng(seed)
    worst_res = 0.0
    worst_adj = 0.0
    for _ in range(count):
        f = random_band_limited(manifold, rng)
        h = random_band_limited(manifold, rng)
        res = bochner_residual(manifold, f)
        scale = 1.0 + float(np.abs(f).max())
        worst_res = max(worst_res, float(np.abs(res).max()) / scale)
        a = mu_inner(manifold, f, witten_laplacian(manifold, h))
        b = mu_inner(manifold, h, witten_laplacian(manifold, f))
        worst_adj = max(worst_adj, abs(a - b) / max(1.0, abs(a)))
    return worst_res, worst_adj


def geodesic_distance_meshgrid(manifold, y):
    """Distance field from node ``y`` on the grid-shaped coordinates of
    ``manifold.coordinates()``, each displacement folded into [-L/2, L/2):
    the field ``wittenlab.geometry.geodesic_distance`` builds from per-axis
    coordinates."""
    if manifold.dim_n == 1:
        x = manifold.axis_coordinates(0)
        L = manifold.circumferences[0]
        return np.abs((x - x[y[0]] + L / 2.0) % L - L / 2.0)
    xs, ys = manifold.coordinates()
    Lx, Ly = manifold.circumferences
    dx = (xs - xs[y] + Lx / 2.0) % Lx - Lx / 2.0
    dy = (ys - ys[y] + Ly / 2.0) % Ly - Ly / 2.0
    return np.sqrt(dx * dx + dy * dy)


def integrated_loop(snapshots, pairs, tau, T, m, K):
    """Integrated Harnack reports one node pair at a time, each distance
    read off the whole distance field from x: the per-pair route that
    ``wittenlab.harnack.integrated_harnack_checks`` takes in one pass."""
    s_tau, s_T = (next(s for s in snapshots if s.t == t) for t in (tau, T))
    M = s_tau.manifold
    return [
        IntegratedHarnackReport(
            x=x, y=y, tau=float(tau), T=float(T), m=float(m), K=float(K),
            distance=float(geodesic_distance(M, x)[y]),
            lhs=float(s_tau.u[x] / s_T.u[y]),
        )
        for x, y in pairs
    ]


def one_heat_flow(start, times, flow, local_error):
    """The base snapshots at ``times`` and the flow snapshots at the times
    within the flow horizon of a run whose checks read both clocks.

    One ``evolve`` from ``start`` over the sorted union of ``times`` and the
    flow times' base-clock times ``start.t + base_time(start.t, t)``; a
    base-clock time within 1e-13 of one of ``times`` is that time.  The
    flow snapshots carry their flow times.
    """
    flow_times = [t for t in times if t <= flow.horizon + 1e-12]
    taus = [start.t + flow.base_time(start.t, t) for t in flow_times]
    taus = [next((t for t in times if abs(t - tau) <= 1e-13), tau) for tau in taus]
    merged = sorted(set(times) | set(taus))
    at = dict(zip(merged, evolve(start, merged, local_error=local_error)))
    return [at[t] for t in times], [replace(at[tau], t=t) for tau, t in zip(taus, flow_times)]


def adaptive_evolve_regrowing(state, times, local_error, manifest):
    """``wittenlab.heatflow._adaptive_evolve`` as it was before a landing
    kept its proposal: after an accepted step the next one grows from the
    step taken, so a step cut short to land on a snapshot time restarts
    the controller from the cut length.  Steps through
    ``heatflow._advance`` and ``heatflow._accept``, looked up at call
    time."""
    times = heatflow._snapshot_times(times, state.t)
    manifold = state.manifold
    out = []
    current = state
    Lu = None
    mass0 = state.mass
    dt = min(heatflow.DT_MAX, 0.05 * max(times[0] - state.t, 1e-3) + 1e-4) if times else 0.0
    for target in times:
        while current.t < target - heatflow._SAME_TIME:
            dt = min(dt, heatflow.DT_MAX, target - current.t)
            if Lu is None:
                Lu = witten_laplacian(manifold, current.u)
            coarse = heatflow._advance(manifold, current.u, dt, Lu)
            half = heatflow._advance(manifold, current.u, 0.5 * dt, Lu)
            fine = heatflow._advance(manifold, half, 0.5 * dt)
            scale = float(np.abs(fine).max())
            err = float(np.abs(coarse - fine).max()) / (3.0 * max(scale, 1e-300))
            if err <= local_error:
                current = heatflow._accept(
                    manifold, fine, current.t + dt, mass0, current.kernel,
                    where=f"evolve at t={current.t + dt:.6g}",
                )
                Lu = None
                if manifest is not None:
                    manifest.append({"t": current.t, "dt": dt, "error_estimate": err})
                grow = 0.9 * (local_error / max(err, 1e-16)) ** (1.0 / 3.0)
                dt = dt * min(5.0, max(0.2, grow))
            elif dt <= 1e-12:
                raise heatflow.SolverConvergenceError(f"step size {dt:.3g} at t={current.t:.6g}")
            else:
                dt = dt * max(0.2, 0.9 * (local_error / err) ** (1.0 / 3.0))
        out.append(current)
    return out


def dense_operator(M):
    """L as a dense matrix on the C-ordered grid, one apply per basis vector."""
    basis = np.eye(M.density.size)
    return np.stack(
        [witten_laplacian(M, e.reshape(M.shape)).ravel() for e in basis], axis=1
    )


def helmholtz_solve_precondition_first(manifold, gamma, b, x0, Lx0=None):
    """``wittenlab.heatflow._helmholtz_solve`` as it was before the residual
    test moved ahead of the preconditioner: every iteration preconditions
    the new residual before the next test, so each solve makes one pass
    whose result it discards.  The same arithmetic in the same order, so
    the two agree bit for bit; ``CG_TOL`` and ``CG_MAXITER`` are read from
    the package at call time."""
    s_half = manifold.sqrt_density
    pre = 1.0 / (1.0 + gamma * manifold._rfftn_wavenumber_square)
    axes = tuple(range(manifold.dim_n))

    def apply_sym(v):
        return v - gamma * s_half * witten_laplacian(manifold, v / s_half)

    def precondition(v):
        return np.fft.irfftn(pre * np.fft.rfftn(v), s=manifold.shape, axes=axes)

    if Lx0 is None:
        Lx0 = witten_laplacian(manifold, x0)
    bs = s_half * b
    v = s_half * x0
    r = s_half * (b - x0 + gamma * Lx0)
    bnorm = float(np.linalg.norm(bs))
    if bnorm == 0.0:
        return np.zeros_like(b)
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for it in range(heatflow.CG_MAXITER):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= heatflow.CG_TOL * bnorm:
            return v / s_half
        if not (math.isfinite(rnorm) and math.isfinite(rz)):
            raise heatflow.SolverConvergenceError(
                f"conjugate gradients broke down: non-finite residual (|r| = {rnorm}, "
                f"r.z = {rz}) at iteration {it}"
            )
        Ap = apply_sym(p)
        pAp = float(np.vdot(p, Ap).real)
        if not pAp > 0.0:
            raise heatflow.SolverConvergenceError(
                f"conjugate gradients broke down: p.Ap = {pAp:.3g} <= 0 at iteration "
                f"{it}: I - gamma L with gamma = {gamma:g} is not positive definite"
            )
        alpha = rz / pAp
        v = v + alpha * p
        r = r - alpha * Ap
        z = precondition(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise heatflow.SolverConvergenceError(
        f"conjugate gradients missed residual {heatflow.CG_TOL:g} within "
        f"{heatflow.CG_MAXITER} iterations"
    )


def crank_nicolson_step_by_solve(manifold, u, dt):
    """``wittenlab.heatflow._advance`` on a circle as it was before the step
    became one diagonal map: apply L for the right-hand side
    ``u + (dt/2) L u``, solve directly in the eigenbasis
    (``heatflow._eigenbasis_solve``) and project by ``rho^-1/2 P rho^1/2``,
    with P as a real-FFT pair that zeroes the Nyquist coefficient."""
    g = 0.5 * dt
    out = heatflow._eigenbasis_solve(manifold, g, u + g * witten_laplacian(manifold, u))
    s = manifold.sqrt_density
    vh = np.fft.rfft(out * s)
    vh[-1] = 0.0
    return np.fft.irfft(vh, manifold.grid_sizes[0]) / s


def nyquist_projection(M):
    """P, which zeroes the per-axis Nyquist planes, as a dense matrix."""
    P = np.ones((1, 1))
    for n in M.shape:
        v = (-1.0) ** np.arange(n)
        P = np.kron(P, np.eye(n) - np.outer(v, v) / n)
    return P


def symmetric_target(M, tau):
    """T(tau) = rho^-1/2 P exp(tau PSP) P rho^1/2 with S = rho^1/2 L rho^-1/2,
    as a dense matrix, from scipy's expm."""
    from scipy.linalg import expm

    s = M.sqrt_density.ravel()
    S = s[:, None] * dense_operator(M) / s[None, :]
    P = nyquist_projection(M)
    return (expm(tau * (P @ S @ P)) @ P) / s[:, None] * s[None, :]


def random_band_limited_rows(manifold, rng, max_mode=None, scale=1.0, size=None):
    """``wittenlab.operators.random_band_limited`` with one draw and one pair
    of ``np.add.at`` per row, where the package places all rows at once; the
    two must agree bit for bit and leave the generator at the same point."""
    if max_mode is None:
        max_mode = max(2, min(manifold.grid_sizes) // 8)
    stack = () if size is None else (size,)
    spectrum = np.zeros(stack + manifold.shape, dtype=complex)
    for row in spectrum.reshape((-1,) + manifold.shape):
        if manifold.dim_n == 1:
            modes = np.arange(1, max_mode + 1)[:, None]
        else:
            n_terms = 3 * max_mode
            kx = rng.integers(-max_mode, max_mode + 1, size=n_terms)
            ky = rng.integers(-max_mode, max_mode + 1, size=n_terms)
            modes = np.stack([kx, ky], axis=1)[(kx != 0) | (ky != 0)]
        a, b = rng.standard_normal((len(modes), 2)).T
        norm = 1.0 + np.sqrt(np.sum(modes * modes, axis=1))
        coef = (0.5 * math.prod(manifold.shape)) * (a - 1j * b) / norm
        np.add.at(row, tuple((modes % manifold.shape).T), coef)
        np.add.at(row, tuple((-modes % manifold.shape).T), coef.conj())
    return scale * np.fft.ifftn(spectrum, axes=_grid_axes(manifold)).real


def disk_weights_full_period(k, r):
    """``2 pi r J1(|k| r) / |k|`` by the trapezoid rule over the whole period
    on ``2 ceil(max |k| r) + 64`` nodes, one cosine per node: the rule that
    ``wittenlab.geometry._disk_weights`` takes on the symmetric quarter."""
    nodes = 2 * math.ceil(float(np.max(k)) * r) + 64
    a = np.arange(nodes) * (2.0 * np.pi / nodes)
    rule = np.sin(a) ** 2 * (2.0 * np.pi * r * r / nodes)
    return np.cos(np.multiply.outer(k * r, np.cos(a))) @ rule


def bakry_emery_uncached(manifold, m):
    """``(tensor, smallest eigenvalue field)`` of the Bakry-Emery tensor,
    built afresh on every call: what ``wittenlab.geometry`` keeps per m."""
    hess = manifold.potential_hessian
    if _m_equals_n(manifold, m, infinite_ok=True) or math.isinf(m):
        tensor = hess
    else:
        grad = manifold.potential_gradient
        tensor = hess - np.einsum("a...,b...->ab...", grad, grad) / (m - manifold.dim_n)
    return tensor, _smallest_eigenvalue_field(tensor, manifold.dim_n)


def snapshots_csv_per_row(snapshots):
    """Snapshot CSV text joined row by row, each row ``t + prefix + "," + u``: the
    assembly that ``wittenlab.reports.snapshots_csv`` does in one join per
    snapshot."""
    manifold = snapshots[0].manifold
    cols = ["t", "node_index", *["x", "y"][: manifold.dim_n], "u"]
    prefixes = _node_prefixes(manifold.grid_sizes, manifold.circumferences)
    blocks = [_header("snapshots", cols)]
    for s in snapshots:
        t = _fmt(s.t) + ","
        u_text = _column(np.asarray(s.u))
        blocks.append("\n".join(t + p + "," + u for p, u in zip(prefixes, u_text)) + "\n")
    return "".join(blocks)


def log_u_derivatives(state):
    """``(L u / u, grad u / u)`` from one ``witten_laplacian`` and one
    ``gradient`` call, each differentiating u on its own: the fields that
    ``HeatState.dt_log_u`` and ``grad_log_u`` build from one grad u."""
    M = state.manifold
    return witten_laplacian(M, state.u) / state.u, gradient(M, state.u) / state.u


# ------------------------------------------------- per-snapshot check formulas
# The Harnack defects, kernel bounds and entropy terms of one snapshot at a
# time, as wittenlab evaluated them before it took a run's snapshots as one
# stack, on fields taken straight from the operators (no HeatState cache).


def reference_log_derivatives(state):
    """``(Lu/u, grad u/u)`` of one state: the closed form of an analytic
    kernel (a sum and a stack of per-axis image averages), else
    :func:`log_u_derivatives`."""
    kernel = state.kernel
    if kernel is None or not kernel.analytic:
        return log_u_derivatives(state)
    M, t = state.manifold, state.t
    dt = np.zeros(M.shape)
    grad = []
    for axis in range(M.dim_n):
        x = M.axis_coordinates(axis)
        theta = x - x[kernel.x0[axis]]
        shape = [1] * M.dim_n
        shape[axis] = M.grid_sizes[axis]
        L = M.circumferences[axis]
        dt = dt + kernels.wrapped_gaussian_log_dt(theta, t, L).reshape(shape)
        grad.append(kernels.wrapped_gaussian_log_dx(theta, t, L).reshape(shape))
    return dt, np.stack(np.broadcast_arrays(*grad))


def reference_log_hessian(state):
    """``Hess u / u - g (x) g`` of one state with ``g = grad u / u``, from one
    ``hessian`` call on u; on an analytic kernel the diagonal of the wrapped
    Gaussian's ``(log k)_t - (log k)_x^2`` per axis, with zero mixed entries."""
    M, u, kernel = state.manifold, state.u, state.kernel
    if kernel is None or not kernel.analytic:
        g = gradient(M, u) / u
        return hessian(M, u) / u - np.einsum("a...,b...->ab...", g, g)
    H = np.zeros((M.dim_n, M.dim_n) + M.shape)
    for axis in range(M.dim_n):
        x = M.axis_coordinates(axis)
        theta = x - x[kernel.x0[axis]]
        shape = [1] * M.dim_n
        shape[axis] = M.grid_sizes[axis]
        L = M.circumferences[axis]
        dx = kernels.wrapped_gaussian_log_dx(theta, state.t, L)
        dt = kernels.wrapped_gaussian_log_dt(theta, state.t, L)
        H[axis, axis] = (dt - dx * dx).reshape(shape)
    return H


def reference_log_gamma2(state):
    """Gamma2 of log u at one state from the quotient gradient and Hessian."""
    G, H = reference_log_derivatives(state)[1], reference_log_hessian(state)
    return np.einsum("ab...,ab...->...", H, H) + np.einsum(
        "ab...,a...,b...->...", state.manifold.potential_hessian, G, G
    )


def _sq(g):
    return np.einsum("a...,a...->...", g, g)


def reference_hamilton(state, m, K):
    """``(defect, tol)`` of the Hamilton bound at one state."""
    dt, g = reference_log_derivatives(state)
    t = state.t
    rhs_const = (m / (2.0 * t)) * math.exp(4.0 * K * t)
    return rhs_const + math.exp(2.0 * K * t) * dt - _sq(g), HARNACK_TOL_REL * rhs_const


def reference_sup_bound(state, m, K, A):
    """``(defect, tol, defect_variant)`` of the sup-normalized bound at one state."""
    dt, g = reference_log_derivatives(state)
    t = state.t
    if K == 0.0:
        prefactor = 1.0 / t
    else:
        prefactor = K / (-math.expm1(-K * t))
    bracket = m + 4.0 * np.log(A / state.u)
    lhs = dt + _sq(g)
    return (
        prefactor * bracket - lhs, HARNACK_TOL_REL * (prefactor * m),
        (K + 1.0 / t) * bracket - lhs,
    )


def reference_kernel_bounds(snapshots, m, K):
    """The kernel d/dt log u report, one snapshot at a time."""
    manifold = snapshots[0].manifold
    dist = geodesic_distance(manifold, snapshots[0].kernel.x0)
    min_margin, fitted, ok = math.inf, 0.0, True
    for s in snapshots:
        t = s.t
        lower = -(m / (2.0 * t)) * math.exp(2.0 * K * t)
        rate = reference_log_derivatives(s)[0]
        margin = float((rate - lower).min())
        min_margin = min(min_margin, margin)
        if margin < -KERNEL_BOUND_TOL_REL * abs(lower):
            ok = False
        shape = (1.0 + 1.0 / math.sqrt(t) + dist / t) ** 2
        fitted = max(fitted, float((rate / shape).max()))
    return KernelDtLogReport(
        m=float(m), K=float(K), times=tuple(s.t for s in snapshots),
        min_margin=float(min_margin), ok=bool(ok), fitted_upper_constant=float(fitted),
    )


def _monotonicity_bound(t, m, K):
    return -(m / (2.0 * t)) * (
        math.exp(4.0 * K * t) * (1.0 + 4.0 * K * t) - (1.0 + K * t) ** 2
    )


def reference_decomposition(state, m, K, scale=1.0, rate=0.0):
    """``(T1, T2, T3, T4)`` of dW/dt at one state in the metric g_base / scale."""
    manifold, t, u = state.manifold, state.t, state.u
    n = manifold.dim_n
    G = reference_log_derivatives(state)[1]
    H = reference_log_hessian(state)
    c = 0.5 * K + 0.5 / t
    completed = H + (c / scale) * np.eye(n).reshape((n, n) + (1,) * n)
    T1 = -2.0 * t * (scale * scale) * integrate_mu(
        manifold, np.einsum("ab...,ab...->...", completed, completed) * u
    )
    ric = bakry_emery_tensor(manifold, m)
    quad = scale * scale * np.einsum("ab...,a...,b...->...", ric, G, G) + (
        rate + K
    ) * scale * _sq(G)
    T2 = -2.0 * t * integrate_mu(manifold, quad * u)
    if _m_equals_n(manifold, m):
        T3 = 0.0
    else:
        drift = np.einsum("a...,a...->...", manifold.potential_gradient, G)
        align = scale * drift - (m - n) * (1.0 + K * t) / (2.0 * t)
        T3 = -(2.0 * t / (m - n)) * integrate_mu(manifold, align * align * u)
    return float(T1), float(T2), float(T3), _monotonicity_bound(t, m, K)


def reference_series_columns(snapshots, m, K, flow=None):
    """The entropy series' stored columns by name, one snapshot at a time."""
    rows = []
    for s in snapshots:
        scale, rate = (1.0, 0.0) if flow is None else (
            flow.operator_scale(s.t), flow.log_factor_rate(s.t)
        )
        M, t, u = s.manifold, s.t, s.u
        log_u = np.log(u)
        H = -integrate_mu(M, u * log_u)
        G_sq = _sq(reference_log_derivatives(s)[1])
        dH = scale * integrate_mu(M, G_sq * u)
        Phi = phi_mK_loop(t, m, K)
        W = H - Phi + t * (dH - phi_mK_prime(t, m, K))
        d2H = -2.0 * integrate_mu(
            M, (scale * scale * reference_log_gamma2(s) + rate * scale * G_sq) * u
        )
        rows.append((H, dH, d2H, Phi, W, *reference_decomposition(s, m, K, scale, rate)))
    names = ("H", "dH_dt", "d2H_dt2", "Phi", "W_mK", "T1", "T2", "T3", "T4")
    columns = dict(zip(names, np.array(rows).T))
    columns["times"] = np.array([s.t for s in snapshots])
    columns["dW_dt_numeric"] = np.gradient(columns["W_mK"], columns["times"])
    return columns


# ------------------------------------------------- derived checks, one by one
# The per-report reductions, per-time margin fields and scalar series loop
# that the derived checks replaced by one array pass per stack.


def report_minimum(defect):
    """``(min_defect, argmin_node)`` of one defect field, reduced alone."""
    return float(defect.min()), np.unravel_index(np.argmin(defect), defect.shape)


def margin_fields_per_time(flow, m, K, times):
    """The super-flow margin field at each of ``times``, one at a time."""
    base_eigs = ricci_bakry_emery(flow.base, m).values
    return [flow.log_factor_rate(t) + K + flow.operator_scale(t) * base_eigs for t in times]


def fit_super_flow_constant_loop(flow, m):
    """Smallest K >= 0 with nonnegative margins: the least of the per-time
    field minima at ``FIT_SAMPLES`` times."""
    t_samples = np.linspace(0.0, flow.horizon, FIT_SAMPLES)
    fields = margin_fields_per_time(flow, m, 0.0, [float(t) for t in t_samples])
    return max(0.0, -min(float(f.min()) for f in fields))


def exp_series_loop(x):
    """sum_{j>=1} x^j / (j * j!) for one float x, term by term."""
    if x < 0.0:
        raise ValueError("series argument must be nonnegative")
    s = 0.0
    term = 1.0  # x^j / j!
    j = 0
    while True:
        j += 1
        term *= x / j
        add = term / j
        s += add
        if j > x and add <= SERIES_RTOL * (1.0 + s):
            break
        if j > 10000:
            raise RuntimeError("entropy normalization series failed to converge")
    return s


def tilde_w_comparison_loop(m, K, t):
    """``wittenlab.entropy.tilde_w_comparison`` at one time as it was before
    it took a sequence of times: the series by :func:`exp_series_loop`, the
    exponentials by ``math``."""
    x = 4.0 * K * t
    E = exp_series_loop(x) if x > 0.0 else 0.0
    psi = 0.5 * m * E - 0.5 * m * K * t - m * K * K * t * t / 12.0
    d_dt_tpsi = 0.5 * m * (E + math.expm1(x)) - m * K * t - 0.25 * m * K * K * t * t
    d2_dt2_tpsi = (
        0.5 * m * (math.expm1(x) / t + 4.0 * K * math.exp(x))
        - m * K
        - 0.5 * m * K * K * t
    )
    residual = d2_dt2_tpsi + monotonicity_bound(t, m, K)
    return {"Psi": psi, "d_dt_tPsi": d_dt_tpsi, "identity_residual": residual}


def phi_mK_loop(t, m, K):
    """Phi_mK at one time, its series summed by :func:`exp_series_loop`."""
    base = 0.5 * m * (math.log(4.0 * math.pi * t) + 1.0)
    if K == 0.0:
        return base
    return base + 0.5 * m * exp_series_loop(4.0 * K * t)


# ------------------------------------------------------------ row formatter
# The per-value row formatter that wittenlab.reports replaced, kept as the
# reference for its text: every table must be exactly what it writes.


def reference_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_lines(rows):
    """One line of text per row, without its newline."""
    return [",".join(reference_fmt(v) for v in row) for row in rows]


def reference_table(kind, cols, rows):
    lines = [f"# wittenlab {kind} v1: " + ",".join(cols), ",".join(cols)]
    lines.extend(reference_lines(rows))
    return "\n".join(lines) + "\n"


def reference_node_rows(manifold, values):
    coords = manifold.coordinates()
    for flat, idx in enumerate(np.ndindex(*manifold.shape)):
        yield (flat, *(coords[a][idx] for a in range(manifold.dim_n)), values[idx])


def reference_names(manifold):
    return ["x", "y"][: manifold.dim_n]


def reference_node(index):
    return "/".join(str(i) for i in index)


def reference_series_rows(series, flow_margin=None):
    """One row (t, series columns..., [flow_margin]) per time of ``series``."""
    columns = [series.times, *(getattr(series, c) for c in SERIES_COLUMNS)]
    if flow_margin is not None:
        columns.append(flow_margin)
    return zip(*columns)


REFERENCE = {
    "field": lambda M, reps, name: reference_table(
        "field",
        ["t", "m", "node_index", *reference_names(M), name],
        ((r.t, r.m, *row) for r in reps for row in reference_node_rows(M, r.defect)),
    ),
    "curvature": lambda M, fields: reference_table(
        "curvature",
        ["m", "node_index", *reference_names(M), "ric_mn_value"],
        ((cf.m, *row) for cf in fields for row in reference_node_rows(M, cf.values)),
    ),
    "snapshots": lambda M, snaps: reference_table(
        "snapshots",
        ["t", "node_index", *reference_names(M), "u"],
        ((s.t, *row) for s in snaps for row in reference_node_rows(M, s.u)),
    ),
    "harnack": lambda reps: reference_table(
        "harnack",
        ["inequality", "t", "m", "K", "min_defect", "argmin_node", "tol", "ok"],
        (
            (r.inequality, r.t, r.m, r.K, r.min_defect, reference_node(r.argmin_node),
             r.tol, r.ok)
            for r in reps
        ),
    ),
    "integrated": lambda reps: reference_table(
        "integrated-harnack",
        ["x", "y", "tau", "T", "m", "K", "distance", "lhs", "rhs", "ok"],
        (
            (reference_node(r.x), reference_node(r.y), r.tau, r.T, r.m, r.K,
             r.distance, r.lhs, r.rhs, r.ok)
            for r in reps
        ),
    ),
    "flow_margin": lambda reps: reference_table(
        "flow-margin",
        ["t", "m", "K", "min_margin", "ok"],
        ((r.t, r.m, r.K, r.min_defect, r.ok) for r in reps),
    ),
    "manifest": lambda rows: reference_table(
        "evolution-manifest",
        ["t", "dt", "error_estimate"],
        ((r[c] for c in ("t", "dt", "error_estimate")) for r in rows),
    ),
}


def reference_entropy_series(series, flow_margins=None):
    cols = ["m", "t", *SERIES_COLUMNS]
    if flow_margins is not None:
        cols.append("flow_margin")
    margins = flow_margins if flow_margins is not None else [None] * len(series)
    rows = (
        (s.m, *row)
        for s, margin in zip(series, margins)
        for row in reference_series_rows(s, margin)
    )
    return reference_table("entropy-series", cols, rows)
