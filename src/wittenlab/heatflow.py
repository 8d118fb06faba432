"""Heat flow of the drift Laplacian with mass conservation and positivity.

On a constant potential the divergence form operator is diagonal in
Fourier space (symbol ``-|k|^2``, per-axis Nyquist planes removed), so
:func:`evolve` applies its exact propagator ``exp(-|k|^2 t)`` with one FFT
pair per snapshot and no time stepping.  Other potentials are stepped by
Crank-Nicolson (implicit midpoint) on the divergence form operator, with
an implicit Euler option for strongly damped starts.  The implicit solves
run conjugate gradients on the similarity-transformed symmetric operator
with an FFT Helmholtz preconditioner, to a residual of 1e-13, so
conservation statements are meaningful.

Positivity bookkeeping: solver and FFT rounding can leave values of
order 1e-16 * max(u) with either sign at nodes where the true solution is
far below double precision resolution.  Such values are clamped to the
smallest positive normal double; genuinely negative values (scheme
overshoot from an oversized step) raise :class:`PositivityError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .geometry import WeightedManifold, _constant_potential
from .operators import (
    _zero_nyquist_planes,
    dealias_nyquist,
    gradient,
    integrate_mu,
    witten_laplacian,
)

__all__ = [
    "HeatState",
    "KernelInfo",
    "PositivityError",
    "SolverConvergenceError",
    "make_state",
    "uniform_state",
    "initial_delta",
    "kernel_state",
    "step",
    "evolve",
    "dt_log_u",
    "grad_log_u",
]

CG_TOL = 1e-13
CG_MAXITER = 600

# Negative values larger than this fraction of max(u) are scheme errors,
# not rounding debris.  Kernel starts near the resolution limit shed
# spectral-truncation transients around 1e-9 relative; genuine overshoot
# from an oversized step is orders of magnitude larger.
POSITIVITY_REL_TOL = 1e-8


class PositivityError(RuntimeError):
    """A state lost positivity beyond rounding level."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SolverConvergenceError(RuntimeError):
    """The implicit linear solve or the step-size control missed its target."""


@dataclass(frozen=True)
class KernelInfo:
    """Provenance of a kernel-initialized state.

    ``analytic`` marks states that are exact sampled closed-form kernels
    (constant potential, flat model); for those, log-derivatives are
    evaluated from the closed form, which stays accurate at nodes where
    the kernel value underflows the grid representation.
    """

    x0: tuple
    analytic: bool = False


@dataclass(frozen=True)
class HeatState:
    """Positive density sampled on the grid at a fixed time."""

    manifold: WeightedManifold
    t: float
    u: np.ndarray
    mass: float
    kernel: KernelInfo | None = None

    def __post_init__(self):
        self.u.setflags(write=False)


def make_state(manifold, u, t, kernel=None):
    u = np.asarray(u, dtype=float)
    if u.shape != manifold.shape:
        raise ValueError(f"state shape {u.shape} does not match grid {manifold.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("state contains non-finite values")
    if u.min() <= 0.0:
        node = np.unravel_index(int(np.argmin(u)), manifold.shape)
        raise PositivityError(f"state not positive at node {node}", node=node)
    return HeatState(
        manifold=manifold,
        t=float(t),
        u=u.copy(),
        mass=integrate_mu(manifold, u),
        kernel=kernel,
    )


def uniform_state(manifold, t=0.0):
    """The stationary density 1/mu(M)."""
    u = np.full(manifold.shape, 1.0 / manifold.mu_total)
    return make_state(manifold, u, t)


def _clamp_rounding_negatives(manifold, u, where="state"):
    umax = float(u.max())
    if umax <= 0.0:
        raise PositivityError(f"{where}: state collapsed to non-positive values")
    floor = -POSITIVITY_REL_TOL * umax
    umin = float(u.min())
    if umin < floor:
        node = np.unravel_index(int(np.argmin(u)), manifold.shape)
        raise PositivityError(
            f"{where}: negative value {umin:.3e} at node {node} "
            f"(beyond rounding tolerance; reduce dt or refine the grid)",
            node=node,
        )
    return np.maximum(u, kernels.TINY)


def _accept(manifold, u, t, mass, kernel, where):
    """State at time t from raw solver values u.

    Projects u back to ``mass``, clamps rounding debris and drops the
    closed-form marker of kernel states, which no longer holds after a
    numerical propagation.
    """
    u = u + (mass - integrate_mu(manifold, u)) / manifold.mu_total
    u = _clamp_rounding_negatives(manifold, u, where=where)
    if kernel is not None and kernel.analytic:
        kernel = replace(kernel, analytic=False)
    return make_state(manifold, u, t, kernel=kernel)


def _wavenumber_square(manifold):
    """|k|^2 on the full Fourier grid."""
    sym = np.zeros(manifold.shape)
    for a in range(manifold.dim_n):
        k = manifold.wavenumbers(a)
        shape = [1] * manifold.dim_n
        shape[a] = manifold.grid_sizes[a]
        sym = sym + (k ** 2).reshape(shape)
    return sym


def _helmholtz_solve(manifold, gamma, b, x0, tol=CG_TOL):
    """Solve (I - gamma L) u = b by preconditioned conjugate gradients.

    The system is conjugated by exp(-phi/2) to a symmetric one and
    preconditioned with the constant-potential inverse (I + gamma |k|^2)^-1
    applied in Fourier space.
    """
    s_half = np.exp(-0.5 * manifold.potential)
    pre = 1.0 / (1.0 + gamma * _wavenumber_square(manifold))

    def apply_sym(v):
        return v - gamma * s_half * witten_laplacian(manifold, v / s_half)

    def precondition(v):
        return np.real(np.fft.ifftn(pre * np.fft.fftn(v)))

    bs = s_half * b
    v = s_half * x0
    r = bs - apply_sym(v)
    bnorm = float(np.linalg.norm(bs))
    if bnorm == 0.0:
        return np.zeros_like(b)
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for _ in range(CG_MAXITER):
        if np.linalg.norm(r) <= tol * bnorm:
            return v / s_half
        Ap = apply_sym(p)
        alpha = rz / float(np.vdot(p, Ap).real)
        v = v + alpha * p
        r = r - alpha * Ap
        z = precondition(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverConvergenceError(
        f"conjugate gradients missed residual {tol:g} within {CG_MAXITER} iterations"
    )


def _advance(manifold, u, dt, scheme, gamma_scale=1.0):
    """One implicit step of du/dt = gamma_scale * L u on raw values."""
    if scheme == "crank_nicolson":
        g = 0.5 * dt * gamma_scale
        rhs = u + g * witten_laplacian(manifold, u)
    elif scheme == "implicit_euler":
        g = dt * gamma_scale
        rhs = u
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    out = _helmholtz_solve(manifold, g, rhs, u)
    return dealias_nyquist(manifold, out)


def step(manifold, state, dt, scheme="crank_nicolson"):
    """Advance a state by dt with exact mass bookkeeping.

    The scheme conserves mass in exact arithmetic; the leftover solver
    residual in the constant mode is projected out explicitly so that
    long runs do not accumulate drift.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u = _advance(manifold, state.u, dt, scheme)
    return _accept(
        manifold, u, state.t + dt, state.mass, state.kernel,
        where=f"step to t={state.t + dt:.6g}",
    )


def _snapshot_times(state, times):
    """Snapshot times as floats, strictly ascending and not before the state."""
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must be strictly ascending")
    if times and times[0] < state.t - 1e-12:
        raise ValueError(f"first snapshot {times[0]} is before state time {state.t}")
    return times


def _adaptive_evolve(
    manifold,
    state,
    times,
    advance_fn,
    local_error,
    dt_init,
    dt_max,
    manifest,
    label,
):
    """Shared step-doubling loop; ``advance_fn(u, t, dt)`` takes one step.

    Raises :class:`SolverConvergenceError` when the step size falls to
    1e-12 with the error estimate still above ``local_error``.
    """
    times = _snapshot_times(state, times)
    if not times:
        return []

    out = []
    current = state
    mass0 = state.mass  # project every accepted step back to the run's mass
    dt = dt_init if dt_init is not None else min(
        dt_max, 0.05 * max(times[0] - state.t, 1e-3) + 1e-4
    )
    for target in times:
        while current.t < target - 1e-13:
            dt = min(dt, dt_max, target - current.t)
            # one full step against two half steps
            coarse = advance_fn(current.u, current.t, dt)
            half = advance_fn(current.u, current.t, 0.5 * dt)
            fine = advance_fn(half, current.t + 0.5 * dt, 0.5 * dt)
            scale = float(np.abs(fine).max())
            err = float(np.abs(coarse - fine).max()) / (3.0 * max(scale, 1e-300))
            if err <= local_error:
                current = _accept(
                    manifold, fine, current.t + dt, mass0, current.kernel,
                    where=f"{label} at t={current.t + dt:.6g}",
                )
                if manifest is not None:
                    manifest.append({"t": current.t, "dt": dt, "error_estimate": err})
                grow = 0.9 * (local_error / max(err, 1e-16)) ** (1.0 / 3.0)
                dt = dt * min(5.0, max(0.2, grow))
            elif dt <= 1e-12:
                raise SolverConvergenceError(
                    f"{label} at t={current.t:.6g}: local error estimate {err:.3g} "
                    f"still above {local_error:g} at step size {dt:.3g}"
                )
            else:
                dt = dt * max(0.2, 0.9 * (local_error / err) ** (1.0 / 3.0))
        if abs(current.t - target) > 1e-10:
            raise RuntimeError(f"time stepping missed target {target}, at {current.t}")
        out.append(current)
    return out


def evolve(
    manifold,
    state,
    times,
    local_error=1e-8,
    dt_init=None,
    dt_max=0.25,
    scheme=None,
    manifest=None,
):
    """Snapshots of the heat flow at the requested times.

    With ``scheme=None`` a constant-potential model is propagated exactly
    (see :func:`_exact_evolve`); ``local_error``, ``dt_init`` and ``dt_max``
    do not apply there.  Any other model, or an explicit
    ``"crank_nicolson"`` or ``"implicit_euler"``, is time stepped with
    adaptive substeps: the local error per step is estimated by step
    doubling and held below ``local_error`` relative to max(u).

    Either way every snapshot keeps the start state's mass and is
    positive.  A time equal to the state time returns the state itself.
    Pass a list as ``manifest`` to collect (t, dt, error_estimate) rows,
    one per accepted step or exact propagation.
    """
    if scheme is None:
        if _constant_potential(manifold):
            return _exact_evolve(manifold, state, times, manifest)
        scheme = "crank_nicolson"

    def advance_fn(u, t, h):
        return _advance(manifold, u, h, scheme)

    return _adaptive_evolve(
        manifold, state, times, advance_fn, local_error, dt_init, dt_max, manifest,
        label="evolve",
    )


def _exact_evolve(manifold, state, times, manifest):
    """Constant-potential snapshots by the exact Fourier propagator.

    The operator is then diagonal in Fourier space with symbol -|k|^2 and
    blind to the per-axis Nyquist planes, which are zeroed as every
    implicit step zeroes them.  Each snapshot comes straight from the
    start state; its manifest row has the time since the previous
    snapshot as ``dt`` and ``error_estimate`` 0.
    """
    times = _snapshot_times(state, times)
    ksq = _wavenumber_square(manifold)
    uh = _zero_nyquist_planes(manifold, np.fft.fftn(state.u))
    out = []
    current = state
    for target in times:
        if current.t < target - 1e-13:
            dt = target - current.t
            u = np.real(np.fft.ifftn(np.exp(-(target - state.t) * ksq) * uh))
            current = _accept(
                manifold, u, target, state.mass, state.kernel,
                where=f"exact propagation to t={target:.6g}",
            )
            if manifest is not None:
                manifest.append({"t": current.t, "dt": dt, "error_estimate": 0.0})
        out.append(current)
    return out


def _fejer_bump(manifold, x0):
    """Positive band-limited approximate identity centered at node x0.

    Product of Fejer kernels of degree N/2 - 2 per axis; strictly
    positive on the grid and free of unresolved Fourier content.
    """
    u = np.ones(manifold.shape)
    for axis in range(manifold.dim_n):
        n = manifold.grid_sizes[axis]
        L = manifold.circumferences[axis]
        deg = n // 2 - 2
        theta = 2.0 * np.pi * (manifold.axis_coordinates(axis) - manifold.axis_coordinates(axis)[x0[axis]]) / L
        s = np.sin(0.5 * theta)
        num = np.sin(0.5 * (deg + 1) * theta) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            fej = np.where(np.abs(s) < 1e-13, float(deg + 1) ** 2, num / (s * s))
        fej = fej / (deg + 1)
        shape = [1] * manifold.dim_n
        shape[axis] = n
        u = u * fej.reshape(shape)
    return u / integrate_mu(manifold, u)


def kernel_state(manifold, x0, t):
    """Exact closed-form kernel state; constant-potential flat models only."""
    if not _constant_potential(manifold):
        raise ValueError("closed-form kernels need a constant potential")
    if t <= 0.0:
        raise ValueError("kernel time must be positive")
    x0 = tuple(int(i) for i in (x0 if not isinstance(x0, (int, np.integer)) else (x0,)))
    u = np.ones(manifold.shape)
    for axis in range(manifold.dim_n):
        L = manifold.circumferences[axis]
        x = manifold.axis_coordinates(axis)
        theta = x - x[x0[axis]]
        k1 = kernels.wrapped_gaussian(theta, t, L)
        shape = [1] * manifold.dim_n
        shape[axis] = manifold.grid_sizes[axis]
        u = u * k1.reshape(shape)
    # lift the Lebesgue-normalized product to unit weighted mass
    u = u / integrate_mu(manifold, u)
    return make_state(manifold, u, t, kernel=KernelInfo(x0=x0, analytic=True))


def initial_delta(manifold, x0, t0=None):
    """Approximate fundamental solution at a small positive time.

    Constant-potential flat models sample the closed-form kernel; other
    potentials start from a positive band-limited bump and run a strongly
    damped implicit Euler ramp of geometrically growing substeps up to
    ``t0``.  Either way the result has unit mass.
    """
    if isinstance(x0, (int, np.integer)):
        x0 = (int(x0),)
    x0 = tuple(int(i) for i in x0)
    if len(x0) != manifold.dim_n:
        raise ValueError(f"node index {x0} does not match dimension {manifold.dim_n}")
    if t0 is None:
        t0 = max(manifold.spacings) ** 2
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")

    if _constant_potential(manifold):
        return kernel_state(manifold, x0, t0)

    n_sub = 24
    ratio = 2.0
    dts = t0 * (ratio - 1.0) / (ratio ** n_sub - 1.0) * ratio ** np.arange(n_sub)
    u = _fejer_bump(manifold, x0)
    t = 0.0
    for dt in dts:
        u = _advance(manifold, u, dt, "implicit_euler")
        u = u + (1.0 - integrate_mu(manifold, u)) / manifold.mu_total
        u = _clamp_rounding_negatives(manifold, u, where="delta warm-up")
        t += dt
    if u.min() <= 0.0:
        raise PositivityError("delta warm-up failed to stay positive; grid too coarse")
    return make_state(manifold, u, t0, kernel=KernelInfo(x0=x0, analytic=False))


def dt_log_u(manifold, state):
    """Time derivative of log u, computed through the equation as Lu/u.

    Analytic kernel states use the closed form, which stays accurate in
    the far tail where the sampled values sit at the representability
    floor.
    """
    if state.kernel is not None and state.kernel.analytic:
        return _analytic_dt_log(manifold, state)
    return witten_laplacian(manifold, state.u) / state.u


def grad_log_u(manifold, state):
    """Gradient of log u, shape (n, *grid); closed form for analytic kernels."""
    if state.kernel is not None and state.kernel.analytic:
        return _analytic_grad_log(manifold, state)
    return gradient(manifold, state.u) / state.u


def _axis_displacement(manifold, axis, x0):
    x = manifold.axis_coordinates(axis)
    return x - x[x0[axis]]


def _analytic_dt_log(manifold, state):
    x0 = state.kernel.x0
    out = np.zeros(manifold.shape)
    for axis in range(manifold.dim_n):
        L = manifold.circumferences[axis]
        theta = _axis_displacement(manifold, axis, x0)
        part = kernels.wrapped_gaussian_log_dt(theta, state.t, L)
        shape = [1] * manifold.dim_n
        shape[axis] = manifold.grid_sizes[axis]
        out = out + part.reshape(shape)
    return out


def _analytic_grad_log(manifold, state):
    x0 = state.kernel.x0
    out = np.zeros((manifold.dim_n,) + manifold.shape)
    for axis in range(manifold.dim_n):
        L = manifold.circumferences[axis]
        theta = _axis_displacement(manifold, axis, x0)
        part = kernels.wrapped_gaussian_log_dx(theta, state.t, L)
        shape = [1] * manifold.dim_n
        shape[axis] = manifold.grid_sizes[axis]
        out[axis] = part.reshape(shape)
    return out
