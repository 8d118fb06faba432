"""Heat flow of the drift Laplacian with mass conservation and positivity.

Two model classes are propagated exactly, with no time stepping: every
snapshot is ``P exp(tau PLP) P`` applied to the start state, where P
zeroes the per-axis Nyquist planes and tau is the time since the start.
That is the operator Crank-Nicolson converges to, since every implicit
step ends with the same projection.  On a constant potential the
operator is diagonal in Fourier space (symbol ``-|k|^2``), so
:func:`evolve` applies ``exp(-|k|^2 tau)`` with one FFT pair per
snapshot.  On a 2-D torus with an additively separable potential it is
the Kronecker product of per-axis factors cached on the manifold
(``WeightedManifold.axis_eigensystems``), two small matrix products per
snapshot.  The projection matters little: on the 64x64 ``torus_hamilton``
model the snapshots differ from the unprojected ``exp(tau L)`` by 9e-9
relative.

Weighted circles and non-separable tori are stepped by Crank-Nicolson
(implicit midpoint) on the divergence form operator, with an implicit
Euler option for strongly damped starts.  Circles have per-axis factors
too, but they stay on the stepping path for now: the benchmark's
weighted-circle workload is the one whose counters certify that the
implicit solver still runs.  The implicit solves run conjugate gradients
on the similarity-transformed symmetric operator with a real-FFT
Helmholtz preconditioner on the manifold's cached half-spectrum
``|k|^2``, to a residual of 1e-13, so conservation statements are
meaningful.

Operator applies dominate the cost of a step, so none is repeated.  The
step-doubling control applies ``L`` once to each start state: the full
step and the first half step take their right-hand sides
``u + (dt/2) L u`` from that one apply, a retry after a rejected step
reuses it, and each solve takes its initial residual
``b - (I - gamma L) u`` from the apply that built ``b`` instead of
applying ``L`` again.  An attempted step therefore costs two
right-hand-side applies (one on a retry) plus one per PCG iteration.

Positivity bookkeeping: solver and FFT rounding can leave values of
order 1e-16 * max(u) with either sign at nodes where the true solution is
far below double precision resolution.  Such values are clamped to the
smallest positive normal double; genuinely negative values (scheme
overshoot from an oversized step) raise :class:`PositivityError` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import kernels
from .geometry import (
    WeightedManifold,
    _as_index,
    _constant_potential,
    _hessian,
    _read_only,
    _wavenumber_square,
)
from .operators import (
    _gamma2,
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

# largest adaptive step of :func:`evolve`
DT_MAX = 0.25

# Negative values larger than this fraction of max(u) are scheme errors,
# not rounding debris.  Kernel starts near the resolution limit shed
# spectral-truncation transients around 1e-9 relative; genuine overshoot
# from an oversized step is orders of magnitude larger.
POSITIVITY_REL_TOL = 1e-8

# what a PositivityError of a time step suggests
_STEP_REMEDY = "reduce dt or refine the grid"


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
    """Positive density sampled on the grid at a fixed time.

    The fields that the Harnack and entropy checks derive from ``u`` are
    computed on first use, on ``manifold``, and cached on the instance as
    read-only arrays, so every check and every dimension parameter m of
    a snapshot shares one evaluation:

    * ``dt_log_u`` and ``grad_log_u`` (see the functions of those names);
    * ``log_u`` and its spectral ``log_u_gradient``, ``log_u_hessian``
      and ``log_u_gamma2``;
    * ``entropy_pair``, the Boltzmann entropy and its dissipation rate
      (see :func:`wittenlab.entropy.entropy_H`).

    ``dataclasses.replace`` builds a new state whose cache starts empty,
    which matters for analytic kernel states: their derivatives depend
    on ``t``.
    """

    manifold: WeightedManifold
    t: float
    u: np.ndarray
    mass: float
    kernel: KernelInfo | None = None

    def __post_init__(self):
        self.u.setflags(write=False)

    @property
    def _analytic(self):
        return self.kernel is not None and self.kernel.analytic

    @cached_property
    def dt_log_u(self):
        if self._analytic:
            return _read_only(_analytic_dt_log(self.manifold, self))
        return _read_only(witten_laplacian(self.manifold, self.u) / self.u)

    @cached_property
    def grad_log_u(self):
        if self._analytic:
            return _read_only(_analytic_grad_log(self.manifold, self))
        return _read_only(gradient(self.manifold, self.u) / self.u)

    @cached_property
    def log_u(self):
        return _read_only(np.log(self.u))

    @cached_property
    def log_u_gradient(self):
        return _read_only(gradient(self.manifold, self.log_u))

    @cached_property
    def log_u_hessian(self):
        return _read_only(_hessian(self.manifold, self.log_u, self.log_u_gradient))

    @cached_property
    def log_u_gamma2(self):
        return _read_only(_gamma2(self.manifold, self.log_u_gradient, self.log_u_hessian))

    @cached_property
    def entropy_pair(self):
        H = -integrate_mu(self.manifold, self.u * self.log_u)
        g = self.grad_log_u
        dH = integrate_mu(self.manifold, np.einsum("a...,a...->...", g, g) * self.u)
        return H, dH


def _state_on(manifold, state):
    """``state`` if it lives on ``manifold``, else a copy of it on ``manifold``.

    The public ``(manifold, state)`` functions take the derived fields of
    the result: the state's own cache, or for another manifold fields
    computed on that manifold by a throwaway copy, which leaves the
    state's cache untouched.
    """
    return state if manifold is state.manifold else replace(state, manifold=manifold)


def _argmin_node(manifold, u):
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(u)), manifold.shape))


def make_state(manifold, u, t, kernel=None):
    u = np.asarray(u, dtype=float)
    if u.shape != manifold.shape:
        raise ValueError(f"state shape {u.shape} does not match grid {manifold.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("state contains non-finite values")
    if u.min() <= 0.0:
        node = _argmin_node(manifold, u)
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


def _clamp_rounding_negatives(manifold, u, where="state", remedy=_STEP_REMEDY):
    umax = float(u.max())
    if umax <= 0.0:
        raise PositivityError(f"{where}: state collapsed to non-positive values")
    floor = -POSITIVITY_REL_TOL * umax
    umin = float(u.min())
    if umin < floor:
        node = _argmin_node(manifold, u)
        raise PositivityError(
            f"{where}: negative value {umin:.3e} at node {node} "
            f"(beyond rounding tolerance; {remedy})",
            node=node,
        )
    return np.maximum(u, kernels.TINY)


def _accept(manifold, u, t, mass, kernel, where, remedy=_STEP_REMEDY):
    """State at time t from raw solver values u.

    Projects u back to ``mass``, clamps rounding debris and drops the
    closed-form marker of kernel states, which no longer holds after a
    numerical propagation.  ``remedy`` ends the message of a
    :class:`PositivityError`.
    """
    u = u + (mass - integrate_mu(manifold, u)) / manifold.mu_total
    u = _clamp_rounding_negatives(manifold, u, where=where, remedy=remedy)
    if kernel is not None and kernel.analytic:
        kernel = replace(kernel, analytic=False)
    return make_state(manifold, u, t, kernel=kernel)


def _helmholtz_solve(manifold, gamma, b, x0, Lx0=None, tol=CG_TOL):
    """Solve (I - gamma L) u = b by preconditioned conjugate gradients.

    The system is conjugated by exp(-phi/2) to a symmetric one and
    preconditioned with the constant-potential inverse (I + gamma |k|^2)^-1
    applied on the real-FFT half spectrum.  ``Lx0`` is L x0 when the
    caller has it; the initial residual is then built from it without an
    apply.  Raises :class:`SolverConvergenceError` on a non-finite
    residual, on a search direction with p.Ap <= 0 (the system is not
    positive definite) and after ``CG_MAXITER`` iterations.
    """
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
    for it in range(CG_MAXITER):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return v / s_half
        if not (math.isfinite(rnorm) and math.isfinite(rz)):
            raise SolverConvergenceError(
                f"conjugate gradients broke down: non-finite residual (|r| = {rnorm}, "
                f"r.z = {rz}) at iteration {it}"
            )
        Ap = apply_sym(p)
        pAp = float(np.vdot(p, Ap).real)
        if not pAp > 0.0:
            raise SolverConvergenceError(
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
    raise SolverConvergenceError(
        f"conjugate gradients missed residual {tol:g} within {CG_MAXITER} iterations"
    )


def _advance(manifold, u, dt, scheme, Lu=None):
    """One implicit step of du/dt = L u on raw values.

    ``Lu`` is L u when the caller has it; it serves the Crank-Nicolson
    right-hand side and the solver's initial residual.
    """
    if scheme == "crank_nicolson":
        g = 0.5 * dt
        if Lu is None:
            Lu = witten_laplacian(manifold, u)
        rhs = u + g * Lu
    elif scheme == "implicit_euler":
        g = dt
        rhs = u
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    out = _helmholtz_solve(manifold, g, rhs, u, Lu)
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
    if not all(math.isfinite(t) for t in times):
        raise ValueError("snapshot times must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must be strictly ascending")
    if times and times[0] < state.t - 1e-12:
        raise ValueError(f"first snapshot {times[0]} is before state time {state.t}")
    return times


def _adaptive_evolve(manifold, state, times, scheme, local_error, manifest):
    """Step-doubling loop of implicit ``scheme`` steps up to each time.

    Raises :class:`SolverConvergenceError` when the step size falls to
    1e-12 with the error estimate still above ``local_error``.
    """
    times = _snapshot_times(state, times)
    if not times:
        return []

    out = []
    current = state
    Lu = None  # L current.u, shared by every attempt from the current state
    mass0 = state.mass  # project every accepted step back to the run's mass
    dt = min(DT_MAX, 0.05 * max(times[0] - state.t, 1e-3) + 1e-4)
    for target in times:
        while current.t < target - 1e-13:
            dt = min(dt, DT_MAX, target - current.t)
            if Lu is None:
                Lu = witten_laplacian(manifold, current.u)
            # one full step against two half steps
            coarse = _advance(manifold, current.u, dt, scheme, Lu)
            half = _advance(manifold, current.u, 0.5 * dt, scheme, Lu)
            fine = _advance(manifold, half, 0.5 * dt, scheme)
            scale = float(np.abs(fine).max())
            err = float(np.abs(coarse - fine).max()) / (3.0 * max(scale, 1e-300))
            if err <= local_error:
                current = _accept(
                    manifold, fine, current.t + dt, mass0, current.kernel,
                    where=f"evolve at t={current.t + dt:.6g}",
                )
                Lu = None
                if manifest is not None:
                    manifest.append({"t": current.t, "dt": dt, "error_estimate": err})
                grow = 0.9 * (local_error / max(err, 1e-16)) ** (1.0 / 3.0)
                dt = dt * min(5.0, max(0.2, grow))
            elif dt <= 1e-12:
                raise SolverConvergenceError(
                    f"evolve at t={current.t:.6g}: local error estimate {err:.3g} "
                    f"still above {local_error:g} at step size {dt:.3g}"
                )
            else:
                dt = dt * max(0.2, 0.9 * (local_error / err) ** (1.0 / 3.0))
        if abs(current.t - target) > 1e-10:
            raise RuntimeError(f"time stepping missed target {target}, at {current.t}")
        out.append(current)
    return out


def evolve(manifold, state, times, local_error=1e-8, scheme=None, manifest=None):
    """Snapshots of the heat flow at the requested times.

    With ``scheme=None``, a constant potential and a 2-D torus with an
    additively separable potential are propagated exactly (see
    :func:`_exact_propagator`) and ``local_error`` does not apply.  Any
    other model (a weighted circle, a torus with a non-separable
    potential), or an explicit ``"crank_nicolson"`` or
    ``"implicit_euler"``, is time stepped with adaptive substeps of at
    most ``DT_MAX``: the local error per step is estimated by step
    doubling and held below ``local_error`` relative to max(u).  The
    exact paths propagate ``P exp(tau PLP) P`` (P zeroes the per-axis
    Nyquist planes), the operator that Crank-Nicolson with its per-step
    Nyquist projection converges to; on the 64x64 ``torus_hamilton``
    model it is 9e-9 relative from the unprojected ``exp(tau L)``.
    Weighted circles stay on Crank-Nicolson for now (see the module
    docstring).

    Either way every snapshot keeps the start state's mass and is
    positive.  A time equal to the state time returns the state itself.
    Pass a list as ``manifest`` to collect (t, dt, error_estimate) rows,
    one per accepted step or exact propagation.  The heat flow along a
    conformal flow runs through here on the base clock (see
    :func:`wittenlab.ricciflow.evolve_heat_on_flow`).
    """
    if scheme is None:
        propagate = _exact_propagator(manifold, state.u)
        if propagate is not None:
            return _exact_evolve(manifold, state, times, propagate, manifest)
        scheme = "crank_nicolson"
    return _adaptive_evolve(manifold, state, times, scheme, local_error, manifest)


def _exact_propagator(manifold, u):
    """``tau -> P exp(tau PLP) P u`` where it has a closed form, else None.

    On a constant potential the operator is diagonal in Fourier space
    with symbol -|k|^2 and blind to the per-axis Nyquist planes: one FFT
    pair.  On a torus with an additively separable potential it is the
    Kronecker product of the manifold's per-axis factors
    (``WeightedManifold.axis_eigensystems``): two small matrix products.
    Weighted circles stay on Crank-Nicolson for now, although their
    factors exist: the benchmark's ``checks_dense`` workload, a weighted
    circle, is the one whose counters certify the implicit solver.
    """
    if _constant_potential(manifold):
        ksq = _wavenumber_square(manifold)
        uh = _zero_nyquist_planes(manifold, np.fft.fftn(u))
        return lambda tau: np.real(np.fft.ifftn(np.exp(-tau * ksq) * uh))
    if manifold.dim_n == 1 or manifold.axis_eigensystems is None:
        return None

    def propagate(tau):
        out = u
        for axis, (left, lam, right) in enumerate(manifold.axis_eigensystems):
            E = (left * np.exp(tau * lam)) @ right
            out = np.moveaxis(np.tensordot(E, out, axes=(1, axis)), 0, axis)
        return out

    return propagate


def _exact_evolve(manifold, state, times, propagate, manifest):
    """Snapshots by an exact propagator ``tau -> u(state.t + tau)``.

    Each snapshot comes straight from the start state; its manifest row
    has the time since the previous snapshot as ``dt`` and
    ``error_estimate`` 0.  No step size is involved, so a snapshot that
    loses positivity comes from a start state the grid does not resolve,
    typically a kernel sampled at a time below the squared grid spacing;
    the error names that time.
    """
    times = _snapshot_times(state, times)
    h2 = max(manifold.spacings) ** 2
    remedy = (
        f"the start state at t={state.t:.6g} (solver.t0) is below the squared "
        f"grid spacing {h2:.6g} and not resolved on the grid; raise solver.t0 "
        f"or refine the grid"
        if state.t < h2
        else "the start state is not resolved on the grid; refine the grid"
    )
    out = []
    current = state
    for target in times:
        if current.t < target - 1e-13:
            dt = target - current.t
            current = _accept(
                manifold, propagate(target - state.t), target, state.mass, state.kernel,
                where=f"exact propagation to t={target:.6g}", remedy=remedy,
            )
            if manifest is not None:
                manifest.append({"t": current.t, "dt": dt, "error_estimate": 0.0})
        out.append(current)
    return out


def _axis_profiles(manifold, x0, fn, *args):
    """Per axis, ``fn(theta, *args, L)`` of the displacements theta of that
    axis's nodes from node x0 (period L), shaped to broadcast over the grid."""
    out = []
    for axis in range(manifold.dim_n):
        x = manifold.axis_coordinates(axis)
        shape = [1] * manifold.dim_n
        shape[axis] = manifold.grid_sizes[axis]
        L = manifold.circumferences[axis]
        out.append(fn(x - x[x0[axis]], *args, L).reshape(shape))
    return out


def _fejer(theta, L):
    """Fejer kernel of degree N/2 - 2 on the N nodes of one axis."""
    deg = theta.size // 2 - 2
    theta = 2.0 * np.pi * theta / L
    s = np.sin(0.5 * theta)
    num = np.sin(0.5 * (deg + 1) * theta) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        fej = np.where(np.abs(s) < 1e-13, float(deg + 1) ** 2, num / (s * s))
    return fej / (deg + 1)


def _fejer_bump(manifold, x0):
    """Positive band-limited approximate identity centered at node x0.

    Product of Fejer kernels of degree N/2 - 2 per axis; strictly
    positive on the grid and free of unresolved Fourier content.
    """
    u = math.prod(_axis_profiles(manifold, x0, _fejer), start=np.ones(manifold.shape))
    return u / integrate_mu(manifold, u)


def kernel_state(manifold, x0, t):
    """Exact closed-form kernel state; constant-potential flat models only."""
    if not _constant_potential(manifold):
        raise ValueError("closed-form kernels need a constant potential")
    if t <= 0.0:
        raise ValueError("kernel time must be positive")
    x0 = _as_index(manifold, x0)
    profiles = _axis_profiles(manifold, x0, kernels.wrapped_gaussian, t)
    u = math.prod(profiles, start=np.ones(manifold.shape))
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
    x0 = _as_index(manifold, x0)
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
    for dt in dts:
        u = _advance(manifold, u, dt, "implicit_euler")
        u = u + (1.0 - integrate_mu(manifold, u)) / manifold.mu_total
        u = _clamp_rounding_negatives(manifold, u, where="delta warm-up")
    return make_state(manifold, u, t0, kernel=KernelInfo(x0=x0, analytic=False))


def dt_log_u(manifold, state):
    """Time derivative of log u, computed through the equation as Lu/u.

    Analytic kernel states use the closed form, which stays accurate in
    the far tail where the sampled values sit at the representability
    floor.  The result is read-only and cached on the state (see
    :class:`HeatState`); a manifold other than ``state.manifold`` gets
    it computed on that manifold, uncached.
    """
    return _state_on(manifold, state).dt_log_u


def grad_log_u(manifold, state):
    """Gradient of log u, shape (n, *grid); closed form for analytic kernels.

    Read-only and cached on the state, like :func:`dt_log_u`.
    """
    return _state_on(manifold, state).grad_log_u


def _analytic_dt_log(manifold, state):
    x0 = state.kernel.x0
    parts = _axis_profiles(manifold, x0, kernels.wrapped_gaussian_log_dt, state.t)
    return sum(parts, np.zeros(manifold.shape))


def _analytic_grad_log(manifold, state):
    x0 = state.kernel.x0
    parts = _axis_profiles(manifold, x0, kernels.wrapped_gaussian_log_dx, state.t)
    return np.stack(np.broadcast_arrays(*parts))
