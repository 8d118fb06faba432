"""Heat flow of the drift Laplacian with mass conservation and positivity.

Every path targets the symmetric propagator
``T(tau) = rho^-1/2 P exp(tau PSP) P rho^1/2`` on the start state,
where rho = exp(-phi), ``S = rho^1/2 L rho^-1/2`` is symmetric, P
zeroes the per-axis Nyquist planes and tau is the time since the
start.  Two model classes are propagated exactly, with no time
stepping.  On a constant potential T is diagonal in Fourier space
(symbol ``-|k|^2``), so :func:`evolve` applies ``exp(-|k|^2 tau)`` with
one FFT pair per snapshot.  On a 2-D torus with an additively separable
potential T is the Kronecker product of per-axis factors cached on the
manifold (``WeightedManifold.axis_eigensystems``), two small matrix
products per snapshot.

Start states (:func:`initial_delta`) follow the same split.  A constant
potential samples the closed-form kernel, a separable torus applies
``T(t0)`` to the weighted node delta, so that its runs are exact from
the start, and every other model warms a positive bump up to ``t0`` with
an implicit Euler ramp.

Weighted circles (see :func:`_exact_propagator`) and non-separable tori
are stepped by Crank-Nicolson (implicit midpoint) on the divergence form
operator, and each step ends with the projection ``rho^-1/2 P rho^1/2``,
so the steps converge to T.  The step size is controlled by step
doubling; a step cut short to land on a snapshot time records the cut
step as its manifest ``dt`` but does not lower the next proposal.

On circles a step is one diagonal map in the eigenbasis ``(mu, V)`` of
the dense symmetrized operator ``S`` cached on the manifold
(``WeightedManifold.symmetric_eigensystem``):
``rho^-1/2 P V diag((1 + gamma mu) / (1 - gamma mu)) V^T rho^1/2 u`` with
gamma = dt/2, exact to rounding.  It costs two dense matrix-vector
products and the projection, and applies no ``L`` and no FFT; the
implicit Euler ramp solves in the same basis.  The projection
(:func:`wittenlab.operators.dealias_nyquist`) is one rank-one update
``f - w_a (w_a . f)`` per axis with the manifold's cached unit Nyquist
vectors, one dot product per grid line and two pointwise products.

Non-separable tori solve ``(I - gamma L) u' = u + gamma L u`` by
conjugate gradients on ``S``, with a real-FFT Helmholtz preconditioner on
the manifold's cached half-spectrum ``|k|^2``, to a residual of 1e-13, so
conservation statements are meaningful; the residual is tested before it
is preconditioned, so no preconditioner pass follows convergence.
Operator applies dominate the cost of these steps, so none is repeated.
The step-doubling control applies ``L`` once to each start state: the
full step and the first half step take their right-hand sides from that
one apply, a retry after a rejected step reuses it, and each solve takes
its initial residual ``b - (I - gamma L) u`` from the apply that built
``b`` instead of applying ``L`` again.  An attempted step therefore
costs two right-hand-side applies (one on a retry) plus its three
solves, each, per PCG iteration, one apply and one preconditioner pass
(an ``rfftn``/``irfftn`` pair).

Positivity bookkeeping: solver and FFT rounding can leave values of
order 1e-16 * max(u) with either sign at nodes where the true solution is
far below double precision resolution.  Such values are raised to the
state's rounding floor ``eps * max(u)``, not to the smallest normal
double, at which the log-derivative fields ``grad u / u`` overflow, and a
state with raised nodes is rescaled to its mass; genuinely negative
values (scheme overshoot from an oversized step) raise
:class:`PositivityError` instead.
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
    _check_finite,
    _check_time,
    _constant_potential,
    _hessian,
    _is_real,
    _read_only,
)
from .operators import (
    _divergence_form,
    _gamma2,
    _grid_axes,
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
    "stack_states",
    "uniform_state",
    "initial_delta",
    "kernel_state",
    "step",
    "evolve",
]

CG_TOL = 1e-13
CG_MAXITER = 600

# largest adaptive step of :func:`evolve`
DT_MAX = 0.25

# most DT_MAX steps a time-stepped run may span, 100 times the largest bundled run
_STEP_BUDGET = 1e5

# :func:`evolve` returns its current state for a target within this of it;
# its snapshot times must lie further apart than this
_SAME_TIME = 1e-13

# Negative values larger than this fraction of max(u) are scheme errors or
# unresolved start states, not rounding debris.  Exact start kernels dip
# below zero where the grid barely resolves t0: on the 32x48 cosine_sine
# torus min/max is -1.3e-9 at t0 = 0.08 (clamped) and -2.9e-7 at 0.05
# (raised); genuine overshoot from an oversized step is orders of
# magnitude larger.
POSITIVITY_REL_TOL = 1e-8

# what a PositivityError of a time step suggests
_STEP_REMEDY = "reduce dt or refine the grid"

# what a PositivityError of the warm-up ramp suggests: its substeps follow
# from solver.t0 alone, and a finer grid does not keep a strongly varying
# potential's ramp positive (cosine a = 2, k = 3 fails at 256 to 1024 nodes)
_WARM_UP_REMEDY = (
    "the ramp's steps follow from solver.t0 alone; "
    "lower the potential's amplitude or change solver.t0"
)


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
    """Positive density sampled on the grid at one time, or a stack of them.

    One state has ``u`` of the grid's shape, a float ``t`` and a
    :class:`KernelInfo` or None as ``kernel``.  A stack (see
    :func:`stack_states`) follows the convention of
    :mod:`wittenlab.operators`: ``u`` of shape ``(k, *grid)`` holds one
    state per row, ``t`` is the tuple of the k row times and ``kernel``
    the tuple of the k rows' kernels; ``times`` and ``kernels`` give
    these tuples for either kind.  Every function of a state reads the
    manifold from ``manifold``, and the Harnack and entropy functions take
    either kind (a stack in one pass per m, see :mod:`wittenlab.harnack`).

    The weighted ``mass`` of ``u`` and the fields that the Harnack and
    entropy checks derive from ``u`` are computed on first use, over all
    rows at once, and cached on the instance, the arrays read-only, so
    every check and every dimension parameter m shares one evaluation.
    Each field has the stack axis where the operators put it, after its
    derivative axes (``grad_log_u`` of a stack is ``(n, k, *grid)``), and
    every row equals the field of that row's state alone:

    * ``dt_log_u`` = Lu/u, ``grad_log_u`` = grad u/u and ``log_u_hessian``
      = Hess u/u - grad log u (x) grad log u, from the closed form on the
      rows that hold analytic kernels, accurate in the far tail, and on the
      other rows from one spectral grad u that L and Hess u reuse (no
      field differentiates ``log u``, which rings wherever u is tiny);
    * ``grad_log_u_sq`` = |grad log u|^2, ``log_u`` and ``log_u_gamma2``;
    * ``entropy_pair``, the Boltzmann entropy and its dissipation rate
      (see :func:`wittenlab.entropy.entropy_H`), floats for one state and
      arrays over the rows for a stack.

    ``dataclasses.replace`` builds a new state whose cache starts empty,
    which matters for analytic kernel states: their derivatives depend
    on ``t``.
    """

    manifold: WeightedManifold
    t: float | tuple
    u: np.ndarray
    kernel: KernelInfo | tuple | None = None

    def __post_init__(self):
        self.u.setflags(write=False)
        if self.stacked and not (
            isinstance(self.t, tuple)
            and isinstance(self.kernel, tuple)
            and len(self.t) == len(self.kernel) == len(self.u)
        ):
            raise ValueError("a stack of states needs a tuple of times and of kernels, one per row")
        for t in self.times:
            _check_finite("t", t)

    @property
    def stacked(self):
        """Whether ``u`` holds a stack of states, one per row."""
        return self.u.ndim > self.manifold.dim_n

    @property
    def times(self):
        """The time of each row: ``t``, or ``(t,)`` for one state."""
        return self.t if self.stacked else (self.t,)

    @property
    def kernels(self):
        """The kernel of each row: ``kernel``, or ``(kernel,)`` for one state."""
        return self.kernel if self.stacked else (self.kernel,)

    @cached_property
    def mass(self):
        return integrate_mu(self.manifold, self.u)

    @cached_property
    def _numeric_rows(self):
        """``(rows, u, grad u)`` over the rows that are not closed-form kernel
        states: their index (a slice when that is every row), their values
        with a row axis, and the spectral grad u that the log-derivative
        fields share (None when there is no such row)."""
        closed = {i for i, _ in self._closed_form_rows}
        rows = slice(None)
        if closed:
            rows = [i for i in range(len(self.times)) if i not in closed]
        u = _by_row(self, self.u)[rows]
        return rows, u, (gradient(self.manifold, u) if len(u) else None)

    @cached_property
    def _closed_form_rows(self):
        """``(row, kernel)`` of each row that holds an analytic kernel state."""
        return [(i, k) for i, k in enumerate(self.kernels) if k is not None and k.analytic]

    def _log_derivative(self, lead, numeric, fn, assemble):
        """A field with ``lead`` derivative axes: ``numeric(u, grad u)`` on the
        numeric rows and ``assemble`` of the closed form's per-axis ``fn``
        profiles on each analytic row."""
        rows, u, grad = self._numeric_rows
        if not self._closed_form_rows:
            out = numeric(u, grad)
        else:
            out = np.empty((self.manifold.dim_n,) * lead + _by_row(self, self.u).shape)
            head = (slice(None),) * lead
            if len(u):
                out[head + (rows,)] = numeric(u, grad)
            for i, kernel in self._closed_form_rows:
                parts = _axis_profiles(self.manifold, kernel.x0, fn, self.times[i])
                out[head + (i,)] = assemble(parts)
        return _read_only(out.reshape(out.shape[:lead] + self.u.shape))

    @cached_property
    def dt_log_u(self):
        M = self.manifold
        return self._log_derivative(
            0, lambda u, grad: _divergence_form(M, u, grad) / u,
            kernels.wrapped_gaussian_log_dt, lambda parts: sum(parts, np.zeros(M.shape)),
        )

    @cached_property
    def grad_log_u(self):
        return self._log_derivative(
            1, lambda u, grad: grad / u,
            kernels.wrapped_gaussian_log_dx, lambda parts: np.stack(np.broadcast_arrays(*parts)),
        )

    @cached_property
    def grad_log_u_sq(self):
        """|grad log u|^2, shared by the Harnack defects and the entropy terms."""
        g = self.grad_log_u
        return _read_only(np.einsum("a...,a...->...", g, g))

    @cached_property
    def log_u(self):
        return _read_only(np.log(self.u))

    @cached_property
    def log_u_hessian(self):
        """Hess u / u - g (x) g with g = grad u / u; on analytic rows the
        diagonal (log k)_t - (log k)_x^2 per axis of the wrapped Gaussian k."""
        M = self.manifold

        def numeric(u, grad):
            g = grad / u
            return _hessian(M, u, grad) / u - g[:, None] * g[None, :]

        def log_dxx(theta, t, L):  # k_t = k_xx
            dx = kernels.wrapped_gaussian_log_dx(theta, t, L)
            return kernels.wrapped_gaussian_log_dt(theta, t, L) - dx * dx

        def diagonal(parts):
            out = np.zeros((M.dim_n,) * 2 + M.shape)
            out[range(M.dim_n), range(M.dim_n)] = np.broadcast_arrays(*parts)
            return out

        return self._log_derivative(2, numeric, log_dxx, diagonal)

    @cached_property
    def log_u_gamma2(self):
        return _read_only(_gamma2(self.manifold, self.grad_log_u, self.log_u_hessian))

    @cached_property
    def entropy_pair(self):
        H = -integrate_mu(self.manifold, self.u * self.log_u)
        dH = integrate_mu(self.manifold, self.grad_log_u_sq * self.u)
        return H, dH


def _by_row(state, a):
    """``a``, ``u`` or a field of ``state``, with a row axis in front of the
    grid axes: length 1 for one state.  A view; derivative axes stay first."""
    lead = a.ndim - state.u.ndim
    return a.reshape(a.shape[:lead] + (len(state.times),) + state.manifold.shape)


def _column(values, state):
    """Per-row floats, one per row of a block of ``state``'s rows, as an
    array of shape (rows, 1, ..., 1) that broadcasts over the block's
    fields: the row axis and the grid axes, after any derivative axes."""
    return np.array(values).reshape((-1,) + (1,) * state.manifold.dim_n)


def stack_states(states):
    """One stacked :class:`HeatState` whose row i is ``states[i]``.

    The states must be single states on one manifold (the same object).
    The stack copies their values and starts an empty cache: its fields
    are computed over all rows at once.
    """
    states = list(states)
    if not states:
        raise ValueError("no states given")
    manifold = states[0].manifold
    if any(s.manifold is not manifold or s.stacked for s in states):
        raise ValueError("stack_states takes single states on one manifold")
    return HeatState(
        manifold=manifold,
        t=tuple(s.t for s in states),
        u=np.stack([s.u for s in states]),
        kernel=tuple(s.kernel for s in states),
    )


def _as_stack(states):
    """``states`` as a stacked :class:`HeatState`: a stack as it is, one
    state as a one-row stack, a sequence of states by :func:`stack_states`."""
    if isinstance(states, HeatState):
        return states if states.stacked else stack_states([states])
    return stack_states(states)


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
    return HeatState(manifold=manifold, t=float(t), u=u.copy(), kernel=kernel)


def uniform_state(manifold, t=0.0):
    """The stationary density 1/mu(M)."""
    u = np.full(manifold.shape, 1.0 / manifold.mu_total)
    return make_state(manifold, u, t)


def _project_mass(manifold, u, mass, where, remedy=_STEP_REMEDY):
    """Raw values u moved to weighted mass ``mass`` and made positive.

    A constant shift restores the mass.  A value below
    ``-POSITIVITY_REL_TOL * max(u)``, beyond rounding, then raises
    :class:`PositivityError`, and rounding debris below ``eps * max(u)``
    is raised to it.  That adds mass (up to ``POSITIVITY_REL_TOL`` of
    max(u) per node), so a state the clamp changed is rescaled to
    ``mass``; a multiplication keeps the raised nodes positive, where a
    second shift would not.
    """
    u = u + (mass - integrate_mu(manifold, u)) / manifold.mu_total
    umax = float(u.max())
    if umax <= 0.0:
        raise PositivityError(f"{where}: state collapsed to non-positive values")
    umin = float(u.min())
    if umin < -POSITIVITY_REL_TOL * umax:
        node = _argmin_node(manifold, u)
        raise PositivityError(
            f"{where}: negative value {umin:.3e} at node {node} "
            f"(beyond rounding tolerance; {remedy})",
            node=node,
        )
    clamped = np.maximum(u, np.finfo(float).eps * umax)
    if (clamped != u).any():
        clamped *= mass / integrate_mu(manifold, clamped)
    return clamped


def _accept(manifold, u, t, mass, kernel, where, remedy=_STEP_REMEDY):
    """State at time t from raw solver values u.

    Projects u back to ``mass`` with positive values (see
    :func:`_project_mass`) and drops the closed-form marker of kernel
    states, which no longer holds after a numerical propagation.
    ``remedy`` ends the message of a :class:`PositivityError`.
    """
    u = _project_mass(manifold, u, mass, where=where, remedy=remedy)
    if kernel is not None and kernel.analytic:
        kernel = replace(kernel, analytic=False)
    return make_state(manifold, u, t, kernel=kernel)


def _helmholtz_solve(manifold, gamma, b, x0, Lx0=None):
    """Solve (I - gamma L) u = b, conjugated by exp(-phi/2) to a symmetric
    system.

    On a circle, where only the warm-up ramp solves (a Crank-Nicolson step
    there is one diagonal map, see :func:`_advance`), the solve is direct
    in the manifold's ``symmetric_eigensystem``, two dense matrix-vector
    products (see :func:`_eigenbasis_solve`), and ``x0`` and ``Lx0`` are
    not read.  On a torus it runs conjugate gradients from ``x0``,
    preconditioned with the constant-potential inverse (I + gamma |k|^2)^-1
    on the real-FFT half spectrum.  ``Lx0`` is L x0 when the caller has it;
    the initial residual is then built from it without an apply.  The
    residual target is ``CG_TOL`` relative to b, tested before each
    preconditioner pass (Saad, Alg. 9.1): an iteration is one apply and one
    pass, and a converged residual, or a start that already meets the
    target, is never preconditioned.

    Either path raises :class:`SolverConvergenceError` on a non-finite
    right-hand side or residual and on a system that is not positive
    definite (conjugate gradients see a search direction with p.Ap <= 0);
    conjugate gradients also after ``CG_MAXITER`` iterations.
    """
    if manifold.dim_n == 1:
        return _eigenbasis_solve(manifold, gamma, b)
    s_half = manifold.sqrt_density
    gs = gamma * s_half
    pre = 1.0 / (1.0 + gamma * manifold._rfftn_wavenumber_square)

    if Lx0 is None:
        Lx0 = witten_laplacian(manifold, x0)
    v = s_half * x0
    r = s_half * (b - x0 + gamma * Lx0)
    bnorm = np.linalg.norm(s_half * b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    p = None
    for it in range(CG_MAXITER):
        rnorm = np.linalg.norm(r)
        if rnorm <= CG_TOL * bnorm:
            return v / s_half
        z = np.fft.irfftn(pre * np.fft.rfftn(r), manifold.shape, _grid_axes(manifold))
        rz_new = float(r.ravel().dot(z.ravel()))
        if not (math.isfinite(rnorm) and math.isfinite(rz_new)):
            raise SolverConvergenceError(
                f"conjugate gradients broke down: non-finite residual (|r| = {rnorm}, "
                f"r.z = {rz_new}) at iteration {it}"
            )
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = p - gs * witten_laplacian(manifold, p / s_half)
        pAp = float(p.ravel().dot(Ap.ravel()))
        if not pAp > 0.0:
            raise SolverConvergenceError(
                f"conjugate gradients broke down: p.Ap = {pAp:.3g} <= 0 at iteration "
                f"{it}: I - gamma L with gamma = {gamma:g} is not positive definite"
            )
        alpha = rz / pAp
        v = v + alpha * p
        r = r - alpha * Ap
    raise SolverConvergenceError(
        f"conjugate gradients missed residual {CG_TOL:g} within {CG_MAXITER} iterations"
    )


def _eigenbasis_solve(manifold, gamma, b):
    """(I - gamma L) u = b on a circle, to rounding: the map
    ``1 / (1 - gamma mu)`` of :func:`_eigenbasis_map`, conjugated by
    rho^1/2."""
    s_half = manifold.sqrt_density
    return _eigenbasis_map(manifold, gamma, s_half * b, np.reciprocal) / s_half


def _crank_nicolson_factor(diagonal):
    """``(1 + gamma mu) / (1 - gamma mu)`` from ``diagonal = 1 - gamma mu``."""
    return (2.0 - diagonal) / diagonal


def _eigenbasis_map(manifold, gamma, v, fn):
    """``V diag(fn(1 - gamma mu)) V^T v`` for the circle's
    ``symmetric_eigensystem`` ``(mu, V)``: two matrix-vector products and no
    FFT.  ``v`` is in the symmetric coordinates ``rho^1/2 u``.

    Raises :class:`SolverConvergenceError` on a non-finite ``v`` and where
    ``I - gamma L`` is not positive definite (``min(1 - gamma mu) <= 0``),
    naming gamma.
    """
    if not np.isfinite(v).all():
        raise SolverConvergenceError("direct solve: non-finite right-hand side")
    mu, V = manifold.symmetric_eigensystem
    diagonal = 1.0 - gamma * mu
    if not diagonal.min() > 0.0:
        raise SolverConvergenceError(
            f"direct solve: smallest eigenvalue {diagonal.min():.3g} <= 0: "
            f"I - gamma L with gamma = {gamma:g} is not positive definite"
        )
    return V @ (fn(diagonal) * (V.T @ v))


def _advance(manifold, u, dt, Lu=None):
    """One Crank-Nicolson step of du/dt = L u on raw values, ending with the
    projection ``rho^-1/2 P rho^1/2``; P is :func:`dealias_nyquist`, one
    rank-one update per axis and no FFT.

    On a circle the step is one diagonal map in the manifold's
    ``symmetric_eigensystem``, ``(1 + gamma mu) / (1 - gamma mu)`` with
    gamma = dt/2 (see :func:`_eigenbasis_map`), and ``Lu`` is not read.  On
    a torus ``Lu`` is L u when the caller has it; it serves the right-hand
    side ``u + gamma L u`` and the solver's initial residual."""
    g = 0.5 * dt
    s = manifold.sqrt_density
    if manifold.dim_n == 1:
        # V spans the unprojected operator, so P is not a no-op here
        v = _eigenbasis_map(manifold, g, s * u, _crank_nicolson_factor)
        return dealias_nyquist(manifold, v) / s
    if Lu is None:
        Lu = witten_laplacian(manifold, u)
    out = _helmholtz_solve(manifold, g, u + g * Lu, u, Lu)
    return dealias_nyquist(manifold, out * s) / s


def step(state, dt):
    """Advance a state by one Crank-Nicolson step dt.

    The mass that the solver residual and the projection move is put back
    explicitly, so that long runs do not accumulate drift.
    """
    _check_time("dt", dt)
    u = _advance(state.manifold, state.u, dt)
    return _accept(
        state.manifold, u, state.t + dt, state.mass, state.kernel,
        where=f"step to t={state.t + dt:.6g}",
    )


def _snapshot_times(times, start):
    """``times`` as floats: finite real numbers, strictly ascending, each
    more than ``_SAME_TIME`` after the one before, and none before
    ``start`` (within 1e-12).  The rule of every :func:`evolve`, from its
    start state, and of ``solver.times``, from ``solver.t0``: a time
    within ``_SAME_TIME`` of the one before would be a second snapshot of
    the same state under another label."""
    times = list(times)
    if not all(_is_real(t) and math.isfinite(t) for t in times):
        raise ValueError(f"snapshot times must be finite numbers, got {times!r}")
    times = [float(t) for t in times]
    for a, b in zip(times, times[1:]):
        if b - a <= _SAME_TIME:
            raise ValueError(
                f"snapshot times must be strictly ascending, each more than "
                f"{_SAME_TIME:g} after the one before; got {a!r} then {b!r}"
            )
    if times and times[0] < start - 1e-12:
        raise ValueError(f"first snapshot {times[0]:g} is before the start time {start:g}")
    return times


def _within_horizon(t, horizon):
    """Whether snapshot time ``t`` lies at or before a flow's ``horizon``,
    within 1e-12."""
    return t <= horizon + 1e-12


def _check_local_error(local_error):
    """Reject a ``local_error`` outside (0, 1): the rule of every :func:`evolve`."""
    if not (_is_real(local_error) and 0.0 < local_error < 1.0):
        raise ValueError(f"local_error must be a finite number in (0, 1), got {local_error!r}")


def _adaptive_evolve(state, times, local_error, manifest):
    """Step-doubling loop of Crank-Nicolson steps up to each time.

    The proposal is cut to ``DT_MAX`` and to the time left to the next
    target, so that a step lands on each snapshot time; the manifest row
    of a landing holds the cut step as its ``dt``.  After an accepted
    step the proposal grows by ``0.9 (local_error / err)^(1/3)``, clipped
    to [0.2, 5]; after a cut step it is the larger of that and the
    proposal it was cut from, so a landing does not lower the next
    proposal.  A rejected step is retried at the cut step times that
    factor, at least 0.2.

    Every attempt from one start state shares its ``L u``, applied on
    the first attempt on a torus; a circle step applies no ``L`` (see
    :func:`_advance`).

    Raises :class:`SolverConvergenceError` before the first step when the
    span to the last time exceeds ``_STEP_BUDGET`` steps of ``DT_MAX``, and
    when the step size falls to 1e-12 with the error above ``local_error``.
    """
    times = _snapshot_times(times, state.t)
    if not times:
        return []
    if (times[-1] - state.t) / DT_MAX > _STEP_BUDGET:
        raise SolverConvergenceError(
            f"evolve from t={state.t:.6g}: time span {times[-1] - state.t:.6g} needs more "
            f"than the step budget of {_STEP_BUDGET:g} steps of at most {DT_MAX:g}"
        )

    manifold = state.manifold
    out = []
    current = state
    Lu = None  # L current.u, shared by every attempt from the current state
    mass0 = state.mass  # project every accepted step back to the run's mass
    dt = min(DT_MAX, 0.05 * max(times[0] - state.t, 1e-3) + 1e-4)
    for target in times:
        while current.t < target - _SAME_TIME:
            proposal = dt
            dt = min(dt, DT_MAX, target - current.t)
            if Lu is None and manifold.dim_n > 1:  # a circle step reads no Lu
                Lu = witten_laplacian(manifold, current.u)
            # one full step against two half steps
            coarse = _advance(manifold, current.u, dt, Lu)
            half = _advance(manifold, current.u, 0.5 * dt, Lu)
            fine = _advance(manifold, half, 0.5 * dt)
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
                grown = dt * min(5.0, max(0.2, grow))
                # a step cut short does not lower the proposal it was cut from
                dt = max(grown, proposal) if dt < proposal else grown
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


def evolve(state, times, local_error=1e-8, manifest=None):
    """Snapshots of the heat flow from ``state`` on its manifold at the
    requested times.

    A constant potential and a 2-D torus with an additively separable
    potential are propagated exactly (see :func:`_exact_propagator`) and
    ``local_error`` does not apply.  Every other model (a weighted
    circle, a torus with a non-separable potential) is time stepped by
    Crank-Nicolson with adaptive substeps of at most ``DT_MAX`` (see
    :func:`_adaptive_evolve`): the local error per step is estimated by
    step doubling and held below ``local_error`` relative to max(u).
    Both target the symmetric propagator ``T(tau)`` of the module
    docstring.

    Either way every snapshot keeps the start state's mass and is
    positive.  A time equal to the state time returns the state itself.
    Pass a list as ``manifest`` to collect (t, dt, error_estimate) rows,
    one per accepted step or exact propagation.  The heat flow along a
    conformal flow runs through here on the base clock (see
    :func:`wittenlab.ricciflow.evolve_heat_on_flow`).  A ``local_error``
    outside (0, 1) raises ``ValueError`` on every path, and so does a
    stacked ``state``: evolve takes one state.
    """
    if state.stacked:
        raise ValueError("evolve takes one state, not a stack")
    _check_local_error(local_error)
    propagate = _exact_propagator(state.manifold, state.u)
    if propagate is not None:
        return _exact_evolve(state, times, propagate, manifest)
    return _adaptive_evolve(state, times, local_error, manifest)


def _exact_propagator(manifold, u):
    """``tau -> T(tau) u`` where it has a closed form, else None.

    On a constant potential T is diagonal in Fourier space with symbol
    -|k|^2 and blind to the per-axis Nyquist planes: one FFT pair.  On a
    torus with an additively separable potential it is the Kronecker
    product of the manifold's per-axis factors
    (``WeightedManifold.axis_eigensystems``): two small matrix products.
    :func:`evolve` propagates its snapshots with it, and
    :func:`initial_delta` its start states from the weighted node delta.
    Weighted circles stay on Crank-Nicolson and on the warm-up ramp for
    now, although their factors exist: the benchmark's ``checks_dense``
    workload, a weighted circle, is the one whose counters certify the
    time stepping.
    """
    if _constant_potential(manifold):
        ksq = manifold._wavenumber_square
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


def _exact_evolve(state, times, propagate, manifest):
    """Snapshots by an exact propagator ``tau -> u(state.t + tau)``.

    Each snapshot comes straight from the start state; its manifest row
    has the time since the previous snapshot as ``dt`` and
    ``error_estimate`` 0.  No step size is involved, so a snapshot that
    loses positivity comes from a start state the grid does not resolve;
    the error names its time (see :func:`_unresolved_start_remedy`).
    """
    times = _snapshot_times(times, state.t)
    manifold = state.manifold
    remedy = _unresolved_start_remedy(manifold, state.t)
    out = []
    current = state
    for target in times:
        if current.t < target - _SAME_TIME:
            dt = target - current.t
            current = _accept(
                manifold, propagate(target - state.t), target, state.mass, state.kernel,
                where=f"exact propagation to t={target:.6g}", remedy=remedy,
            )
            if manifest is not None:
                manifest.append({"t": current.t, "dt": dt, "error_estimate": 0.0})
        out.append(current)
    return out


def _unresolved_start_remedy(manifold, t):
    """What a :class:`PositivityError` of an exact propagation suggests.

    No step size is involved there, so negative values come from a start
    state at time ``t`` that the grid does not resolve: a kernel whose
    width sqrt(t) is not large against the grid spacing.
    """
    h2 = max(manifold.spacings) ** 2
    return (
        f"the start state at t={t:.6g} (solver.t0) is "
        f"{'below' if t < h2 else 'at or above'} the squared grid spacing "
        f"{h2:.6g} and not resolved on the grid; raise solver.t0 or refine the grid"
    )


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
    x0 = _as_index(manifold, x0)
    profiles = _axis_profiles(manifold, x0, kernels.wrapped_gaussian, t)
    # each profile is clamped at TINY, and so is their product, which underflows
    u = np.maximum(math.prod(profiles, start=np.ones(manifold.shape)), kernels.TINY)
    # lift the Lebesgue-normalized product to unit weighted mass
    u = u / integrate_mu(manifold, u)
    return make_state(manifold, u, t, kernel=KernelInfo(x0=x0, analytic=True))


def _implicit_euler_substep(manifold, u, dt):
    """One implicit Euler step of the warm-up ramp, projected by P."""
    return dealias_nyquist(manifold, _helmholtz_solve(manifold, dt, u, u))


def initial_delta(manifold, x0, t0):
    """Fundamental solution from node x0 at a small positive time ``t0``.

    Constant-potential flat models sample the closed-form kernel.  On the
    models that :func:`evolve` propagates exactly (2-D tori with a
    separable potential) the start state is ``T(t0)`` applied to the
    weighted node delta ``e_x0 / w(x0)`` (w = ``measure_weights``, so the
    delta has unit mass): the discrete kernel itself.  Its values dip
    below zero where the grid does not resolve ``t0``; beyond
    ``POSITIVITY_REL_TOL`` that raises :class:`PositivityError`, which
    names ``solver.t0``.  Weighted circles and non-separable tori start
    from a positive band-limited bump and run a strongly damped implicit
    Euler ramp of geometrically growing substeps up to ``t0``, an
    approximate kernel.  Every start state has unit mass.
    """
    x0 = _as_index(manifold, x0)
    _check_time("t0", t0)

    if _constant_potential(manifold):
        return kernel_state(manifold, x0, t0)

    kernel = KernelInfo(x0=x0, analytic=False)
    delta = np.zeros(manifold.shape)
    delta[x0] = 1.0 / manifold.measure_weights[x0]
    propagate = _exact_propagator(manifold, delta)
    if propagate is not None:
        return _accept(
            manifold, propagate(t0), t0, 1.0, kernel, where=f"exact start at t0={t0:.6g}",
            remedy=_unresolved_start_remedy(manifold, t0),
        )

    n_sub = 24
    ratio = 2.0
    dts = t0 * (ratio - 1.0) / (ratio ** n_sub - 1.0) * ratio ** np.arange(n_sub)
    u = _fejer_bump(manifold, x0)
    for dt in dts:
        u = _implicit_euler_substep(manifold, u, dt)
        u = _project_mass(manifold, u, 1.0, where="delta warm-up", remedy=_WARM_UP_REMEDY)
    return make_state(manifold, u, t0, kernel=kernel)
