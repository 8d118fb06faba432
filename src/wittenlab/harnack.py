"""Pointwise differential Harnack inequalities as defect fields.

Every check takes heat-flow states, reads their manifold and cached
``dt_log_u`` and ``grad_log_u``, and reports the defect RHS - LHS per
node, so nonnegative defect certifies the inequality on the grid.
Tolerances are relative to the natural scale of each inequality (its
constant term), since defects grow like 1/t for small times.

The pointwise functions take one state or a stack of them (see
:class:`wittenlab.heatflow.HeatState`), and :func:`kernel_dt_log_bounds`
a stack or a list of snapshots.  One implementation serves both: it
evaluates one m over every row of the stack in one pass (one state is
the one-row case), taking the rows in blocks under the operators' element
budget (``operators._row_blocks``).  The per-row constants such as
(m/2t) e^{4Kt} are computed with ``math`` once per time and broadcast
over the grid, so every row's defect equals the defect of its state
alone, bit for bit.  A stack gives one report per row, in row order.

Pointwise defects, and the super-Ricci-flow margins of
:mod:`wittenlab.ricciflow`, are :class:`DefectReport` records: they store
the ``defect`` field and its inputs with its ``min_defect`` and
``argmin_node``, and derive the verdict ``ok`` (``min_defect >= -tol``).
The checks build their reports a block of rows at a time
(:func:`_block_reports`): the minima and first minimum nodes of a block
come from one ``min`` and one ``argmin`` over its flattened grid axes,
the values a reduction of each field alone gives.  A report built from
one field derives its own.

The integrated two-point bound is checked by
:func:`integrated_harnack_checks` over a list of node pairs in one pass:
the pair distances come from the two nodes' coordinates, not from a
distance field per pair.  :func:`integrated_harnack_check` is its
one-pair wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import (
    _as_index,
    _check_K,
    _is_real,
    _m_equals_n,
    _node_distances,
    geodesic_distance,
)
from .heatflow import _as_stack, _by_row, _column
from .operators import _row_blocks

__all__ = [
    "DefectReport",
    "IntegratedHarnackReport",
    "KernelDtLogReport",
    "hamilton_harnack_defect",
    "li_yau_defect",
    "integrated_harnack_check",
    "integrated_harnack_checks",
    "sup_bound_defect",
    "kernel_dt_log_bounds",
]

HARNACK_TOL_REL = 1e-6  # of each bound's constant term, or of its right-hand side
KERNEL_BOUND_TOL_REL = 1e-9


@dataclass(frozen=True)
class DefectReport:
    """Read-only per-node ``defect`` of a pointwise inequality, which holds
    where it is nonnegative.  ``min_defect`` is its minimum and
    ``argmin_node`` the first minimum's node; either, when not given with
    the defect, is derived from it."""

    inequality: str
    t: float
    m: float
    K: float
    defect: np.ndarray
    tol: float
    extra: dict = field(default_factory=dict)
    min_defect: float = None
    argmin_node: tuple = None

    def __post_init__(self):
        self.defect.setflags(write=False)
        if self.min_defect is None:
            object.__setattr__(self, "min_defect", float(self.defect.min()))
        if self.argmin_node is None:
            node = np.unravel_index(int(np.argmin(self.defect)), self.defect.shape)
            object.__setattr__(self, "argmin_node", node)

    @property
    def ok(self):
        return bool(self.min_defect >= -self.tol)


@dataclass(frozen=True)
class IntegratedHarnackReport:
    """Two-point bound u(x, tau) / u(y, T) = ``lhs`` <= ``rhs``, relative
    tolerance ``tol``; ``rhs`` and ``ok`` are derived."""

    x: tuple
    y: tuple
    tau: float
    T: float
    m: float
    K: float
    distance: float
    lhs: float

    tol = HARNACK_TOL_REL

    @cached_property
    def rhs(self):
        """(T/tau)^{m/2} exp( e^{2K tau} (1 + 2K(T-tau)) d^2 / (4(T-tau))
        + (m/2)(e^{2KT} - e^{2K tau}) ), or ``math.inf`` where it overflows."""
        tau, T, m, K, d = self.tau, self.T, self.m, self.K, self.distance
        try:
            exponent = (
                0.25 * math.exp(2.0 * K * tau) * (1.0 + 2.0 * K * (T - tau)) * d * d / (T - tau)
                + 0.5 * m * (math.exp(2.0 * K * T) - math.exp(2.0 * K * tau))
            )
            return (T / tau) ** (0.5 * m) * math.exp(exponent)
        except OverflowError:
            # K >= 0 and T > tau make every factor >= 1: the bound exceeds every float
            return math.inf

    @property
    def ok(self):
        return bool(self.lhs <= self.rhs * (1.0 + self.tol))


@dataclass(frozen=True)
class KernelDtLogReport:
    """Lower bound on d/dt log u over a kernel run.  ``ok`` is stored: its
    tolerance differs per snapshot, so ``min_margin`` alone does not decide it."""

    m: float
    K: float
    times: tuple
    min_margin: float
    ok: bool
    fitted_upper_constant: float


def _validate_mk(manifold, m, K, times=()):
    """Reject m by the m rule, K by the K rule and any of ``times`` <= 0."""
    _m_equals_n(manifold, m)
    _check_K(K)
    if any(t <= 0.0 for t in times):
        raise ValueError("state time must be positive")


def _block_reports(inequality, times, m, K, defect, tols, extras=None):
    """A :class:`DefectReport` per row of ``defect``, a ``(rows, *grid)``
    block of fields at ``times`` with tolerances ``tols`` (and ``extras``,
    one dict per row), whose minima and first minimum nodes are one
    ``min`` and one ``argmin`` over the block's flattened grid axes."""
    flat = defect.reshape(len(defect), -1)
    nodes = zip(*np.unravel_index(flat.argmin(axis=1), defect.shape[1:]))
    if extras is None:
        extras = [{} for _ in times]
    m, K = float(m), float(K)
    return [
        DefectReport(inequality, t, m, K, d, tol, extra, min_defect=low, argmin_node=node)
        for t, d, tol, extra, low, node in zip(
            times, defect, tols, extras, flat.min(axis=1).tolist(), nodes
        )
    ]


def _pointwise(state, inequality, m, K, block_defects):
    """Reports of a pointwise inequality over every row of ``state``:
    ``block_defects(rows, times)`` gives the ``(defect, tols, extras)`` of
    consecutive blocks of rows, reported by :func:`_block_reports` and
    chained; the one report for one state."""
    reports = []
    for rows in _row_blocks(len(state.times), math.prod(state.manifold.shape)):
        times = state.times[rows]
        reports.extend(_block_reports(inequality, times, m, K, *block_defects(rows, times)))
    return reports if state.stacked else reports[0]


def hamilton_harnack_defect(state, m, K):
    """Defect of the dimension-full gradient bound with curvature factor.

    defect = (m/2t) e^{4Kt} + e^{2Kt} (Lu/u) - |grad u / u|^2, which is
    nonnegative for positive solutions whenever the Bakry-Emery tensor is
    bounded below by -K.  One report, or a list of one per row of a stack.
    """
    _validate_mk(state.manifold, m, K, state.times)
    dt_log_u = _by_row(state, state.dt_log_u)
    sq_grad = _by_row(state, state.grad_log_u_sq)

    def block(rows, times):
        rhs_const = [(m / (2.0 * t)) * math.exp(4.0 * K * t) for t in times]
        growth = [math.exp(2.0 * K * t) for t in times]
        defect = (
            _column(rhs_const, state) + _column(growth, state) * dt_log_u[rows] - sq_grad[rows]
        )
        return defect, [HARNACK_TOL_REL * c for c in rhs_const], None

    return _pointwise(state, "hamilton", m, K, block)


def li_yau_defect(state, m):
    """Sharp-constant gradient bound; the K = 0 case of the Hamilton defect."""
    report = hamilton_harnack_defect(state, m, 0.0)
    if state.stacked:
        return [replace(r, inequality="li_yau") for r in report]
    return replace(report, inequality="li_yau")


def _snapshot_at(snapshots, t):
    for s in snapshots:
        if abs(s.t - t) <= 1e-10 * max(1.0, abs(t)):
            return s
    raise ValueError(f"no snapshot at t={t}")


def integrated_harnack_checks(snapshots, xs, ys, tau, T, m, K):
    """Integrated comparison of each node pair ``(xs[i], ys[i])``, in order.

    One :class:`IntegratedHarnackReport` per pair; the snapshots at ``tau``
    and ``T`` are found once, and the pair distances and ratios
    lhs = u(x, tau) / u(y, T) are taken together over the pairs.
    """
    if not (0.0 < tau < T):
        raise ValueError(f"need 0 < tau < T, got tau={tau}, T={T}")
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x nodes against {len(ys)} y nodes")
    s_tau = _snapshot_at(snapshots, tau)
    s_T = _snapshot_at(snapshots, T)
    manifold = s_tau.manifold
    _validate_mk(manifold, m, K)
    xs = [_as_index(manifold, x) for x in xs]
    ys = [_as_index(manifold, y) for y in ys]
    # one index array per axis; shape (dim_n, 0) when there are no pairs
    x_axes = tuple(np.array(xs, dtype=np.intp).reshape(-1, manifold.dim_n).T)
    y_axes = tuple(np.array(ys, dtype=np.intp).reshape(-1, manifold.dim_n).T)
    distances = _node_distances(manifold, x_axes, y_axes).tolist()
    ratios = (s_tau.u[x_axes] / s_T.u[y_axes]).tolist()
    tau, T, m, K = float(tau), float(T), float(m), float(K)
    return [
        IntegratedHarnackReport(x=x, y=y, tau=tau, T=T, m=m, K=K, distance=d, lhs=r)
        for x, y, d, r in zip(xs, ys, distances, ratios)
    ]


def integrated_harnack_check(snapshots, x, y, tau, T, m, K):
    """Two-point comparison obtained by integrating the gradient bound.

    lhs = u(x, tau) / u(y, T), against the ``rhs`` of
    :class:`IntegratedHarnackReport` at d = d(x, y).
    """
    (report,) = integrated_harnack_checks(snapshots, [x], [y], tau, T, m, K)
    return report


def sup_bound_defect(state, m, K, A):
    """Sup-normalized bound on (Lu/u + |grad u/u|^2) for bounded solutions.

    The main defect uses the prefactor K/(1 - e^{-Kt}); the report also
    carries the (K + 1/t) variant, which dominates it node-wise because
    1/(1 - e^{-x}) <= 1 + 1/x.  ``A``, a finite number, must dominate
    max(u) over the run (over every row of a stack).  One report, or a
    list of one per row of a stack.
    """
    _validate_mk(state.manifold, m, K, state.times)
    if not (_is_real(A) and math.isfinite(A)):
        raise ValueError(f"A must be a finite number, got {A!r}")
    umax = float(state.u.max())
    if A < umax:
        raise ValueError(f"A={A} is below max u = {umax}; log(A/u) must be nonnegative")
    u = _by_row(state, state.u)
    dt_log_u = _by_row(state, state.dt_log_u)
    sq_grad = _by_row(state, state.grad_log_u_sq)

    def block(rows, times):
        if K == 0.0:
            prefactor = [1.0 / t for t in times]  # limit of K/(1-e^{-Kt})
        else:
            prefactor = [K / (-math.expm1(-K * t)) for t in times]
        bracket = m + 4.0 * np.log(A / u[rows])
        lhs = dt_log_u[rows] + sq_grad[rows]
        defect = _column(prefactor, state) * bracket - lhs
        variant = _column([K + 1.0 / t for t in times], state) * bracket - lhs
        tols = [HARNACK_TOL_REL * (p * m) for p in prefactor]
        return defect, tols, [{"A": float(A), "defect_variant": v} for v in variant]

    return _pointwise(state, "sup_bound", m, K, block)


def kernel_dt_log_bounds(snapshots, m, K):
    """Lower bound -(m/2t) e^{2Kt} on d/dt log u for kernel runs.

    Also fits the smallest constant C with
    d/dt log u <= C (1 + 1/sqrt(t) + d(x, x0)/t)^2 over the run; the
    constant is a shape diagnostic whose stability under grid refinement
    is checked by the callers, not an asserted bound.  ``snapshots`` is a
    list of states or a stack, whose first row must come from a
    kernel-initialized run.
    """
    state = _as_stack(snapshots)
    manifold = state.manifold
    _validate_mk(manifold, m, K)
    src = state.kernels[0]
    if src is None:
        raise ValueError("snapshots must come from a kernel-initialized run")
    dist = geodesic_distance(manifold, src.x0)
    dt_log_u = _by_row(state, state.dt_log_u)
    grid_axes = tuple(range(1, manifold.dim_n + 1))
    min_margin = math.inf
    fitted = 0.0
    ok = True
    for rows in _row_blocks(len(state.times), math.prod(manifold.shape)):
        times = state.times[rows]
        lower = [-(m / (2.0 * t)) * math.exp(2.0 * K * t) for t in times]
        rate = dt_log_u[rows]
        margins = (rate - _column(lower, state)).min(axis=grid_axes).tolist()
        shape = (
            _column([1.0 + 1.0 / math.sqrt(t) for t in times], state)
            + dist / _column(times, state)
        ) ** 2
        for margin, low, fit in zip(margins, lower, (rate / shape).max(axis=grid_axes).tolist()):
            min_margin = min(min_margin, margin)
            if margin < -KERNEL_BOUND_TOL_REL * abs(low):
                ok = False
            fitted = max(fitted, fit)
    return KernelDtLogReport(
        m=float(m),
        K=float(K),
        times=tuple(state.times),
        min_margin=float(min_margin),
        ok=bool(ok),
        fitted_upper_constant=float(fitted),
    )
