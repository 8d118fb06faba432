"""Pointwise differential Harnack inequalities as defect fields.

Every check takes heat-flow states, reads their manifold and cached
``dt_log_u`` and ``grad_log_u``, and reports the defect RHS - LHS per
node, so nonnegative defect certifies the inequality on the grid.
Tolerances are relative to the natural scale of each inequality (its
constant term), since defects grow like 1/t for small times.

Pointwise defects, and the super-Ricci-flow margins of
:mod:`wittenlab.ricciflow`, are :class:`DefectReport` records: they store
the ``defect`` field and its inputs, and derive ``min_defect``,
``argmin_node`` and the verdict ``ok`` (``min_defect >= -tol``).

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

from .geometry import _as_index, _check_K, _m_equals_n, _node_distances, geodesic_distance

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
    where it is nonnegative; ``argmin_node`` is the first minimum's node."""

    inequality: str
    t: float
    m: float
    K: float
    defect: np.ndarray
    tol: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.defect.setflags(write=False)

    @cached_property
    def min_defect(self):
        return float(self.defect.min())

    @cached_property
    def argmin_node(self):
        return np.unravel_index(int(np.argmin(self.defect)), self.defect.shape)

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


def _validate_mk(manifold, m, K, t=None):
    """Reject m by the m rule, negative K and, when given, a time t <= 0."""
    _m_equals_n(manifold, m)
    _check_K(K)
    if t is not None and t <= 0.0:
        raise ValueError("state time must be positive")


def _sq_grad_log(state):
    g = state.grad_log_u
    return np.einsum("a...,a...->...", g, g)


def hamilton_harnack_defect(state, m, K):
    """Defect of the dimension-full gradient bound with curvature factor.

    defect = (m/2t) e^{4Kt} + e^{2Kt} (Lu/u) - |grad u / u|^2, which is
    nonnegative for positive solutions whenever the Bakry-Emery tensor is
    bounded below by -K.
    """
    t = state.t
    _validate_mk(state.manifold, m, K, t)
    rhs_const = (m / (2.0 * t)) * math.exp(4.0 * K * t)
    defect = rhs_const + math.exp(2.0 * K * t) * state.dt_log_u - _sq_grad_log(state)
    return DefectReport("hamilton", t, float(m), float(K), defect, HARNACK_TOL_REL * rhs_const)


def li_yau_defect(state, m):
    """Sharp-constant gradient bound; the K = 0 case of the Hamilton defect."""
    report = hamilton_harnack_defect(state, m, 0.0)
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
    1/(1 - e^{-x}) <= 1 + 1/x.  ``A`` must dominate max(u) over the run.
    """
    t = state.t
    _validate_mk(state.manifold, m, K, t)
    umax = float(state.u.max())
    if A < umax:
        raise ValueError(f"A={A} is below max u = {umax}; log(A/u) must be nonnegative")
    if K == 0.0:
        prefactor = 1.0 / t  # limit of K/(1-e^{-Kt})
    else:
        prefactor = K / (-math.expm1(-K * t))
    bracket = m + 4.0 * np.log(A / state.u)
    lhs = state.dt_log_u + _sq_grad_log(state)
    defect = prefactor * bracket - lhs
    variant = (K + 1.0 / t) * bracket - lhs
    return DefectReport(
        "sup_bound", t, float(m), float(K), defect, HARNACK_TOL_REL * (prefactor * m),
        extra={"A": float(A), "defect_variant": variant},
    )


def kernel_dt_log_bounds(snapshots, m, K):
    """Lower bound -(m/2t) e^{2Kt} on d/dt log u for kernel runs.

    Also fits the smallest constant C with
    d/dt log u <= C (1 + 1/sqrt(t) + d(x, x0)/t)^2 over the run; the
    constant is a shape diagnostic whose stability under grid refinement
    is checked by the callers, not an asserted bound.
    """
    if not snapshots:
        raise ValueError("no snapshots given")
    manifold = snapshots[0].manifold
    _validate_mk(manifold, m, K)
    src = snapshots[0].kernel
    if src is None:
        raise ValueError("snapshots must come from a kernel-initialized run")
    dist = geodesic_distance(manifold, src.x0)
    min_margin = math.inf
    fitted = 0.0
    times = []
    ok = True
    for s in snapshots:
        t = s.t
        times.append(t)
        lower = -(m / (2.0 * t)) * math.exp(2.0 * K * t)
        rate = s.dt_log_u
        margin = float((rate - lower).min())
        min_margin = min(min_margin, margin)
        if margin < -KERNEL_BOUND_TOL_REL * abs(lower):
            ok = False
        shape = (1.0 + 1.0 / math.sqrt(t) + dist / t) ** 2
        fitted = max(fitted, float((rate / shape).max()))
    return KernelDtLogReport(
        m=float(m),
        K=float(K),
        times=tuple(times),
        min_margin=float(min_margin),
        ok=bool(ok),
        fitted_upper_constant=float(fitted),
    )
