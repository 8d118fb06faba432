"""Pointwise differential Harnack inequalities as defect fields.

Every check takes heat-flow states, reads their manifold and cached
``dt_log_u`` and ``grad_log_u``, and reports the defect RHS - LHS per
node, so nonnegative defect certifies the inequality on the grid.
Tolerances are relative to the natural scale of each inequality (its
constant term), since defects grow like 1/t for small times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import _as_index, _m_equals_n, geodesic_distance

__all__ = [
    "HarnackReport",
    "IntegratedHarnackReport",
    "KernelDtLogReport",
    "hamilton_harnack_defect",
    "li_yau_defect",
    "integrated_harnack_check",
    "sup_bound_defect",
    "kernel_dt_log_bounds",
]

KERNEL_BOUND_TOL_REL = 1e-9


@dataclass(frozen=True)
class HarnackReport:
    inequality: str
    t: float
    m: float
    K: float
    defect: np.ndarray
    min_defect: float
    argmin_node: tuple
    tol: float
    ok: bool
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.defect.setflags(write=False)


@dataclass(frozen=True)
class IntegratedHarnackReport:
    x: tuple
    y: tuple
    tau: float
    T: float
    m: float
    K: float
    distance: float
    lhs: float
    rhs: float
    tol: float
    ok: bool


@dataclass(frozen=True)
class KernelDtLogReport:
    m: float
    K: float
    times: tuple
    min_margin: float
    ok: bool
    fitted_upper_constant: float


def _validate_mk(manifold, m, K, t=None):
    """Reject m by the m rule, negative K and, when given, a time t <= 0."""
    _m_equals_n(manifold, m)
    if K < 0.0:
        raise ValueError("curvature constant K must be nonnegative")
    if t is not None and t <= 0.0:
        raise ValueError("state time must be positive")


def _sq_grad_log(state):
    g = state.grad_log_u
    return np.einsum("a...,a...->...", g, g)


def _report(inequality, state, m, K, defect, tol, extra=None):
    """Report of a defect field, passing when its minimum is >= -tol."""
    min_defect = float(defect.min())
    return HarnackReport(
        inequality=inequality,
        t=state.t,
        m=float(m),
        K=float(K),
        defect=defect,
        min_defect=min_defect,
        argmin_node=np.unravel_index(int(np.argmin(defect)), defect.shape),
        tol=tol,
        ok=bool(min_defect >= -tol),
        extra=extra or {},
    )


def hamilton_harnack_defect(state, m, K, tol_rel=1e-6):
    """Defect of the dimension-full gradient bound with curvature factor.

    defect = (m/2t) e^{4Kt} + e^{2Kt} (Lu/u) - |grad u / u|^2, which is
    nonnegative for positive solutions whenever the Bakry-Emery tensor is
    bounded below by -K.
    """
    t = state.t
    _validate_mk(state.manifold, m, K, t)
    rhs_const = (m / (2.0 * t)) * math.exp(4.0 * K * t)
    defect = rhs_const + math.exp(2.0 * K * t) * state.dt_log_u - _sq_grad_log(state)
    return _report("hamilton", state, m, K, defect, tol_rel * rhs_const)


def li_yau_defect(state, m):
    """Sharp-constant gradient bound; the K = 0 case of the Hamilton defect."""
    report = hamilton_harnack_defect(state, m, 0.0)
    return replace(report, inequality="li_yau")


def _snapshot_at(snapshots, t):
    for s in snapshots:
        if abs(s.t - t) <= 1e-10 * max(1.0, abs(t)):
            return s
    raise ValueError(f"no snapshot at t={t}")


def integrated_harnack_check(snapshots, x, y, tau, T, m, K, tol=1e-6):
    """Two-point comparison obtained by integrating the gradient bound.

    lhs = u(x, tau) / u(y, T);
    rhs = (T/tau)^{m/2} exp( e^{2K tau} (1 + 2K(T-tau)) d(x,y)^2 / (4(T-tau))
          + (m/2)(e^{2KT} - e^{2K tau}) ).
    """
    if not (0.0 < tau < T):
        raise ValueError(f"need 0 < tau < T, got tau={tau}, T={T}")
    s_tau = _snapshot_at(snapshots, tau)
    s_T = _snapshot_at(snapshots, T)
    manifold = s_tau.manifold
    _validate_mk(manifold, m, K)
    x = _as_index(manifold, x)
    y = _as_index(manifold, y)
    d = float(geodesic_distance(manifold, x)[y])
    lhs = float(s_tau.u[x] / s_T.u[y])
    exponent = (
        0.25 * math.exp(2.0 * K * tau) * (1.0 + 2.0 * K * (T - tau)) * d * d / (T - tau)
        + 0.5 * m * (math.exp(2.0 * K * T) - math.exp(2.0 * K * tau))
    )
    rhs = (T / tau) ** (0.5 * m) * math.exp(exponent)
    return IntegratedHarnackReport(
        x=x,
        y=y,
        tau=float(tau),
        T=float(T),
        m=float(m),
        K=float(K),
        distance=d,
        lhs=lhs,
        rhs=float(rhs),
        tol=float(tol),
        ok=bool(lhs <= rhs * (1.0 + tol)),
    )


def sup_bound_defect(state, m, K, A, tol_rel=1e-6):
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
    return _report(
        "sup_bound", state, m, K, defect, tol_rel * (prefactor * m),
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
