"""Conformal metric flows coupled to the potential by measure invariance.

Supported flows scale the flat base metric by a space-constant factor
e^{2 lam(t)} and move the potential by phi(t) = phi0 + n (lam(t) - lam(0)),
which is exactly the coupling that freezes the weighted measure.  Within
this family every tensor stays diagonal: the time-dependent operator is
e^{-2 lam(t)} times the base operator, and the Bakry-Emery tensor is the
base tensor at every t, because phi moves only by a constant.

The margin field of the super-flow condition lives here.  The heat flow
of the time-dependent operator is the base heat flow under the time
change tau(t) = integral of e^{-2 lam} (:meth:`FlowSpec.base_time`), so
:func:`evolve_heat_on_flow` is :func:`wittenlab.heatflow.evolve` at the
times tau, with no stepping of its own; constant potentials and
separable potentials on the torus propagate exactly.  The flow
W-entropy, its dW/dt decomposition and the entropy dissipation
identities are adapters over the entropy core of
:mod:`wittenlab.entropy`, called with scale = e^{-2 lam(t)} and
rate = lam'(t) on states of the base manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import (
    _entropy_H,
    _entropy_second_derivative,
    _w_decomposition,
    _w_entropy,
)
from .geometry import WeightedManifold, _is_real, ricci_bakry_emery
from .heatflow import evolve

__all__ = [
    "FlowSpec",
    "FlowMarginReport",
    "make_flow",
    "super_ricci_flow_margin",
    "super_ricci_flow_margins",
    "fit_super_flow_constant",
    "evolve_heat_on_flow",
    "w_decomposition_on_flow",
    "entropy_dissipation_on_flow",
    "w_entropy_on_flow",
]

FLOW_MARGIN_TOL = 1e-10
FIT_SAMPLES = 33  # times at which fit_super_flow_constant samples the margin

_FLOW_DEFAULTS = {
    "constant_rate": {"lambda0": 0.0, "rate": 0.0},
    "sinusoidal": {"lambda0": 0.0, "amplitude": 0.0, "frequency": 1.0},
}


@dataclass(frozen=True)
class FlowSpec:
    """Space-constant conformal flow over a fixed time horizon."""

    base: WeightedManifold
    family: str  # "constant_rate" or "sinusoidal"
    params: dict
    horizon: float

    def __post_init__(self):
        if self.family not in _FLOW_DEFAULTS:
            raise ValueError(f"unknown flow family {self.family!r}")

    def log_factor(self, t):
        """Conformal log-factor lam(t)."""
        p = self.params
        if self.family == "constant_rate":
            return p["lambda0"] + p["rate"] * t
        return p["lambda0"] + p["amplitude"] * math.sin(p["frequency"] * t)

    def log_factor_rate(self, t):
        """d lam / dt."""
        p = self.params
        if self.family == "constant_rate":
            return p["rate"]
        return p["amplitude"] * p["frequency"] * math.cos(p["frequency"] * t)

    def potential(self, t):
        """phi(t) = phi0 + n (lam(t) - lam(0)); keeps the measure fixed."""
        shift = self.base.dim_n * (self.log_factor(t) - self.log_factor(0.0))
        return self.base.potential + shift

    def measure_weights(self, t):
        """Weights e^{-phi(t)} sqrt(det g(t)) * cell; independent of t."""
        n = self.base.dim_n
        det_half = math.exp(n * self.log_factor(t))
        return np.exp(-self.potential(t)) * det_half * self.base.cell_volume

    def operator_scale(self, t):
        """L(t) = operator_scale(t) * L_base for space-constant factors."""
        return math.exp(-2.0 * self.log_factor(t))

    def base_time(self, a, b):
        """Base-clock time from t = a to t = b, the integral of e^{-2 lam}.

        Closed form for the constant-rate family.  The sinusoidal
        integrand repeats every 2 pi/|w|, so whole periods take the
        quadrature of one period and the rest its own.
        """
        p = self.params
        if self.family == "constant_rate":
            r = p["rate"]
            if r == 0.0:
                return self.operator_scale(a) * (b - a)
            return -self.operator_scale(a) * math.expm1(-2.0 * r * (b - a)) / (2.0 * r)
        w = abs(p["frequency"])
        whole = math.floor((b - a) * w / (2.0 * math.pi))
        period = 2.0 * math.pi / w if whole else 0.0
        return (
            whole * self._sinusoidal_quadrature(a, a + period)
            + self._sinusoidal_quadrature(a + whole * period, b)
        )

    def _sinusoidal_quadrature(self, a, b):
        """Composite 32-node Gauss-Legendre for the sinusoidal integrand.

        Panels are short against both the period and the width of the
        peaks of e^{-2 lam}.
        """
        p = self.params
        amp, freq = p["amplitude"], p["frequency"]
        panels = max(1, math.ceil((b - a) * abs(freq) * (1.0 + 2.0 * abs(amp))))
        nodes, weights = np.polynomial.legendre.leggauss(32)
        h = (b - a) / panels
        mid = a + h * (np.arange(panels)[:, None] + 0.5)
        lam = p["lambda0"] + amp * np.sin(freq * (mid + 0.5 * h * nodes[None, :]))
        return float(0.5 * h * np.sum(weights * np.exp(-2.0 * lam)))


@dataclass(frozen=True)
class FlowMarginReport:
    t: float
    m: float
    K: float
    min_eigenvalue_field: np.ndarray
    min_value: float
    tol: float
    ok: bool

    def __post_init__(self):
        self.min_eigenvalue_field.setflags(write=False)


def make_flow(base, family="static", params=None, horizon=1.0):
    """Build a :class:`FlowSpec` and verify measure invariance numerically;
    ``static`` is the ``constant_rate`` flow with zero parameters."""
    if not 0.0 < horizon < math.inf:
        raise ValueError("flow horizon must be positive and finite")
    if family == "static":
        family, params = "constant_rate", None
    params = {**_FLOW_DEFAULTS.get(family, {}), **(params or {})}
    flow = FlowSpec(base=base, family=family, params=params, horizon=float(horizon))
    for key, val in params.items():
        if not _is_real(val) or not math.isfinite(val):
            raise ValueError(f"flow parameter {key} must be a finite number, got {val!r}")
    # a conformal factor out of double range overflows here or breaks invariance
    w0 = flow.measure_weights(0.0)
    for t in np.linspace(0.0, horizon, 7):
        flow.operator_scale(float(t))
        wt = flow.measure_weights(float(t))
        if np.abs(wt - w0).max() > 1e-14 * np.abs(w0).max():
            raise ValueError(f"flow breaks measure invariance at t={t:g}")
    return flow


def _margin_fields(flow, m, K, times):
    """Eigenvalue fields of (1/2) dg/dt + Ric_mn + K g in g(t), one per time.

    For space-constant conformal factors the endomorphism is
    lam'(t) + K + e^{-2 lam(t)} times the base-tensor eigenvalue, so the
    base curvature is computed once for all times.
    """
    base_eigs = ricci_bakry_emery(flow.base, m).values
    return [
        flow.log_factor_rate(t) + K + flow.operator_scale(t) * base_eigs
        for t in times
    ]


def super_ricci_flow_margins(flow, m, K, times):
    """Margin reports at each of ``times``, on one base curvature."""
    out = []
    for t, field in zip(times, _margin_fields(flow, m, K, times)):
        min_value = float(field.min())
        out.append(FlowMarginReport(
            t=float(t),
            m=float(m),
            K=float(K),
            min_eigenvalue_field=field,
            min_value=min_value,
            tol=FLOW_MARGIN_TOL,
            ok=bool(min_value >= -FLOW_MARGIN_TOL),
        ))
    return out


def super_ricci_flow_margin(flow, m, K, t):
    """Smallest eigenvalue field of (1/2) dg/dt + Ric_mn + K g at time t.

    Eigenvalues are taken with respect to g(t).
    """
    (report,) = super_ricci_flow_margins(flow, m, K, [t])
    return report


def fit_super_flow_constant(flow, m):
    """Smallest K >= 0 for which the super-flow margin is nonnegative."""
    t_samples = np.linspace(0.0, flow.horizon, FIT_SAMPLES)
    fields = _margin_fields(flow, m, 0.0, [float(t) for t in t_samples])
    return max(0.0, -min(float(f.min()) for f in fields))


def evolve_heat_on_flow(flow, state, times, local_error=1e-8, manifest=None):
    """Heat flow of the time-dependent operator e^{-2 lam(t)} L_base.

    Since the factor is constant in space, this is the base heat flow
    under the time change tau(t) = state.t + base_time(state.t, t): the
    snapshots are :func:`wittenlab.heatflow.evolve` of ``state``, a state
    on ``flow.base``, at the times tau, relabeled with the flow times.
    Constant potentials
    and separable potentials on the torus thus propagate exactly, other
    potentials by the adaptive stepping of ``evolve``.  Rows collected
    in ``manifest`` are on the base clock.
    """
    times = [float(t) for t in times]
    if times and times[-1] > flow.horizon + 1e-12:
        raise ValueError("snapshot beyond the flow horizon")
    taus = [state.t + flow.base_time(state.t, t) for t in times]
    snaps = evolve(state, taus, local_error=local_error, manifest=manifest)
    return [replace(s, t=t) for s, t in zip(snaps, times)]


def w_entropy_on_flow(flow, state, m, K):
    """H_mK and W_mK along the flow; gradients taken in g(t)."""
    return _w_entropy(state, m, K, flow.operator_scale(state.t))


def w_decomposition_on_flow(flow, state, m, K):
    """Four-term dW/dt split with tensors evaluated in the flow metric.

    Identical to the fixed-metric decomposition except that the curvature
    quadratic uses (1/2) dg/dt + Ric_mn + K g.
    """
    t = state.t
    return _w_decomposition(state, m, K, flow.operator_scale(t), flow.log_factor_rate(t))


def entropy_dissipation_on_flow(flow, snapshots):
    """First and second entropy derivatives along the flow, per snapshot.

    dH/dt = int |grad log u|^2_{g(t)} u dmu and
    d2H/dt2 = -2 int [ |hess log u|^2_{g(t)}
                       + ((1/2) dg/dt + Ric + hess phi)(grad log u, ...) ] u dmu.

    With three or more snapshots, each row also carries the residuals of
    these quadratures against temporal finite differences of H, which
    shrink at the scheme/spacing order.
    """
    rows = []
    H_values = []
    for s in snapshots:
        scale = flow.operator_scale(s.t)
        H, dH = _entropy_H(s, scale)
        d2H = _entropy_second_derivative(s, scale, flow.log_factor_rate(s.t))
        H_values.append(H)
        rows.append({"t": s.t, "dH_dt": dH, "d2H_dt2": d2H})
    if len(rows) >= 3:
        times = np.array([r["t"] for r in rows])
        H_arr = np.array(H_values)
        fd1 = np.gradient(H_arr, times)
        fd2 = np.full_like(H_arr, np.nan)
        h1 = times[1:-1] - times[:-2]
        h2 = times[2:] - times[1:-1]
        fd2[1:-1] = 2.0 * (
            h1 * H_arr[2:] - (h1 + h2) * H_arr[1:-1] + h2 * H_arr[:-2]
        ) / (h1 * h2 * (h1 + h2))
        for i, r in enumerate(rows):
            r["residual_dH"] = r["dH_dt"] - fd1[i]
            r["residual_d2H"] = r["d2H_dt2"] - fd2[i]
    return rows
