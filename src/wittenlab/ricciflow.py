"""Conformal metric flows coupled to the potential by measure invariance.

Supported flows scale the flat base metric by a space-constant factor
e^{2 lam(t)} and move the potential by phi(t) = phi0 + n (lam(t) - lam(0)),
which is exactly the coupling that freezes the weighted measure.  Within
this family every tensor stays diagonal: the time-dependent operator is
e^{-2 lam(t)} times the base operator, and the Bakry-Emery tensor is the
base tensor at every t, because phi moves only by a constant.

The margin field of the super-flow condition lives here, as the
``defect`` of a :class:`wittenlab.harnack.DefectReport` (``inequality``
is ``"super_ricci_flow"``, ``tol`` is ``FLOW_MARGIN_TOL``).  The margins
of a list of ``(m, K)`` at the requested times are one pass of the
:mod:`wittenlab.harnack` column core (:func:`margin_columns`): the
fields of a block of times are one ``(times, *grid)`` stack, whose
per-time minima and first minimum nodes are taken together.  It is the
one route to margin fields: :func:`super_ricci_flow_margin` is its
one-time case, and :func:`fit_super_flow_constant` reads its worst row
at K = 0 (a NaN margin gives a NaN constant, which the K rule refuses).
Every time read in the flow's metric, a margin time or a row time of
the flow entropy functions and of ``entropy.build_series_per_m`` with a
flow, passes one rule, ``heatflow._check_flow_times``, once per call and
before any field is read: a finite number in [0, horizon], within the
1e-12 of ``heatflow._within_horizon``.  0 is valid, since the margin
check and the fit sample from it; a time outside raises ``ValueError``
naming it.  The heat flow of the time-dependent operator is the base
heat flow under the time change tau(t) = integral of e^{-2 lam}
(:meth:`FlowSpec.base_clock`), so :func:`evolve_heat_on_flow` is
:func:`wittenlab.heatflow.evolve` at the times tau, with no stepping of
its own, and like it takes one state; constant potentials and separable
potentials on the torus propagate exactly.  The flow W-entropy, its
dW/dt decomposition and the entropy dissipation identities are adapters
over the entropy core of :mod:`wittenlab.entropy`, called with scale =
e^{-2 lam(t)} and rate = lam'(t) on states of the base manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import (
    _decomposition_record,
    _entropy_H,
    _entropy_second_derivative,
    _w_entropy,
)
from .geometry import WeightedManifold, _check_finite, _check_K, _check_params, _check_time
from .geometry import ricci_bakry_emery
from .harnack import _defect_columns
from .heatflow import _as_stack, _check_flow_times, _within_horizon, evolve

__all__ = [
    "FlowSpec",
    "make_flow",
    "super_ricci_flow_margin",
    "margin_columns",
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
        _check_params("flow", self.family, self.params, _FLOW_DEFAULTS[self.family])

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

    def base_clock(self, start, times):
        """The base-clock times ``start + base_time(start, t)`` of ``times``.

        The heat flow of this flow from a state at ``start`` reaches time
        t where the base heat flow reaches the returned time.  ``times``
        must end within the horizon.
        """
        times = [float(t) for t in times]
        if times and not _within_horizon(times[-1], self.horizon):
            raise ValueError("snapshot beyond the flow horizon")
        return [start + self.base_time(start, t) for t in times]

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


def make_flow(base, family="static", params=None, horizon=1.0):
    """Build a :class:`FlowSpec` and verify measure invariance numerically;
    ``static`` is the ``constant_rate`` flow with zero parameters."""
    horizon = _check_time("flow horizon", horizon)
    if family == "static":
        _check_params("flow", family, params or {}, {})
        family = "constant_rate"
    params = {**_FLOW_DEFAULTS.get(family, {}), **(params or {})}
    flow = FlowSpec(base=base, family=family, params=params, horizon=horizon)
    for key, val in params.items():
        _check_finite(f"flow parameter {key}", val)
    w0 = _measure_weights(flow, 0.0)
    for t in np.linspace(0.0, horizon, 7).tolist():
        if not np.abs(_measure_weights(flow, t) - w0).max() <= 1e-14 * np.abs(w0).max():
            raise ValueError(f"flow breaks measure invariance at t={t:g}")
    return flow


def _measure_weights(flow, t):
    """``flow.measure_weights(t)``, checking e^{-2 lam(t)} too: a conformal
    factor out of double range raises ``ValueError`` naming it, with no
    numpy warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            flow.operator_scale(t)
            return flow.measure_weights(t)
    except (OverflowError, FloatingPointError, ValueError):  # ValueError: sin(inf)
        raise ValueError(
            f"the conformal factor e^(2 lam(t)) leaves double range at t={t:g}"
        ) from None


def margin_columns(flow, mKs, times, keep=False):
    """The super-flow margins at each of ``times`` for each ``(m, K)`` of
    ``mKs``: a :class:`wittenlab.harnack.DefectColumns` per pair, whose
    fields, kept with ``keep``, are the smallest eigenvalue fields of
    (1/2) dg/dt + Ric_mn + K g in g(t).

    For space-constant conformal factors the endomorphism is
    lam'(t) + K + e^{-2 lam(t)} times the smallest eigenvalue of the base
    tensor, so the base curvature of each m serves every time, and a
    block's lam'(t) and e^{-2 lam(t)} every m.  Each K must pass the K
    rule, m may be inf, and each time the flow time rule.
    """
    for _, K in mKs:
        _check_K(K)
    times = _check_flow_times("margin time t", times, flow.horizon)
    base_eigs = {m: ricci_bakry_emery(flow.base, m).values for m, _ in mKs}
    column = (-1,) + (1,) * flow.base.dim_n

    def block(rows, block_times):
        rates = [flow.log_factor_rate(t) for t in block_times]
        scale = np.array([flow.operator_scale(t) for t in block_times]).reshape(column)
        tols = [FLOW_MARGIN_TOL] * len(block_times)

        def at(m, K):
            shift = np.array([rate + K for rate in rates]).reshape(column)
            return shift + scale * base_eigs[m], tols

        return at

    return _defect_columns("super_ricci_flow", times, flow.base.shape, mKs, block, keep)


def super_ricci_flow_margin(flow, m, K, t):
    """Margin report whose defect is the smallest eigenvalue field of
    (1/2) dg/dt + Ric_mn + K g at time t.

    Eigenvalues are taken with respect to g(t).
    """
    (columns,) = margin_columns(flow, [(m, K)], [t], keep=True)
    (report,) = columns.reports()
    return report


def fit_super_flow_constant(flow, m):
    """Smallest K >= 0 for which the super-flow margin is nonnegative: the
    least margin at K = 0 over ``FIT_SAMPLES`` times, negated, or 0.  A
    NaN margin gives a NaN constant, which the K rule refuses."""
    t_samples = np.linspace(0.0, flow.horizon, FIT_SAMPLES).tolist()
    (columns,) = margin_columns(flow, [(m, 0.0)], t_samples)
    return float(np.maximum(-columns.worst_defect, 0.0))


def evolve_heat_on_flow(flow, state, times, local_error=1e-8, manifest=None):
    """Heat flow of the time-dependent operator e^{-2 lam(t)} L_base.

    Since the factor is constant in space, this is the base heat flow on
    the clock of :meth:`FlowSpec.base_clock`: the snapshots are
    :func:`wittenlab.heatflow.evolve` of ``state``, a state on
    ``flow.base``, at the times tau(t) = state.t + base_time(state.t, t),
    relabeled with the flow times.  Constant potentials and separable
    potentials on the torus thus propagate exactly, other potentials by
    the adaptive stepping of ``evolve``.  Rows collected in ``manifest``
    are on the base clock.  The CLI takes its flow snapshots from the
    same time change, in the one ``evolve`` it shares with the
    fixed-metric checks (``wittenlab.cli._Runner.stack("flow")``).
    """
    if state.stacked:
        raise ValueError("evolve_heat_on_flow takes one state, not a stack")
    times = [float(t) for t in times]
    taus = flow.base_clock(state.t, times)
    snaps = evolve(state, taus, local_error=local_error, manifest=manifest)
    return [replace(s, t=t) for s, t in zip(snaps, times)]


def w_entropy_on_flow(flow, state, m, K):
    """H_mK and W_mK along the flow; gradients taken in g(t)."""
    return _w_entropy(state, m, K, flow)


def w_decomposition_on_flow(flow, state, m, K):
    """Four-term dW/dt split with tensors evaluated in the flow metric.

    Identical to the fixed-metric decomposition except that the curvature
    quadratic uses (1/2) dg/dt + Ric_mn + K g.
    """
    return _decomposition_record(state, m, K, flow)


def entropy_dissipation_on_flow(flow, snapshots):
    """First and second entropy derivatives along the flow, per snapshot.

    dH/dt = int |grad log u|^2_{g(t)} u dmu and
    d2H/dt2 = -2 int [ |hess log u|^2_{g(t)}
                       + ((1/2) dg/dt + Ric + hess phi)(grad log u, ...) ] u dmu.

    With three or more snapshots, each row also carries the residuals of
    these quadratures against temporal finite differences of H, which
    shrink at the scheme/spacing order.  Each row time must lie in
    [0, horizon].
    """
    if not snapshots:
        return []
    state = _as_stack(snapshots)
    _check_flow_times("flow time t", state.times, flow.horizon)
    H_arr, dH = _entropy_H(state, flow)
    d2H = _entropy_second_derivative(state, flow)
    rows = [
        {"t": t, "dH_dt": a, "d2H_dt2": b}
        for t, a, b in zip(state.times, dH.tolist(), d2H.tolist())
    ]
    if len(rows) >= 3:
        times = np.array(state.times)
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
