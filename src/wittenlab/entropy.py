"""Entropy functionals along the heat flow and the W-entropy identities.

The Boltzmann entropy H(u) = -int u log u dmu dissipates at rate
int |grad log u|^2 u dmu, with second derivative given by the iterated
carre-du-champ.  The corrected entropy subtracts a time normalization
Phi_mK with Phi_mK'(t) = (m/2t) e^{4Kt}; the W-entropy is the Boltzmann
derivative d/dt (t H_mK).  Its time derivative splits into three
nonpositive quadratic integrals (under the curvature hypothesis) plus an
explicit constant term, and that decomposition is what the monotonicity
checks assert.

The additive constant of Phi_mK is fixed so that K = 0 reproduces the
classical normalization (m/2)(log(4 pi t) + 1); reports carry this
convention explicitly.  The closed forms in t (the normalization, its
derivative, the decay bound and the normalization comparison) check m,
K and each t by the one ``(m, K, t)`` rule of :mod:`wittenlab.geometry`,
with no model; the functionals of states check each row time by it.
Each public function applies the rule once, at its head: the private
cores (``_normalized_entropy``, ``_w_decomposition``) apply none, and
:func:`build_series_per_m` checks every ``(m, K)`` and each row time
once before any field of the stack is computed.  Along a flow each row
time then passes the flow's time rule (``heatflow._check_flow_times``),
in the same check, ``_check_domain``.

Each functional takes heat-flow states and reads their manifold and
cached fields; the derivatives of log u are the quotients grad u / u and
Hess u / u - grad log u (x) grad log u (see ``HeatState``).  One private
core evaluates them on a fixed metric and along the space-constant
conformal flows of :mod:`wittenlab.ricciflow`, on states of the flow's
base.  Along such a flow L(t) = scale * L_base
with scale = e^{-2 lam(t)}, and the curvature term (1/2) dg/dt adds
rate = lam'(t) times the metric; the Bakry-Emery tensor of the base does
not depend on t.  A fixed metric is scale = 1, rate = 0, and the public
functions below are that case.

The core takes one state or a stack of them (see
:class:`wittenlab.heatflow.HeatState`) and returns one value per row:
:func:`build_series_per_m` evaluates a list of ``(m, K)`` in one pass
over a run's stacked snapshots, and one state is the one-row case, whose
public functions return floats where a stack gets arrays over its rows.
What no m changes (H, dH/dt, d2H/dt2, the flow's scale and rate, and a
block's drift term) is computed once and shared by every m;
:func:`build_series` is the one-m case.  The per-row scalars (Phi_mK
and its derivative, the decay bound) are computed once per time and m and
broadcast: with ``math``, except the series of Phi_mK, which is summed
over all the row times at once; the quadratic integrands are formed over
blocks of rows under the operators' element budget
(``operators._row_blocks``).  Every row's value equals that of its state
alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .geometry import _check_m_K_t, _read_only, bakry_emery_tensor
from .heatflow import HeatState, _as_stack, _by_row, _check_flow_times, _column
from .operators import _row_blocks, integrate_mu

__all__ = [
    "EntropySeries",
    "WDecomposition",
    "phi_mK",
    "phi_mK_prime",
    "entropy_H",
    "entropy_second_derivative",
    "w_entropy",
    "tilde_w_entropy",
    "w_derivative_decomposition",
    "build_series",
    "build_series_per_m",
    "w_monotonicity_check",
    "tilde_w_comparison",
    "monotonicity_bound",
]

SERIES_RTOL = 1e-17  # remainder bound of the normalization series
_SERIES_CHUNK = 32  # series indices j per pass; x up to about 4 stops within one
MONOTONICITY_SLACK_REL = 1e-9


def _exp_series(x):
    """sum_{j>=1} x^j / (j * j!) with a remainder bound below ``SERIES_RTOL``,
    at each element of ``x``: a float for a number, an array for an array.

    All terms are nonnegative for x >= 0, so plain accumulation is
    accurate; termination requires both a small next term and j > x so
    the tail is geometrically dominated.  Each element stops at its own
    j.  The terms are taken ``_SERIES_CHUNK`` indices j at a time for
    every element still summing, by sequential ``accumulate`` along j, so
    each element's terms and partial sums are formed in the order of the
    term-by-term loop over that argument alone.  At x = 0 the sum stops
    at j = 1 with the value 0 exactly, so K = 0 needs no case of its own.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError("series argument must be nonnegative")
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    open_ = np.arange(flat.size)  # the elements still summing
    term = np.ones(flat.shape)  # x^j / j! at the last j taken
    s = np.zeros(flat.shape)  # the partial sum there
    j0 = 1
    while open_.size:
        if j0 > 10000:
            raise RuntimeError("entropy normalization series failed to converge")
        j = np.arange(j0, j0 + _SERIES_CHUNK, dtype=float)[:, None]
        xo = flat[open_]
        terms = np.multiply.accumulate(np.vstack([term[open_], xo / j]), axis=0)[1:]
        adds = terms / j
        sums = np.add.accumulate(np.vstack([s[open_], adds]), axis=0)[1:]
        stops = (j > xo) & (adds <= SERIES_RTOL * (1.0 + sums))
        done = stops.any(axis=0)
        out[open_[done]] = sums[stops.argmax(axis=0)[done], done]
        term[open_], s[open_] = terms[-1], sums[-1]
        open_ = open_[~done]
        j0 += _SERIES_CHUNK
    return out.reshape(x.shape) if x.ndim else float(out[0])


def phi_mK(t, m, K):
    """Time normalization with derivative (m/2t) e^{4Kt}.

    Equals (m/2)(log(4 pi t) + 1) at K = 0; the K-dependence enters
    through the entire series sum_{j>=1} (4Kt)^j / (j * j!).
    """
    _check_m_K_t(None, [(m, K)], [t])
    return float(_phi_mK([t], m, K)[0])


def _phi_mK(times, m, K):
    """Phi_mK at each of ``times``, as an array: the logarithm per time,
    the series in one pass over the times."""
    base = np.array([0.5 * m * (math.log(4.0 * math.pi * t) + 1.0) for t in times])
    return base + 0.5 * m * _exp_series(4.0 * K * np.array(times))


def phi_mK_prime(t, m, K):
    _check_m_K_t(None, [(m, K)], [t])
    return _phi_mK_prime(t, m, K)


def _phi_mK_prime(t, m, K):
    return (m / (2.0 * t)) * math.exp(4.0 * K * t)


def monotonicity_bound(t, m, K):
    """-(m/2t) [e^{4Kt}(1 + 4Kt) - (1 + Kt)^2], the W-entropy decay bound."""
    _check_m_K_t(None, [(m, K)], [t])
    return _monotonicity_bound(t, m, K)


def _monotonicity_bound(t, m, K):
    return -(m / (2.0 * t)) * (
        math.exp(4.0 * K * t) * (1.0 + 4.0 * K * t) - (1.0 + K * t) ** 2
    )


def _metric(state, flow):
    """Per row of ``state``, the flow's ``(scale, rate)`` at the row's time
    as two lists of floats; scale 1 and rate 0 without a flow."""
    times = state.times
    if flow is None:
        return [1.0] * len(times), [0.0] * len(times)
    return [flow.operator_scale(t) for t in times], [flow.log_factor_rate(t) for t in times]


def _check_domain(state, mKs, flow):
    """The m == n flags of :func:`_check_m_K_t` on ``mKs`` and the row times
    of ``state``, whose times then pass, with ``flow``, its time rule."""
    m_equals_n = _check_m_K_t(state.manifold, mKs, state.times)
    if flow is not None:
        _check_flow_times("flow time t", state.times, flow.horizon)
    return m_equals_n


def _one(state, values):
    """Per-row ``values`` as they are for a stack, the one float for one state."""
    return values if state.stacked else float(values[0])


def _entropy_H(state, flow):
    """Per row, H and dH/dt = scale * int |grad log u|^2 u dmu, as arrays."""
    H, dH = state.entropy_pair
    return np.reshape(H, -1), np.array(_metric(state, flow)[0]) * dH


def entropy_H(state):
    """Boltzmann entropy and its dissipation rate.

    Returns (H, dH_dt) with H = -int u log u dmu and
    dH_dt = int |grad log u|^2 u dmu, both by grid quadrature.
    """
    return tuple(_one(state, v) for v in _entropy_H(state, None))


def _blocks(state, lead):
    """Row blocks of ``state`` for integrands whose largest temporary has
    ``lead`` derivative axes of length n."""
    M = state.manifold
    return _row_blocks(len(state.times), M.dim_n ** lead * math.prod(M.shape))


def _entropy_second_derivative(state, flow):
    """Per row, -2 int [scale^2 Gamma2 + rate * scale |grad log u|^2] u dmu."""
    M = state.manifold
    scales, rates = _metric(state, flow)
    u = _by_row(state, state.u)
    G_sq = _by_row(state, state.grad_log_u_sq)
    gamma2 = _by_row(state, state.log_u_gamma2)
    out = np.empty(len(state.times))
    for rows in _blocks(state, 0):
        sc = scales[rows]
        quad = _column([a * a for a in sc], state) * gamma2[rows] + _column(
            [r * a for r, a in zip(rates[rows], sc)], state
        ) * G_sq[rows]
        out[rows] = -2.0 * integrate_mu(M, quad * u[rows])
    return out


def entropy_second_derivative(state):
    """-2 int Gamma2(grad log u, grad log u) u dmu."""
    return _one(state, _entropy_second_derivative(state, None))


def _normalized_entropy(state, m, K, flow, normalization, derivative, H_dH=None):
    """Per row, ``(H, dH/dt, Phi, H - Phi, W)`` as arrays at the row's time t
    for the normalization ``Phi``, taken over the row times as
    ``normalization(times, m, K)``, with
    W = H - Phi + t (dH/dt - derivative(t, m, K)); the caller has applied
    the domain rule.  ``H_dH``, when given, is the ``(H, dH/dt)`` of
    :func:`_entropy_H`, which no m changes."""
    times = state.times
    H, dH = H_dH or _entropy_H(state, flow)
    Phi = normalization(times, m, K)
    rate = np.array([derivative(t, m, K) for t in times])
    return H, dH, Phi, H - Phi, H - Phi + np.array(times) * (dH - rate)


def _w_entropy(state, m, K, flow):
    _check_domain(state, [(m, K)], flow)
    H, dH, _, H_mK, W_mK = _normalized_entropy(state, m, K, flow, _phi_mK, _phi_mK_prime)
    values = {"H": H, "dH_dt": dH, "H_mK": H_mK, "W_mK": W_mK}
    return {k: _one(state, v) for k, v in values.items()}


def w_entropy(state, m, K):
    """Corrected entropy H_mK and the W-entropy at the state's time.

    W is computed by the product rule, W = H_mK + t (dH/dt - Phi'),
    with the dissipation-rate quadrature supplying dH/dt.
    """
    return _w_entropy(state, m, K, None)


def _tilde_normalization(times, m, K):
    return np.array([
        0.5 * m * (1.0 + math.log(4.0 * math.pi * t)) + 0.5 * m * K * t * (1.0 + K * t / 6.0)
        for t in times
    ])


def _tilde_normalization_prime(t, m, K):
    return 0.5 * m / t + 0.5 * m * K * (1.0 + K * t / 3.0)


def tilde_w_entropy(state, m, K):
    """W-entropy under the polynomial-in-t normalization (the older form)."""
    _check_m_K_t(state.manifold, [(m, K)], state.times)
    H, dH, _, H_t, W_t = _normalized_entropy(
        state, m, K, None, _tilde_normalization, _tilde_normalization_prime
    )
    values = {"H": H, "dH_dt": dH, "H_tilde": H_t, "W_tilde": W_t}
    return {k: _one(state, v) for k, v in values.items()}


@dataclass(frozen=True)
class WDecomposition:
    """Four-term split of dW/dt.

    T1: completed-Hessian square integral (always <= 0)
    T2: curvature quadratic with the shifted tensor (<= 0 under hypothesis)
    T3: drift-alignment square integral (always <= 0; zero when m == n)
    T4: explicit constant term, the monotonicity bound
    """

    T1: float
    T2: float
    T3: float
    T4: float

    @property
    def dW_dt_formula(self):
        return self.T1 + self.T2 + self.T3 + self.T4


def _w_decomposition(state, mKs, flow, m_equals_n):
    """Per ``(m, K)`` of ``mKs``, the four terms ``(T1, T2, T3, T4)`` of
    dW/dt as arrays over the rows, with norms taken in the metric
    g = g_base / scale; ``m_equals_n`` holds the flags of the domain rule,
    which the caller has applied.

    The Hessian of log u is completed by c g, whose base components are
    c / scale; the curvature quadratic carries rate + K in front of g.
    A block's drift ``grad phi . grad log u`` is formed once for every m.
    """
    manifold = state.manifold
    tensors = [bakry_emery_tensor(manifold, m) for m, _ in mKs]
    n = manifold.dim_n
    times = state.times
    scales, rates = _metric(state, flow)
    u = _by_row(state, state.u)
    H = _by_row(state, state.log_u_hessian)
    G = _by_row(state, state.grad_log_u)
    G_sq = _by_row(state, state.grad_log_u_sq)
    eye = np.eye(n).reshape((n, n) + (1,) * (n + 1))
    terms = np.empty((len(mKs), 4, len(times)))
    for rows in _blocks(state, 2):
        t, sc, rt = times[rows], scales[rows], rates[rows]
        G_rows, u_rows = G[:, rows], u[rows]
        drift = None
        for (m, K), m_is_n, ric, (T1, T2, T3, _) in zip(mKs, m_equals_n, tensors, terms):
            c = [(0.5 * K + 0.5 / ti) / a for ti, a in zip(t, sc)]
            completed = H[:, :, rows] + _column(c, state) * eye
            T1[rows] = np.array([-2.0 * ti * (a * a) for ti, a in zip(t, sc)]) * integrate_mu(
                manifold, np.einsum("ab...,ab...->...", completed, completed) * u_rows
            )

            quad = _column([a * a for a in sc], state) * np.einsum(
                "ab...,a...,b...->...", ric, G_rows, G_rows
            ) + _column([(r + K) * a for r, a in zip(rt, sc)], state) * G_sq[rows]
            T2[rows] = np.array([-2.0 * ti for ti in t]) * integrate_mu(manifold, quad * u_rows)

            if m_is_n:
                T3[rows] = 0.0  # phi is constant, so the drift vanishes
                continue
            if drift is None:
                drift = np.einsum("a...,a...->...", manifold.potential_gradient, G_rows)
            align = _column(sc, state) * drift - _column(
                [(m - n) * (1.0 + K * ti) / (2.0 * ti) for ti in t], state
            )
            T3[rows] = np.array([-(2.0 * ti / (m - n)) for ti in t]) * integrate_mu(
                manifold, align * align * u_rows
            )

    for (m, K), (_, _, _, T4) in zip(mKs, terms):
        T4[:] = [_monotonicity_bound(t, m, K) for t in times]
    return [tuple(T) for T in terms]


def _decomposition_record(state, m, K, flow):
    """:class:`WDecomposition` of the core's terms: floats for one state,
    arrays over the rows for a stack."""
    m_equals_n = _check_domain(state, [(m, K)], flow)
    (terms,) = _w_decomposition(state, [(m, K)], flow, m_equals_n)
    return WDecomposition(*(_one(state, T) for T in terms))


def w_derivative_decomposition(state, m, K):
    """Evaluate the four terms of the dW/dt identity at a state (per row of a stack)."""
    return _decomposition_record(state, m, K, None)


@dataclass(frozen=True)
class EntropySeries:
    """Entropy functionals tabulated along a run of snapshots, read-only.
    ``H_mK``, ``dW_dt_formula``, ``residual`` and ``monotonicity_bound``
    (which is ``T4``) are derived from the stored columns."""

    m: float
    K: float
    times: np.ndarray
    H: np.ndarray
    dH_dt: np.ndarray
    d2H_dt2: np.ndarray
    Phi: np.ndarray
    W_mK: np.ndarray
    dW_dt_numeric: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    T3: np.ndarray
    T4: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @cached_property
    def H_mK(self):
        return _read_only(self.H - self.Phi)

    @cached_property
    def dW_dt_formula(self):
        return _read_only(self.T1 + self.T2 + self.T3 + self.T4)

    @cached_property
    def residual(self):
        return _read_only(self.dW_dt_numeric - self.dW_dt_formula)

    @property
    def monotonicity_bound(self):
        return self.T4


def build_series(snapshots, m, K, flow=None):
    """Assemble an :class:`EntropySeries` from heat-flow snapshots.

    ``snapshots`` is a list of states or a stack of them; a list is
    stacked first.  With ``flow`` (a conformal flow over the snapshots'
    manifold, such as :func:`wittenlab.ricciflow.make_flow` returns)
    every functional is taken in the flow metric at the snapshot's time; a
    static flow gives the fixed-metric series.

    The numeric dW/dt column is the centered (nonuniform) finite
    difference of W across neighboring snapshots; endpoints use one-sided
    differences.  Each column is one pass over the stack, whose fields
    every series and check of the stack shares through its cache.
    """
    (series,) = build_series_per_m(snapshots, [(m, K)], flow)
    return series


def build_series_per_m(snapshots, mKs, flow=None):
    """The :func:`build_series` of each ``(m, K)`` of ``mKs``, in one pass.

    The domain rule is applied once, to every pair and row time, before
    any field is read, and with ``flow`` its time rule to every row time.
    What no m changes is computed once and shared, as the same read-only
    arrays, by every series: the times, ``H``, ``dH_dt`` and ``d2H_dt2``.
    """
    if len(snapshots.times if isinstance(snapshots, HeatState) else snapshots) < 2:
        raise ValueError("need at least two snapshots")
    state = _as_stack(snapshots)
    m_equals_n = _check_domain(state, mKs, flow)
    times = np.array(state.times)
    H_dH = _entropy_H(state, flow)
    d2H = _entropy_second_derivative(state, flow)
    out = []
    for (m, K), (T1, T2, T3, T4) in zip(mKs, _w_decomposition(state, mKs, flow, m_equals_n)):
        H, dH, Phi, _, W = _normalized_entropy(
            state, m, K, flow, _phi_mK, _phi_mK_prime, H_dH
        )
        out.append(EntropySeries(
            m=float(m), K=float(K), times=times, H=H, dH_dt=dH, d2H_dt2=d2H, Phi=Phi,
            W_mK=W, dW_dt_numeric=np.gradient(W, times), T1=T1, T2=T2, T3=T3, T4=T4,
        ))
    return out


def w_monotonicity_check(series):
    """dW/dt (from the decomposition) <= bound + slack at every snapshot."""
    slack = MONOTONICITY_SLACK_REL * (1.0 + np.abs(series.monotonicity_bound))
    return bool(np.all(series.dW_dt_formula <= series.monotonicity_bound + slack))


def tilde_w_comparison(m, K, t):
    """Difference of the two W-entropy normalizations, in closed form.

    Psi is the gap between the exponential and polynomial normalizations;
    d/dt (t Psi) is the exact offset between the two W-entropies, and the
    reported residual is d^2/dt^2 (t Psi) minus the decay-bound constant,
    which vanishes identically.

    ``t`` is one time, with a float per entry, or a sequence of times,
    with an array over them per entry; one time is the one-element
    sequence, unwrapped.  The series is one pass over the times; the
    exponentials are ``math.expm1`` and ``math.exp`` per time, so each
    time's values equal those of its one-time call bit for bit.
    """
    times = [t] if np.ndim(t) == 0 else t
    _check_m_K_t(None, [(m, K)], times)
    ts = np.array(times, dtype=float)
    x = 4.0 * K * ts
    E = _exp_series(x)
    rows = [_tilde_w_row(m, K, *args) for args in zip(ts.tolist(), x.tolist(), E.tolist())]
    columns = np.array(rows, dtype=float).reshape(len(rows), 3).T
    if np.ndim(t) == 0:
        columns = columns[:, 0].tolist()
    return dict(zip(("Psi", "d_dt_tPsi", "identity_residual"), columns))


def _tilde_w_row(m, K, t, x, E):
    """Psi, d/dt (t Psi) and the identity residual at time t, with
    ``x = 4 K t`` and ``E`` the series at x."""
    psi = 0.5 * m * E - 0.5 * m * K * t - m * K * K * t * t / 12.0
    d_dt_tpsi = 0.5 * m * (E + math.expm1(x)) - m * K * t - 0.25 * m * K * K * t * t
    d2_dt2_tpsi = (
        0.5 * m * (math.expm1(x) / t + 4.0 * K * math.exp(x))
        - m * K
        - 0.5 * m * K * K * t
    )
    residual = d2_dt2_tpsi - (-_monotonicity_bound(t, m, K))
    return psi, d_dt_tpsi, residual
