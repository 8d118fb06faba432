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
convention explicitly.

One private core evaluates these functionals on a fixed metric and along
the space-constant conformal flows of :mod:`wittenlab.ricciflow`.  Along
such a flow L(t) = scale * L_base with scale = e^{-2 lam(t)}, and the
curvature term (1/2) dg/dt adds rate = lam'(t) times the metric; the
Bakry-Emery tensor of the base does not depend on t.  A fixed metric is
scale = 1, rate = 0, and the public functions below are that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import M_EQUALS_N_TOL, bakry_emery_tensor
from .heatflow import _state_on
from .operators import gradient, integrate_mu

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
    "w_monotonicity_check",
    "tilde_w_comparison",
    "monotonicity_bound",
]


def _exp_series(x, rtol=1e-17):
    """sum_{j>=1} x^j / (j * j!) with a remainder bound below rtol.

    All terms are nonnegative for x >= 0, so plain accumulation is
    accurate; termination requires both a small next term and j > x so
    the tail is geometrically dominated.
    """
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
        if j > x and add <= rtol * (1.0 + s):
            break
        if j > 10000:
            raise RuntimeError("entropy normalization series failed to converge")
    return s


def phi_mK(t, m, K):
    """Time normalization with derivative (m/2t) e^{4Kt}.

    Equals (m/2)(log(4 pi t) + 1) at K = 0; the K-dependence enters
    through the entire series sum_{j>=1} (4Kt)^j / (j * j!).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if K < 0.0:
        raise ValueError("K must be nonnegative")
    base = 0.5 * m * (math.log(4.0 * math.pi * t) + 1.0)
    if K == 0.0:
        return base
    return base + 0.5 * m * _exp_series(4.0 * K * t)


def phi_mK_prime(t, m, K):
    if t <= 0.0:
        raise ValueError("t must be positive")
    if K < 0.0:
        raise ValueError("K must be nonnegative")
    return (m / (2.0 * t)) * math.exp(4.0 * K * t)


def monotonicity_bound(t, m, K):
    """-(m/2t) [e^{4Kt}(1 + 4Kt) - (1 + Kt)^2], the W-entropy decay bound."""
    return -(m / (2.0 * t)) * (
        math.exp(4.0 * K * t) * (1.0 + 4.0 * K * t) - (1.0 + K * t) ** 2
    )


def _entropy_H(manifold, state, scale):
    H, dH = _state_on(manifold, state).entropy_pair
    return H, scale * dH


def entropy_H(manifold, state):
    """Boltzmann entropy and its dissipation rate.

    Returns (H, dH_dt) with H = -int u log u dmu and
    dH_dt = int |grad log u|^2 u dmu, both by grid quadrature.
    """
    return _entropy_H(manifold, state, 1.0)


def _entropy_second_derivative(manifold, state, scale, rate):
    fields = _state_on(manifold, state)
    G = fields.log_u_gradient
    quad = scale * scale * fields.log_u_gamma2 + rate * scale * np.einsum(
        "a...,a...->...", G, G
    )
    return -2.0 * integrate_mu(manifold, quad * state.u)


def entropy_second_derivative(manifold, state):
    """-2 int Gamma2(grad log u, grad log u) u dmu."""
    return _entropy_second_derivative(manifold, state, 1.0, 0.0)


def _w_entropy(manifold, state, m, K, scale):
    t = state.t
    H, dH = _entropy_H(manifold, state, scale)
    H_mK = H - phi_mK(t, m, K)
    W_mK = H_mK + t * (dH - phi_mK_prime(t, m, K))
    return {"H": H, "dH_dt": dH, "H_mK": H_mK, "W_mK": W_mK}


def w_entropy(manifold, state, m, K):
    """Corrected entropy H_mK and the W-entropy at the state's time.

    W is computed by the product rule, W = H_mK + t (dH/dt - Phi'),
    with the dissipation-rate quadrature supplying dH/dt.
    """
    return _w_entropy(manifold, state, m, K, 1.0)


def _tilde_normalization(t, m, K):
    return 0.5 * m * (1.0 + math.log(4.0 * math.pi * t)) + 0.5 * m * K * t * (
        1.0 + K * t / 6.0
    )


def _tilde_normalization_prime(t, m, K):
    return 0.5 * m / t + 0.5 * m * K * (1.0 + K * t / 3.0)


def tilde_w_entropy(manifold, state, m, K):
    """W-entropy under the polynomial-in-t normalization (the older form)."""
    t = state.t
    H, dH = entropy_H(manifold, state)
    H_t = H - _tilde_normalization(t, m, K)
    W_t = H_t + t * (dH - _tilde_normalization_prime(t, m, K))
    return {"H": H, "dH_dt": dH, "H_tilde": H_t, "W_tilde": W_t}


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


def _m_terms(manifold, m):
    """Bakry-Emery tensor and grad phi (None when m == n) of the dW/dt
    split; neither depends on t, so a series computes them once."""
    n = manifold.dim_n
    if m < n - M_EQUALS_N_TOL:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    ric = bakry_emery_tensor(manifold, m)
    grad_phi = None
    if m - n > M_EQUALS_N_TOL:
        grad_phi = gradient(manifold, manifold.potential)
    return ric, grad_phi


def _w_decomposition(manifold, state, m, K, scale, rate, m_terms=None):
    """Four terms of dW/dt with norms taken in the metric g = g_base / scale.

    The Hessian of log u is completed by c g, whose base components are
    c / scale; the curvature quadratic carries rate + K in front of g.
    ``m_terms`` is :func:`_m_terms` of (manifold, m) when the caller has it.
    """
    ric, grad_phi = _m_terms(manifold, m) if m_terms is None else m_terms
    n = manifold.dim_n
    t = state.t
    if t <= 0.0:
        raise ValueError("state time must be positive")
    u = state.u
    fields = _state_on(manifold, state)
    H = fields.log_u_hessian
    G = fields.log_u_gradient
    c = 0.5 * K + 0.5 / t

    completed = H + (c / scale) * np.eye(n).reshape((n, n) + (1,) * n)
    T1 = -2.0 * t * (scale * scale) * integrate_mu(
        manifold, np.einsum("ab...,ab...->...", completed, completed) * u
    )

    quad = scale * scale * np.einsum("ab...,a...,b...->...", ric, G, G) + (
        rate + K
    ) * scale * np.einsum("a...,a...->...", G, G)
    T2 = -2.0 * t * integrate_mu(manifold, quad * u)

    if grad_phi is not None:
        align = scale * np.einsum("a...,a...->...", grad_phi, G) - (m - n) * (
            1.0 + K * t
        ) / (2.0 * t)
        T3 = -(2.0 * t / (m - n)) * integrate_mu(manifold, align * align * u)
    else:
        T3 = 0.0  # bakry_emery_tensor has checked that phi is constant

    T4 = monotonicity_bound(t, m, K)
    return WDecomposition(T1=float(T1), T2=float(T2), T3=float(T3), T4=float(T4))


def w_derivative_decomposition(manifold, state, m, K):
    """Evaluate the four terms of the dW/dt identity at a state."""
    return _w_decomposition(manifold, state, m, K, 1.0, 0.0)


@dataclass(frozen=True)
class EntropySeries:
    """Entropy functionals tabulated along a run of snapshots."""

    m: float
    K: float
    times: np.ndarray
    H: np.ndarray
    dH_dt: np.ndarray
    d2H_dt2: np.ndarray
    Phi: np.ndarray
    H_mK: np.ndarray
    W_mK: np.ndarray
    dW_dt_numeric: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    T3: np.ndarray
    T4: np.ndarray
    dW_dt_formula: np.ndarray
    residual: np.ndarray
    monotonicity_bound: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def build_series(manifold, snapshots, m, K, flow=None):
    """Assemble an :class:`EntropySeries` from heat-flow snapshots.

    With ``flow`` (a conformal flow over ``manifold``, such as
    :func:`wittenlab.ricciflow.make_flow` returns) every functional is
    taken in the flow metric at the snapshot's time; a static flow gives
    the fixed-metric series.

    The numeric dW/dt column is the centered (nonuniform) finite
    difference of W across neighboring snapshots; endpoints use one-sided
    differences.  The fields of each snapshot are shared with every other
    series and check through the cache of its :class:`HeatState`.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    m_terms = _m_terms(manifold, m)
    times = np.array([s.t for s in snapshots])
    H = np.empty_like(times)
    dH = np.empty_like(times)
    d2H = np.empty_like(times)
    W = np.empty_like(times)
    H_mK = np.empty_like(times)
    Phi = np.empty_like(times)
    T = np.empty((4, times.size))
    for i, s in enumerate(snapshots):
        scale, rate = (
            (1.0, 0.0)
            if flow is None
            else (flow.operator_scale(s.t), flow.log_factor_rate(s.t))
        )
        vals = _w_entropy(manifold, s, m, K, scale)
        H[i], dH[i] = vals["H"], vals["dH_dt"]
        H_mK[i], W[i] = vals["H_mK"], vals["W_mK"]
        Phi[i] = phi_mK(s.t, m, K)
        d2H[i] = _entropy_second_derivative(manifold, s, scale, rate)
        dec = _w_decomposition(manifold, s, m, K, scale, rate, m_terms)
        T[:, i] = (dec.T1, dec.T2, dec.T3, dec.T4)
    dW_num = np.gradient(W, times)
    formula = T.sum(axis=0)
    bound = np.array([monotonicity_bound(t, m, K) for t in times])
    return EntropySeries(
        m=float(m),
        K=float(K),
        times=times,
        H=H,
        dH_dt=dH,
        d2H_dt2=d2H,
        Phi=Phi,
        H_mK=H_mK,
        W_mK=W,
        dW_dt_numeric=dW_num,
        T1=T[0],
        T2=T[1],
        T3=T[2],
        T4=T[3],
        dW_dt_formula=formula,
        residual=dW_num - formula,
        monotonicity_bound=bound,
    )


def w_monotonicity_check(series, slack_rel=1e-9):
    """dW/dt (from the decomposition) <= bound + slack at every snapshot."""
    slack = slack_rel * (1.0 + np.abs(series.monotonicity_bound))
    return bool(np.all(series.dW_dt_formula <= series.monotonicity_bound + slack))


def tilde_w_comparison(m, K, t):
    """Difference of the two W-entropy normalizations, in closed form.

    Psi is the gap between the exponential and polynomial normalizations;
    d/dt (t Psi) is the exact offset between the two W-entropies, and the
    reported residual is d^2/dt^2 (t Psi) minus the decay-bound constant,
    which vanishes identically.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if K < 0.0:
        raise ValueError("K must be nonnegative")
    x = 4.0 * K * t
    E = _exp_series(x) if x > 0.0 else 0.0
    psi = 0.5 * m * E - 0.5 * m * K * t - m * K * K * t * t / 12.0
    d_dt_tpsi = 0.5 * m * (E + math.expm1(x)) - m * K * t - 0.25 * m * K * K * t * t
    d2_dt2_tpsi = (
        0.5 * m * (math.expm1(x) / t + 4.0 * K * math.exp(x))
        - m * K
        - 0.5 * m * K * K * t
    )
    residual = d2_dt2_tpsi - (-monotonicity_bound(t, m, K))
    return {"Psi": psi, "d_dt_tPsi": d_dt_tpsi, "identity_residual": residual}
