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

Each functional takes heat-flow states and reads their manifold and
cached fields.  One private core evaluates them on a fixed metric and
along the space-constant conformal flows of :mod:`wittenlab.ricciflow`,
on states of the flow's base.  Along such a flow L(t) = scale * L_base
with scale = e^{-2 lam(t)}, and the curvature term (1/2) dg/dt adds
rate = lam'(t) times the metric; the Bakry-Emery tensor of the base does
not depend on t.  A fixed metric is scale = 1, rate = 0, and the public
functions below are that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import _m_equals_n, bakry_emery_tensor
from .operators import integrate_mu

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

SERIES_RTOL = 1e-17  # remainder bound of the normalization series
MONOTONICITY_SLACK_REL = 1e-9


def _exp_series(x):
    """sum_{j>=1} x^j / (j * j!) with a remainder bound below ``SERIES_RTOL``.

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
        if j > x and add <= SERIES_RTOL * (1.0 + s):
            break
        if j > 10000:
            raise RuntimeError("entropy normalization series failed to converge")
    return s


def _check_t_K(t, K):
    """The domain of the normalizations: t > 0 and K >= 0."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if K < 0.0:
        raise ValueError("K must be nonnegative")


def phi_mK(t, m, K):
    """Time normalization with derivative (m/2t) e^{4Kt}.

    Equals (m/2)(log(4 pi t) + 1) at K = 0; the K-dependence enters
    through the entire series sum_{j>=1} (4Kt)^j / (j * j!).
    """
    _check_t_K(t, K)
    base = 0.5 * m * (math.log(4.0 * math.pi * t) + 1.0)
    if K == 0.0:
        return base
    return base + 0.5 * m * _exp_series(4.0 * K * t)


def phi_mK_prime(t, m, K):
    _check_t_K(t, K)
    return (m / (2.0 * t)) * math.exp(4.0 * K * t)


def monotonicity_bound(t, m, K):
    """-(m/2t) [e^{4Kt}(1 + 4Kt) - (1 + Kt)^2], the W-entropy decay bound."""
    return -(m / (2.0 * t)) * (
        math.exp(4.0 * K * t) * (1.0 + 4.0 * K * t) - (1.0 + K * t) ** 2
    )


def _entropy_H(state, scale):
    H, dH = state.entropy_pair
    return H, scale * dH


def entropy_H(state):
    """Boltzmann entropy and its dissipation rate.

    Returns (H, dH_dt) with H = -int u log u dmu and
    dH_dt = int |grad log u|^2 u dmu, both by grid quadrature.
    """
    return _entropy_H(state, 1.0)


def _entropy_second_derivative(state, scale, rate):
    G = state.log_u_gradient
    quad = scale * scale * state.log_u_gamma2 + rate * scale * np.einsum(
        "a...,a...->...", G, G
    )
    return -2.0 * integrate_mu(state.manifold, quad * state.u)


def entropy_second_derivative(state):
    """-2 int Gamma2(grad log u, grad log u) u dmu."""
    return _entropy_second_derivative(state, 1.0, 0.0)


def _normalized_entropy(state, m, K, scale, normalization, derivative):
    """``(H, dH/dt, Phi, H - Phi, W)`` at the state's time t for the
    normalization ``Phi = normalization(t, m, K)``, with
    W = H - Phi + t (dH/dt - derivative(t, m, K)); m must pass the m rule."""
    _m_equals_n(state.manifold, m)
    t = state.t
    H, dH = _entropy_H(state, scale)
    Phi = normalization(t, m, K)
    return H, dH, Phi, H - Phi, H - Phi + t * (dH - derivative(t, m, K))


def _w_entropy(state, m, K, scale):
    H, dH, _, H_mK, W_mK = _normalized_entropy(state, m, K, scale, phi_mK, phi_mK_prime)
    return {"H": H, "dH_dt": dH, "H_mK": H_mK, "W_mK": W_mK}


def w_entropy(state, m, K):
    """Corrected entropy H_mK and the W-entropy at the state's time.

    W is computed by the product rule, W = H_mK + t (dH/dt - Phi'),
    with the dissipation-rate quadrature supplying dH/dt.
    """
    return _w_entropy(state, m, K, 1.0)


def _tilde_normalization(t, m, K):
    return 0.5 * m * (1.0 + math.log(4.0 * math.pi * t)) + 0.5 * m * K * t * (
        1.0 + K * t / 6.0
    )


def _tilde_normalization_prime(t, m, K):
    return 0.5 * m / t + 0.5 * m * K * (1.0 + K * t / 3.0)


def tilde_w_entropy(state, m, K):
    """W-entropy under the polynomial-in-t normalization (the older form)."""
    H, dH, _, H_t, W_t = _normalized_entropy(
        state, m, K, 1.0, _tilde_normalization, _tilde_normalization_prime
    )
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


def _w_decomposition(state, m, K, scale, rate):
    """Four terms of dW/dt with norms taken in the metric g = g_base / scale.

    The Hessian of log u is completed by c g, whose base components are
    c / scale; the curvature quadratic carries rate + K in front of g.
    """
    manifold = state.manifold
    ric = bakry_emery_tensor(manifold, m)
    n = manifold.dim_n
    t = state.t
    if t <= 0.0:
        raise ValueError("state time must be positive")
    u = state.u
    H = state.log_u_hessian
    G = state.log_u_gradient
    c = 0.5 * K + 0.5 / t

    completed = H + (c / scale) * np.eye(n).reshape((n, n) + (1,) * n)
    T1 = -2.0 * t * (scale * scale) * integrate_mu(
        manifold, np.einsum("ab...,ab...->...", completed, completed) * u
    )

    quad = scale * scale * np.einsum("ab...,a...,b...->...", ric, G, G) + (
        rate + K
    ) * scale * np.einsum("a...,a...->...", G, G)
    T2 = -2.0 * t * integrate_mu(manifold, quad * u)

    if _m_equals_n(manifold, m):
        T3 = 0.0  # phi is constant, so the drift vanishes
    else:
        drift = np.einsum("a...,a...->...", manifold.potential_gradient, G)
        align = scale * drift - (m - n) * (1.0 + K * t) / (2.0 * t)
        T3 = -(2.0 * t / (m - n)) * integrate_mu(manifold, align * align * u)

    T4 = monotonicity_bound(t, m, K)
    return WDecomposition(T1=float(T1), T2=float(T2), T3=float(T3), T4=float(T4))


def w_derivative_decomposition(state, m, K):
    """Evaluate the four terms of the dW/dt identity at a state."""
    return _w_decomposition(state, m, K, 1.0, 0.0)


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


def build_series(snapshots, m, K, flow=None):
    """Assemble an :class:`EntropySeries` from heat-flow snapshots.

    With ``flow`` (a conformal flow over the snapshots' manifold, such as
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
        H[i], dH[i], Phi[i], H_mK[i], W[i] = _normalized_entropy(
            s, m, K, scale, phi_mK, phi_mK_prime
        )
        d2H[i] = _entropy_second_derivative(s, scale, rate)
        dec = _w_decomposition(s, m, K, scale, rate)
        T[:, i] = (dec.T1, dec.T2, dec.T3, dec.T4)
    dW_num = np.gradient(W, times)
    formula = T.sum(axis=0)
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
        monotonicity_bound=T[3],  # T4 is the bound
    )


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
    """
    _check_t_K(t, K)
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
