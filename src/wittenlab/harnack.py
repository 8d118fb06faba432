"""Pointwise differential Harnack inequalities as defect fields.

Every check takes heat-flow states, reads their manifold and cached
``dt_log_u`` and ``grad_log_u``, and reports the defect RHS - LHS per
node, so nonnegative defect certifies the inequality on the grid.

Each pointwise bound is a row of one coefficient table, ``_TABLE``, with
a defect affine in the shared fields a = d/dt log u, b = |grad log u|^2
and l = log(A/u): D = beta + alpha a - gamma b + delta l, coefficients
functions of (t, m, K).  Hamilton's bound under CD(-K, m) has beta =
(m/2t) e^{4Kt}, alpha = e^{2Kt}, gamma = 1, and Li-Yau's is its K = 0
row; the kernel's lower bound on d/dt log u has beta = (m/2t) e^{2Kt},
alpha = 1; the sup-normalized bound has beta = m p, alpha = -1, gamma =
1, delta = 4 p with p = K/(1 - e^{-Kt}) (1/t at K = 0), and its variant
p = K + 1/t, which dominates it.  A row names the fields it reads and
forms its defect in its own arithmetic order (the sup bound's is
p (m + 4 l) - (a + b)).  One tolerance rule serves every row: its
relative tolerance (``KERNEL_BOUND_TOL_REL`` for the kernel bound,
``HARNACK_TOL_REL`` else) times beta, since defects grow like 1/t for
small times.

One block builder, ``_table_columns``, evaluates table rows at a list of
``(m, K)`` over the rows of a stack (see
:class:`wittenlab.heatflow.HeatState`) in one pass, a block of rows at a
time under the operators' element budget.  A block forms each shared
field once, and only if one of its rows reads it; the coefficients are
computed with ``math`` once per time and ``(m, K)`` and broadcast, so
every row's defect equals that of its state alone, bit for bit.
:func:`defect_columns`, :func:`kernel_bounds` and
:func:`sup_bound_defect` (whose variant is a row of its pass) go through
it after one domain rule, :func:`wittenlab.geometry._check_m_K_t`, once
per call and before any field is read.  Its core, ``_defect_columns``,
which also takes the margins of
:func:`wittenlab.ricciflow.margin_columns`, keeps fields, tolerances and
minima only, as a :class:`DefectColumns` per row and ``(m, K)``, whose
worst row is read in one place, :attr:`DefectColumns.worst`.

The integrated two-point bound is checked by
:func:`integrated_harnack_checks` over a list of node pairs in one pass:
the rows at ``tau`` and ``T`` are each the row nearest that time, which
must lie within ``1e-10 max(1, |t|)`` of it, and the pair distances
come from the two nodes' coordinates.  :func:`integrated_harnack_check`
is its one-pair wrapper.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import _as_index, _check_finite, _check_m_K_t, _check_time, _node_distances
from .geometry import geodesic_distance
from .heatflow import _as_stack, _by_row, _column
from .operators import _row_blocks

__all__ = [
    "DefectColumns",
    "DefectReport",
    "IntegratedHarnackReport",
    "KernelDtLogReport",
    "hamilton_harnack_defect",
    "li_yau_defect",
    "integrated_harnack_check",
    "integrated_harnack_checks",
    "sup_bound_defect",
    "kernel_dt_log_bounds",
    "defect_columns",
    "kernel_bounds",
]

HARNACK_TOL_REL = 1e-6  # of each bound's constant term, or of its right-hand side
KERNEL_BOUND_TOL_REL = 1e-9


@dataclass(frozen=True)
class DefectReport:
    """Read-only per-node ``defect`` of a pointwise inequality, which holds
    where it is nonnegative, with its minimum ``min_defect`` and the first
    minimum's node ``argmin_node``, as the columns of its check's pass give
    them (:meth:`DefectColumns.reports`); ``ok`` is derived."""

    inequality: str
    t: float
    m: float
    K: float
    defect: np.ndarray
    tol: float
    min_defect: float
    argmin_node: tuple
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.defect.setflags(write=False)

    @property
    def ok(self):
        return bool(self.min_defect >= -self.tol)


@dataclass(frozen=True, eq=False)
class DefectColumns:
    """A pointwise inequality at one ``m`` and ``K`` over the rows of a
    stack, read-only, a column per quantity: the row times ``t``,
    ``min_defect``, the flat grid index ``argmin`` of each row's first
    minimum and ``tol``, arrays over the rows; ``ok``, ``argmin_nodes``
    and the worst row are derived.  ``defect``, when the fields were kept,
    holds them as one ``(rows, *grid)`` array, else None."""

    inequality: str
    m: float
    K: float
    t: np.ndarray
    min_defect: np.ndarray
    argmin: np.ndarray
    tol: np.ndarray
    grid: tuple
    defect: np.ndarray = None

    def __post_init__(self):
        for column in (self.t, self.min_defect, self.argmin, self.tol, self.defect):
            if column is not None:
                column.setflags(write=False)

    @property
    def ok(self):
        return self.min_defect >= -self.tol

    @property
    def argmin_nodes(self):
        """Each row's first minimum node, as an index array per grid axis."""
        return np.unravel_index(self.argmin, self.grid)

    @property
    def worst(self):
        """The first row of least ``min_defect``, by ``np.argmin``: a NaN
        row is the worst.  Every verdict's worst value is read here."""
        return int(np.argmin(self.min_defect))

    @property
    def worst_defect(self):
        """``min_defect`` at the :attr:`worst` row."""
        return float(self.min_defect[self.worst])

    def reports(self):
        """A :class:`DefectReport` per row, from the kept fields."""
        return [
            DefectReport(self.inequality, t, self.m, self.K, d, tol, low, node)
            for t, d, tol, low, node in zip(
                self.t.tolist(), self.defect, self.tol.tolist(),
                self.min_defect.tolist(), zip(*self.argmin_nodes),
            )
        ]


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


def _defect_columns(inequality, times, grid, mKs, block, keep=False):
    """A :class:`DefectColumns` per case of ``mKs``, an ``(m, K)`` that may
    carry more items, over the rows at ``times`` of fields on ``grid``;
    ``inequality`` names every case, or is a list of one name per case.

    The rows are taken in blocks under the operators' element budget;
    ``block(rows, times)`` prepares one and returns ``at``, where
    ``at(*case)`` is the block's ``(rows, *grid)`` defect and a tolerance
    per row.  Each block's minima and first minimum nodes are one ``min``
    and one ``argmin`` over its flattened grid axes.  With ``keep`` the
    columns keep the fields.
    """
    names = [inequality] * len(mKs) if isinstance(inequality, str) else inequality
    count, size = len(times), math.prod(grid)
    low = np.empty((len(mKs), count))
    first = np.empty((len(mKs), count), dtype=np.intp)
    tol = np.empty((len(mKs), count))
    fields = np.empty((len(mKs), count, *grid)) if keep else [None] * len(mKs)
    for rows in _row_blocks(count, size):
        at = block(rows, times[rows])
        for i, case in enumerate(mKs):
            defect, tol[i, rows] = at(*case)
            flat = defect.reshape(len(defect), size)
            low[i, rows] = flat.min(axis=1)
            first[i, rows] = flat.argmin(axis=1)
            if keep:
                fields[i, rows] = defect
    t = np.array(times, dtype=float)
    return [
        DefectColumns(name, float(case[0]), float(case[1]), t, low[i], first[i], tol[i],
                      tuple(grid), f)
        for i, (name, case, f) in enumerate(zip(names, mKs, fields))
    ]


# A row of the coefficient table: coefficients(t, m, K) are its coefficients
# at one time, beta first, and defect(c, f, m) combines their columns c with
# the shared fields f that it reads
_Bound = namedtuple("_Bound", "tol_rel reads coefficients defect")


def _sup_bound(prefactor):
    """The sup bound's row for the prefactor ``p(t, K)``."""

    def coefficients(t, m, K):
        p = prefactor(t, K)
        return p * m, p

    return _Bound(HARNACK_TOL_REL, ("4l", "a+b"), coefficients,
                  lambda c, f, m: c[1] * (m + f["4l"]) - f["a+b"])


# The shared fields as the rows read them, from a block's rows of a state
_FIELDS = {
    "a": lambda s, rows, A: _by_row(s, s.dt_log_u)[rows],
    "b": lambda s, rows, A: _by_row(s, s.grad_log_u_sq)[rows],
    "4l": lambda s, rows, A: 4.0 * np.log(A / _by_row(s, s.u)[rows]),
    "a+b": lambda s, rows, A: _by_row(s, s.dt_log_u)[rows] + _by_row(s, s.grad_log_u_sq)[rows],
}

_TABLE = {
    "hamilton": _Bound(
        HARNACK_TOL_REL, ("a", "b"),
        lambda t, m, K: ((m / (2.0 * t)) * math.exp(4.0 * K * t), math.exp(2.0 * K * t)),
        lambda c, f, m: c[0] + c[1] * f["a"] - f["b"],
    ),
    "kernel_lower": _Bound(
        KERNEL_BOUND_TOL_REL, ("a",), lambda t, m, K: ((m / (2.0 * t)) * math.exp(2.0 * K * t),),
        lambda c, f, m: f["a"] + c[0],
    ),
    "sup_bound": _sup_bound(lambda t, K: 1.0 / t if K == 0.0 else K / (-math.expm1(-K * t))),
    "sup_bound_variant": _sup_bound(lambda t, K: K + 1.0 / t),
}
_TABLE["li_yau"] = _TABLE["hamilton"]  # at K = 0


def _table_columns(state, names, mKs, A=None, keep=False):
    """The :class:`DefectColumns` of each table row of ``names`` at each
    ``(m, K)`` of ``mKs``, row-major, in one pass over the rows of
    ``state``, whose domain the caller has checked.  ``A``, which the sup
    bound reads, must be a finite number of at least max u."""
    bounds = [_TABLE[name] for name in names]
    reads = {name for bound in bounds for name in bound.reads}
    if "4l" in reads:
        _check_finite("A", A)
        umax = float(state.u.max())
        if A < umax:
            raise ValueError(f"A={A} is below max u = {umax}; log(A/u) must be nonnegative")

    def block(rows, times):
        fields = {name: _FIELDS[name](state, rows, A) for name in reads}

        def at(m, K, bound):
            coefficients = [bound.coefficients(t, m, K) for t in times]
            columns = [_column(c, state) for c in zip(*coefficients)]
            return bound.defect(columns, fields, m), [bound.tol_rel * c[0] for c in coefficients]

        return at

    cases = [(m, K, bound) for bound in bounds for m, K in mKs]
    inequalities = [name for name in names for _ in mKs]
    return _defect_columns(inequalities, state.times, state.manifold.shape, cases, block, keep)


def defect_columns(state, inequality, mKs, A=None, keep=False):
    """The :class:`DefectColumns` of ``inequality`` at each ``(m, K)`` of
    ``mKs`` over the rows of ``state``, in one pass over its rows: the
    inequality's row of the coefficient table.

    ``inequality`` is ``"hamilton"``, ``"li_yau"`` (whose K must be 0) or
    ``"sup_bound"``, which takes ``A`` as :func:`sup_bound_defect` does.
    With ``keep`` the columns keep the defect fields.
    """
    if inequality not in ("hamilton", "li_yau", "sup_bound"):
        raise ValueError(f"no pointwise inequality named {inequality!r}")
    _check_m_K_t(state.manifold, mKs, state.times)
    for _, K in mKs:
        if inequality == "li_yau" and K != 0.0:
            raise ValueError(f"the Li-Yau bound has K = 0, got K={K!r}")
    return _table_columns(state, [inequality], mKs, A, keep)


def _one_m(state, reports):
    """``reports``, one per row: in a list for a stack, the one report of
    one state."""
    return reports if state.stacked else reports[0]


def hamilton_harnack_defect(state, m, K):
    """Defect of the dimension-full gradient bound with curvature factor.

    defect = (m/2t) e^{4Kt} + e^{2Kt} (Lu/u) - |grad u / u|^2, which is
    nonnegative for positive solutions whenever the Bakry-Emery tensor is
    bounded below by -K.  One report, or a list of one per row of a stack.
    """
    (columns,) = defect_columns(state, "hamilton", [(m, K)], keep=True)
    return _one_m(state, columns.reports())


def li_yau_defect(state, m):
    """Sharp-constant gradient bound; the K = 0 case of the Hamilton defect."""
    (columns,) = defect_columns(state, "li_yau", [(m, 0.0)], keep=True)
    return _one_m(state, columns.reports())


def _row_at(state, t):
    """The row of the stack ``state`` nearest to time ``t``, which must lie
    within ``1e-10 max(1, |t|)`` of it."""
    times = np.array(state.times)
    row = int(np.argmin(np.abs(times - t)))
    if not abs(times[row] - t) <= 1e-10 * max(1.0, abs(t)):
        raise ValueError(f"no snapshot at t={t}")
    return row


def integrated_harnack_checks(snapshots, xs, ys, tau, T, m, K):
    """Integrated comparison of each node pair ``(xs[i], ys[i])``, in order.

    ``snapshots`` is a stack or a list of states.  One
    :class:`IntegratedHarnackReport` per pair; the rows at ``tau`` and
    ``T`` are found once, each the row nearest its time, and the pair
    distances and ratios lhs = u(x, tau) / u(y, T) are taken together over
    the pairs.
    """
    tau, T = _check_time("tau", tau), _check_time("T", T)
    if not tau < T:
        raise ValueError(f"need 0 < tau < T, got tau={tau}, T={T}")
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x nodes against {len(ys)} y nodes")
    state = _as_stack(snapshots)
    u_tau = state.u[_row_at(state, tau)]
    u_T = state.u[_row_at(state, T)]
    manifold = state.manifold
    _check_m_K_t(manifold, [(m, K)])
    xs = [_as_index(manifold, x) for x in xs]
    ys = [_as_index(manifold, y) for y in ys]
    # one index array per axis; shape (dim_n, 0) when there are no pairs
    x_axes = tuple(np.array(xs, dtype=np.intp).reshape(-1, manifold.dim_n).T)
    y_axes = tuple(np.array(ys, dtype=np.intp).reshape(-1, manifold.dim_n).T)
    distances = _node_distances(manifold, x_axes, y_axes).tolist()
    ratios = (u_tau[x_axes] / u_T[y_axes]).tolist()
    return [
        IntegratedHarnackReport(x=x, y=y, tau=tau, T=T, m=float(m), K=float(K), distance=d, lhs=r)
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
    list of one per row of a stack; each carries ``A`` and the variant
    field, (K + 1/t)(m + 4 log(A/u)) - (Lu/u + |grad log u|^2), in
    ``extra``.
    """
    _check_m_K_t(state.manifold, [(m, K)], state.times)
    columns, variant = _table_columns(
        state, ["sup_bound", "sup_bound_variant"], [(m, K)], A=A, keep=True
    )
    return _one_m(state, [
        replace(r, extra={"A": float(A), "defect_variant": v})
        for r, v in zip(columns.reports(), variant.defect)
    ])


def _kernel_source(state):
    """The kernel that every row of ``state`` comes from; a row with no
    kernel, or with another source than row 0's, raises ``ValueError``."""
    src = state.kernels[0]
    for row, (t, kernel) in enumerate(zip(state.times, state.kernels)):
        if kernel is None:
            raise ValueError(
                f"row {row} (t={t}) has no kernel: snapshots must come from a "
                "kernel-initialized run"
            )
        if kernel.x0 != src.x0:
            raise ValueError(
                f"row {row} (t={t}) comes from x0={kernel.x0}, row 0 from x0={src.x0}: "
                "the snapshots must share one source"
            )
    return src


def kernel_dt_log_bounds(snapshots, m, K):
    """Lower bound -(m/2t) e^{2Kt} on d/dt log u for kernel runs.

    Also fits the smallest constant C with
    d/dt log u <= C (1 + 1/sqrt(t) + d(x, x0)/t)^2 over the run; the
    constant is a shape diagnostic whose stability under grid refinement
    is checked by the callers, not an asserted bound.  ``snapshots`` is a
    list of states or a stack, every row of which must come from one
    kernel-initialized run: a row with no kernel or another source raises
    ``ValueError``.
    """
    (report,) = kernel_bounds(snapshots, [(m, K)])
    return report


def kernel_bounds(snapshots, mKs):
    """The :func:`kernel_dt_log_bounds` report of each ``(m, K)`` of
    ``mKs``: the margins are the table's ``kernel_lower`` row, and the
    fitted constant, which no m changes, is fitted once per block of rows."""
    state = _as_stack(snapshots)
    manifold = state.manifold
    _check_m_K_t(manifold, mKs, state.times)
    dist = geodesic_distance(manifold, _kernel_source(state).x0)
    columns = _table_columns(state, ["kernel_lower"], mKs)
    dt_log_u = _by_row(state, state.dt_log_u)
    fits = np.empty(len(state.times))
    for rows in _row_blocks(len(state.times), dist.size):
        times = state.times[rows]
        shape = (
            _column([1.0 + 1.0 / math.sqrt(t) for t in times], state)
            + dist / _column(times, state)
        ) ** 2
        fits[rows] = (dt_log_u[rows] / shape).max(axis=tuple(range(1, manifold.dim_n + 1)))
    fitted = float(np.maximum(fits.max(), 0.0))  # at least 0; a NaN fit stays NaN
    return [
        KernelDtLogReport(
            m=c.m, K=c.K, times=tuple(state.times), min_margin=c.worst_defect,
            ok=bool(c.ok.all()), fitted_upper_constant=fitted,
        )
        for c in columns
    ]
