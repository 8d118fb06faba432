"""Independent reference implementations the tests compare the package against."""

import math

import numpy as np

from wittenlab.geometry import _m_equals_n, _smallest_eigenvalue_field, geodesic_distance
from wittenlab.harnack import IntegratedHarnackReport
from wittenlab.operators import (
    _grid_axes,
    bochner_residual,
    gradient,
    laplacian,
    mu_inner,
    random_band_limited,
    witten_laplacian,
)
from wittenlab.reports import SERIES_COLUMNS, _fmt, _grid_column, _header, _node_prefixes

EIGEN_TRUNCATE = 1e-16  # eigen_sum_circle drops modes with exp(-lam t) below it


def eigen_sum_circle(theta, t, L):
    """Circle kernel by Fourier eigen-expansion, modes cut below ``EIGEN_TRUNCATE``.

    Independent of the image-sum route of ``wittenlab.kernels``; used as an
    oracle against it.
    """
    if t <= 0.0:
        raise ValueError("kernel time must be positive")
    theta = np.asarray(theta, dtype=float)
    out = np.ones_like(theta)
    k = 0
    while True:
        k += 1
        lam = (2.0 * math.pi * k / L) ** 2
        amp = math.exp(-lam * t)
        if amp < EIGEN_TRUNCATE:
            break
        out = out + 2.0 * amp * np.cos(2.0 * math.pi * k * theta / L)
        if k > 100000:
            break
    return out / L


def witten_laplacian_drift_form(manifold, f):
    """Expanded form lap f - grad(phi).grad(f) of the drift Laplacian, which
    ``wittenlab.operators.witten_laplacian`` assembles in divergence form."""
    return laplacian(manifold, f) - np.einsum(
        "a...,a...->...", manifold.potential_gradient, gradient(manifold, f)
    )


def random_band_limited_loop(manifold, rng, max_mode=None, scale=1.0):
    """Mode-by-mode trigonometric sum that ``wittenlab.operators.random_band_limited``
    builds by one inverse FFT, with the same draws in the same order.

    Evaluates ``cos(k x)`` on the raw coordinates, so it agrees with the
    package only at period 2 pi; used as an oracle there.
    """
    if max_mode is None:
        max_mode = max(2, min(manifold.grid_sizes) // 8)
    out = np.zeros(manifold.shape)
    coords = manifold.coordinates()
    if manifold.dim_n == 1:
        x = coords[0]
        for k in range(1, max_mode + 1):
            a, b = rng.standard_normal(2)
            out += (a * np.cos(k * x) + b * np.sin(k * x)) / (1.0 + k)
    else:
        xs, ys = coords
        n_terms = 3 * max_mode
        kx = rng.integers(-max_mode, max_mode + 1, size=n_terms)
        ky = rng.integers(-max_mode, max_mode + 1, size=n_terms)
        for i in range(n_terms):
            if kx[i] == 0 and ky[i] == 0:
                continue
            a, b = rng.standard_normal(2)
            norm = 1.0 + math.hypot(kx[i], ky[i])
            phase = kx[i] * xs + ky[i] * ys
            out += (a * np.cos(phase) + b * np.sin(phase)) / norm
    return scale * out


def operators_selftest_loop(manifold, count, seed):
    """The operator self-test one field pair at a time, drawn ``f0, h0, f1,
    h1, ...``: the worst scaled Bochner residual and the worst relative
    adjointness gap that ``wittenlab.cli`` finds on stacked blocks."""
    rng = np.random.default_rng(seed)
    worst_res = 0.0
    worst_adj = 0.0
    for _ in range(count):
        f = random_band_limited(manifold, rng)
        h = random_band_limited(manifold, rng)
        res = bochner_residual(manifold, f)
        scale = 1.0 + float(np.abs(f).max())
        worst_res = max(worst_res, float(np.abs(res).max()) / scale)
        a = mu_inner(manifold, f, witten_laplacian(manifold, h))
        b = mu_inner(manifold, h, witten_laplacian(manifold, f))
        worst_adj = max(worst_adj, abs(a - b) / max(1.0, abs(a)))
    return worst_res, worst_adj


def geodesic_distance_meshgrid(manifold, y):
    """Distance field from node ``y`` on the grid-shaped coordinates of
    ``manifold.coordinates()``, each displacement folded into [-L/2, L/2):
    the field ``wittenlab.geometry.geodesic_distance`` builds from per-axis
    coordinates."""
    if manifold.dim_n == 1:
        x = manifold.axis_coordinates(0)
        L = manifold.circumferences[0]
        return np.abs((x - x[y[0]] + L / 2.0) % L - L / 2.0)
    xs, ys = manifold.coordinates()
    Lx, Ly = manifold.circumferences
    dx = (xs - xs[y] + Lx / 2.0) % Lx - Lx / 2.0
    dy = (ys - ys[y] + Ly / 2.0) % Ly - Ly / 2.0
    return np.sqrt(dx * dx + dy * dy)


def integrated_loop(snapshots, pairs, tau, T, m, K):
    """Integrated Harnack reports one node pair at a time, each distance
    read off the whole distance field from x: the per-pair route that
    ``wittenlab.harnack.integrated_harnack_checks`` takes in one pass."""
    s_tau, s_T = (next(s for s in snapshots if s.t == t) for t in (tau, T))
    M = s_tau.manifold
    return [
        IntegratedHarnackReport(
            x=x, y=y, tau=float(tau), T=float(T), m=float(m), K=float(K),
            distance=float(geodesic_distance(M, x)[y]),
            lhs=float(s_tau.u[x] / s_T.u[y]),
        )
        for x, y in pairs
    ]


def random_band_limited_rows(manifold, rng, max_mode=None, scale=1.0, size=None):
    """``wittenlab.operators.random_band_limited`` with one draw and one pair
    of ``np.add.at`` per row, where the package places all rows at once; the
    two must agree bit for bit and leave the generator at the same point."""
    if max_mode is None:
        max_mode = max(2, min(manifold.grid_sizes) // 8)
    stack = () if size is None else (size,)
    spectrum = np.zeros(stack + manifold.shape, dtype=complex)
    for row in spectrum.reshape((-1,) + manifold.shape):
        if manifold.dim_n == 1:
            modes = np.arange(1, max_mode + 1)[:, None]
        else:
            n_terms = 3 * max_mode
            kx = rng.integers(-max_mode, max_mode + 1, size=n_terms)
            ky = rng.integers(-max_mode, max_mode + 1, size=n_terms)
            modes = np.stack([kx, ky], axis=1)[(kx != 0) | (ky != 0)]
        a, b = rng.standard_normal((len(modes), 2)).T
        norm = 1.0 + np.sqrt(np.sum(modes * modes, axis=1))
        coef = (0.5 * math.prod(manifold.shape)) * (a - 1j * b) / norm
        np.add.at(row, tuple((modes % manifold.shape).T), coef)
        np.add.at(row, tuple((-modes % manifold.shape).T), coef.conj())
    return scale * np.fft.ifftn(spectrum, axes=_grid_axes(manifold)).real


def disk_weights_full_period(k, r):
    """``2 pi r J1(|k| r) / |k|`` by the trapezoid rule over the whole period
    on ``2 ceil(max |k| r) + 64`` nodes, one cosine per node: the rule that
    ``wittenlab.geometry._disk_weights`` takes on the symmetric quarter."""
    nodes = 2 * math.ceil(float(np.max(k)) * r) + 64
    a = np.arange(nodes) * (2.0 * np.pi / nodes)
    rule = np.sin(a) ** 2 * (2.0 * np.pi * r * r / nodes)
    return np.cos(np.multiply.outer(k * r, np.cos(a))) @ rule


def bakry_emery_uncached(manifold, m):
    """``(tensor, smallest eigenvalue field)`` of the Bakry-Emery tensor,
    built afresh on every call: what ``wittenlab.geometry`` keeps per m."""
    hess = manifold.potential_hessian
    if _m_equals_n(manifold, m) or math.isinf(m):
        tensor = hess
    else:
        grad = manifold.potential_gradient
        tensor = hess - np.einsum("a...,b...->ab...", grad, grad) / (m - manifold.dim_n)
    return tensor, _smallest_eigenvalue_field(tensor, manifold.dim_n)


def snapshots_csv_per_row(snapshots):
    """Snapshot CSV text joined row by row, each row ``t + prefix + "," + u``: the
    assembly that ``wittenlab.reports.snapshots_csv`` does in one join per
    snapshot."""
    manifold = snapshots[0].manifold
    cols = ["t", "node_index", *["x", "y"][: manifold.dim_n], "u"]
    prefixes = _node_prefixes(manifold.grid_sizes, manifold.circumferences)
    blocks = [_header("snapshots", cols)]
    for s in snapshots:
        t = _fmt(s.t) + ","
        u_text = _grid_column(manifold, s.u)
        blocks.append("\n".join(t + p + "," + u for p, u in zip(prefixes, u_text)) + "\n")
    return "".join(blocks)


def log_u_derivatives(state):
    """``(L u / u, grad u / u)`` from one ``witten_laplacian`` and one
    ``gradient`` call, each differentiating u on its own: the fields that
    ``HeatState.dt_log_u`` and ``grad_log_u`` build from one grad u."""
    M = state.manifold
    return witten_laplacian(M, state.u) / state.u, gradient(M, state.u) / state.u


# ------------------------------------------------------------ row formatter
# The per-value row formatter that wittenlab.reports replaced, kept as the
# reference for its text: every table must be exactly what it writes.


def reference_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_lines(rows):
    """One line of text per row, without its newline."""
    return [",".join(reference_fmt(v) for v in row) for row in rows]


def reference_table(kind, cols, rows):
    lines = [f"# wittenlab {kind} v1: " + ",".join(cols), ",".join(cols)]
    lines.extend(reference_lines(rows))
    return "\n".join(lines) + "\n"


def reference_node_rows(manifold, values):
    coords = manifold.coordinates()
    for flat, idx in enumerate(np.ndindex(*manifold.shape)):
        yield (flat, *(coords[a][idx] for a in range(manifold.dim_n)), values[idx])


def reference_names(manifold):
    return ["x", "y"][: manifold.dim_n]


def reference_node(index):
    return "/".join(str(i) for i in index)


def reference_series_rows(series, flow_margin=None):
    """One row (t, series columns..., [flow_margin]) per time of ``series``."""
    columns = [series.times, *(getattr(series, c) for c in SERIES_COLUMNS)]
    if flow_margin is not None:
        columns.append(flow_margin)
    return zip(*columns)


REFERENCE = {
    "field": lambda M, reps, name: reference_table(
        "field",
        ["t", "m", "node_index", *reference_names(M), name],
        ((r.t, r.m, *row) for r in reps for row in reference_node_rows(M, r.defect)),
    ),
    "curvature": lambda M, fields: reference_table(
        "curvature",
        ["m", "node_index", *reference_names(M), "ric_mn_value"],
        ((cf.m, *row) for cf in fields for row in reference_node_rows(M, cf.values)),
    ),
    "snapshots": lambda M, snaps: reference_table(
        "snapshots",
        ["t", "node_index", *reference_names(M), "u"],
        ((s.t, *row) for s in snaps for row in reference_node_rows(M, s.u)),
    ),
    "harnack": lambda reps: reference_table(
        "harnack",
        ["inequality", "t", "m", "K", "min_defect", "argmin_node", "tol", "ok"],
        (
            (r.inequality, r.t, r.m, r.K, r.min_defect, reference_node(r.argmin_node),
             r.tol, r.ok)
            for r in reps
        ),
    ),
    "integrated": lambda reps: reference_table(
        "integrated-harnack",
        ["x", "y", "tau", "T", "m", "K", "distance", "lhs", "rhs", "ok"],
        (
            (reference_node(r.x), reference_node(r.y), r.tau, r.T, r.m, r.K,
             r.distance, r.lhs, r.rhs, r.ok)
            for r in reps
        ),
    ),
    "flow_margin": lambda reps: reference_table(
        "flow-margin",
        ["t", "m", "K", "min_margin", "ok"],
        ((r.t, r.m, r.K, r.min_defect, r.ok) for r in reps),
    ),
    "manifest": lambda rows: reference_table(
        "evolution-manifest",
        ["t", "dt", "error_estimate"],
        ((r[c] for c in ("t", "dt", "error_estimate")) for r in rows),
    ),
}


def reference_entropy_series(series, flow_margins=None):
    cols = ["m", "t", *SERIES_COLUMNS]
    if flow_margins is not None:
        cols.append("flow_margin")
    margins = flow_margins if flow_margins is not None else [None] * len(series)
    rows = (
        (s.m, *row)
        for s, margin in zip(series, margins)
        for row in reference_series_rows(s, margin)
    )
    return reference_table("entropy-series", cols, rows)
