"""Discrete weighted manifolds on periodic grids.

A model is a flat circle or flat 2-torus sampled on a uniform periodic
grid, together with a potential ``phi`` that weights the volume measure
as ``exp(-phi) dv``.  All curvature variety enters through ``phi``: the
base metric is flat, so the Bakry-Emery tensor reduces to

    Ric_mn = hess(phi) - grad(phi) x grad(phi) / (m - n)

for the dimension parameter ``m > n`` (and to ``hess(phi)`` when the
rank-one term is switched off, the infinite-dimensional tensor), in
either case pointwise arithmetic on the manifold's cached derivatives.

Uniform periodic grids make the trapezoid rule spectrally accurate and
Fourier differentiation exact on band-limited fields, which keeps
discretization error out of the inequality checks built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

__all__ = [
    "WeightedManifold",
    "CurvatureField",
    "BallRatioReport",
    "build_manifold",
    "circle",
    "flat_torus",
    "ricci_bakry_emery",
    "bakry_emery_tensor",
    "ball_volume_ratio_check",
    "geodesic_distance",
]

MIN_GRID = 16

# m values closer to n than this are treated as m == n, where the
# rank-one term is only defined for constant potentials.
M_EQUALS_N_TOL = 1e-12


@dataclass(frozen=True)
class WeightedManifold:
    """Flat periodic grid with a weighted volume measure.

    Attributes
    ----------
    model : str
        ``"circle"`` or ``"flat_torus_2d"``.
    grid_sizes : tuple of int
        Nodes per dimension; even and at least 16 (Fourier differentiation).
    circumferences : tuple of float
        Coordinate period per dimension.
    potential : ndarray
        Per-node potential ``phi``.
    measure_weights : ndarray
        Per-node weight ``exp(-phi) * cell_volume`` realizing the measure.
    dim_n : int
        Topological dimension (1 or 2).

    Data derived from the potential and the grid (``density``,
    ``sqrt_density``, ``potential_gradient``, ``potential_hessian`` and
    the real-FFT spectral symbols) is computed on first use and cached on
    the instance as read-only arrays, so operator applies, implicit solves
    and curvature tensors do not recompute it.
    """

    model: str
    grid_sizes: tuple
    circumferences: tuple
    potential: np.ndarray
    measure_weights: np.ndarray
    dim_n: int

    def __post_init__(self):
        for a in (self.potential, self.measure_weights):
            a.setflags(write=False)

    @property
    def shape(self):
        return self.grid_sizes

    @property
    def spacings(self):
        return tuple(L / n for L, n in zip(self.circumferences, self.grid_sizes))

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    @property
    def mu_total(self):
        """Total measure of the model."""
        return float(self.measure_weights.sum())

    def axis_coordinates(self, axis):
        n = self.grid_sizes[axis]
        return np.arange(n) * (self.circumferences[axis] / n)

    def coordinates(self):
        """Per-axis coordinate arrays broadcast to the grid shape."""
        axes = [self.axis_coordinates(a) for a in range(self.dim_n)]
        if self.dim_n == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def wavenumbers(self, axis):
        """Physical Fourier wavenumbers along one axis."""
        n = self.grid_sizes[axis]
        L = self.circumferences[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)

    def injectivity_scale(self):
        return min(self.circumferences) / 2.0

    @cached_property
    def density(self):
        """exp(-phi) per node, the weight of the divergence-form operator."""
        return _read_only(np.exp(-self.potential))

    @cached_property
    def sqrt_density(self):
        """exp(-phi/2) per node, the similarity that symmetrizes the operator."""
        return _read_only(np.exp(-0.5 * self.potential))

    @cached_property
    def potential_gradient(self):
        """Spectral grad(phi), shape (n, *grid)."""
        return _read_only(_gradient(self, self.potential))

    @cached_property
    def potential_hessian(self):
        """Spectral hess(phi), shape (n, n, *grid)."""
        return _read_only(_hessian(self, self.potential))

    @cached_property
    def _derivative_symbols(self):
        """Per axis, the first and second derivative symbols on the half
        spectrum of a 1-D ``rfft`` along that axis, shaped to broadcast."""
        symbols = []
        for a in range(self.dim_n):
            n = self.grid_sizes[a]
            k = self.wavenumbers(a)[: n // 2 + 1]
            first = 1j * k
            first[n // 2] = 0.0  # unpaired Nyquist mode has no odd derivative
            shape = [1] * self.dim_n
            shape[a] = n // 2 + 1
            symbols.append(
                (_read_only(first.reshape(shape)), _read_only(-(k * k).reshape(shape)))
            )
        return tuple(symbols)

    @cached_property
    def _rfftn_wavenumber_square(self):
        """|k|^2 on the half spectrum of ``rfftn``: the full grid's last
        axis up to its Nyquist index, where |k| is the same at +-N/2."""
        half = self.grid_sizes[-1] // 2 + 1
        return _read_only(_wavenumber_square(self)[..., :half].copy())


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CurvatureField:
    """Pointwise smallest eigenvalue of the Bakry-Emery tensor.

    ``admissible_K`` is the smallest constant K >= 0 with
    Ric_mn >= -K everywhere on the grid.
    """

    m: float
    values: np.ndarray
    min_value: float
    admissible_K: float

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class BallRatioReport:
    center: tuple
    r: float
    R: float
    m: float
    K: float
    ratio: float
    bound: float
    tol: float
    ok: bool


def _periodic_diff(x, L):
    """Signed displacement folded into [-L/2, L/2)."""
    return (x + L / 2.0) % L - L / 2.0


def _potential_from_spec(model, shape, coords, spec):
    if not isinstance(spec, dict) or not isinstance(spec.get("params") or {}, dict):
        raise ValueError("potential and its params must be mappings")
    family = spec.get("family", "zero")
    params = spec.get("params", {}) or {}
    if family == "zero":
        return np.zeros(shape)
    if family == "cosine":
        a = float(params.get("a", 1.0))
        k = int(params.get("k", 1))
        return a * np.cos(k * coords[0])
    if family == "cosine_sine":
        if model != "flat_torus_2d":
            raise ValueError("potential family 'cosine_sine' needs a 2-d model")
        a = float(params.get("a", 1.0))
        k = int(params.get("k", 1))
        b = float(params.get("b", 1.0))
        l = int(params.get("l", 1))
        return a * np.cos(k * coords[0]) + b * np.sin(l * coords[1])
    if family == "samples":
        samples = np.asarray(spec.get("samples"), dtype=float)
        if samples.shape != shape:
            raise ValueError(
                f"sampled potential has shape {samples.shape}, grid is {shape}"
            )
        return samples.copy()
    raise ValueError(f"unknown potential family {family!r}")


def build_manifold(config):
    """Construct a :class:`WeightedManifold` from a config mapping.

    Recognized keys: ``model`` (circle | flat_torus_2d), ``grid`` (int or
    list of ints), ``period`` (float or list), ``potential`` (mapping with
    ``family``, ``params`` and, for the sampled family, ``samples``).
    """
    model = config.get("model")
    if model not in ("circle", "flat_torus_2d"):
        raise ValueError(f"unsupported model {model!r}")
    dim = 1 if model == "circle" else 2

    grid = config.get("grid")
    if isinstance(grid, (int, np.integer)):
        grid = (int(grid),) * dim
    else:
        grid = tuple(int(g) for g in grid)
    if len(grid) != dim:
        raise ValueError(f"model {model} needs {dim} grid size(s), got {grid}")
    for n in grid:
        if n < MIN_GRID or n % 2 != 0:
            raise ValueError(f"grid sizes must be even and >= {MIN_GRID}, got {n}")

    period = config.get("period", 2.0 * np.pi)
    if isinstance(period, (int, float, np.floating)):
        period = (float(period),) * dim
    else:
        period = tuple(float(p) for p in period)
    if len(period) != dim:
        raise ValueError(f"model {model} needs {dim} period(s), got {period}")
    for L in period:
        if not (L > 0.0) or not math.isfinite(L):
            raise ValueError(f"circumferences must be positive, got {L}")

    shape = grid
    # coordinates broadcast to grid shape
    axes = [np.arange(n) * (L / n) for n, L in zip(grid, period)]
    coords = (axes[0],) if dim == 1 else tuple(np.meshgrid(*axes, indexing="ij"))

    phi = _potential_from_spec(model, shape, coords, config.get("potential", {}) or {})
    if not np.all(np.isfinite(phi)):
        raise ValueError("potential contains non-finite values")

    cell = math.prod(L / n for n, L in zip(grid, period))
    weights = np.exp(-phi) * cell
    if not np.all(weights > 0.0):
        raise ValueError("measure weights must be positive")

    return WeightedManifold(
        model=model,
        grid_sizes=grid,
        circumferences=period,
        potential=phi,
        measure_weights=weights,
        dim_n=dim,
    )


def circle(n=256, circumference=2.0 * np.pi, potential=None):
    """Convenience constructor for the weighted circle."""
    return build_manifold(
        {
            "model": "circle",
            "grid": n,
            "period": circumference,
            "potential": potential or {"family": "zero"},
        }
    )


def flat_torus(n=64, periods=(2.0 * np.pi, 2.0 * np.pi), potential=None):
    """Convenience constructor for the weighted flat 2-torus."""
    return build_manifold(
        {
            "model": "flat_torus_2d",
            "grid": (n, n) if isinstance(n, int) else n,
            "period": periods,
            "potential": potential or {"family": "zero"},
        }
    )


def geodesic_distance(manifold, y):
    """Geodesic distance field from node ``y`` on the flat model.

    On the circle this is the shorter arc; on the torus the minimum over
    lattice translates of the Euclidean distance.
    """
    y = _as_index(manifold, y)
    if manifold.dim_n == 1:
        x = manifold.axis_coordinates(0)
        L = manifold.circumferences[0]
        return np.abs(_periodic_diff(x - x[y[0]], L))
    xs, ys = manifold.coordinates()
    Lx, Ly = manifold.circumferences
    dx = _periodic_diff(xs - xs[y], Lx)
    dy = _periodic_diff(ys - ys[y], Ly)
    return np.sqrt(dx * dx + dy * dy)


def _as_index(manifold, node):
    if isinstance(node, (int, np.integer)):
        idx = (int(node),) if manifold.dim_n == 1 else None
        if idx is None:
            raise ValueError("torus nodes are (i, j) index pairs")
        return idx
    idx = tuple(int(i) for i in node)
    if len(idx) != manifold.dim_n:
        raise ValueError(f"node index {node} does not match dimension {manifold.dim_n}")
    return idx


def _axis_derivative(manifold, f, axis, order=1):
    """Spectral derivative of ``order`` (1 or 2) along one axis, by real FFT."""
    if order not in (1, 2):
        raise ValueError(f"spectral derivative order must be 1 or 2, got {order}")
    sym = manifold._derivative_symbols[axis][order - 1]
    n = manifold.grid_sizes[axis]
    return np.fft.irfft(sym * np.fft.rfft(f, axis=axis), n, axis=axis)


def _gradient(manifold, f):
    """Spectral gradient, shape (n, *grid)."""
    return np.stack([_axis_derivative(manifold, f, a, 1) for a in range(manifold.dim_n)])


def _hessian(manifold, f):
    """Spectral Hessian, shape (n, n, *grid); symmetric by construction."""
    n = manifold.dim_n
    out = np.empty((n, n) + manifold.shape)
    grad = _gradient(manifold, f)
    for a in range(n):
        out[a, a] = _axis_derivative(manifold, f, a, 2)
        for b in range(a + 1, n):
            out[a, b] = _axis_derivative(manifold, grad[a], b, 1)
            out[b, a] = out[a, b]
    return out


def _wavenumber_square(manifold):
    """|k|^2 on the full Fourier grid."""
    sym = np.zeros(manifold.shape)
    for a in range(manifold.dim_n):
        k = manifold.wavenumbers(a)
        shape = [1] * manifold.dim_n
        shape[a] = manifold.grid_sizes[a]
        sym = sym + (k ** 2).reshape(shape)
    return sym


def _constant_potential(manifold):
    """True when phi is constant up to rounding relative to its size."""
    phi = manifold.potential
    return float(np.ptp(phi)) <= 1e-13 * (1.0 + float(np.abs(phi).max()))


def _m_equals_n(manifold, m):
    """Whether m == n within ``M_EQUALS_N_TOL``; raises for m below n."""
    n = manifold.dim_n
    if m < n - M_EQUALS_N_TOL:
        raise ValueError(f"dimension parameter m={m} below topological dimension n={n}")
    return m - n < M_EQUALS_N_TOL


def bakry_emery_tensor(manifold, m):
    """Per-node Bakry-Emery tensor as an (n, n, *grid) array.

    For finite ``m > n`` this is hess(phi) - grad(phi) x grad(phi)/(m-n);
    ``m = inf`` drops the rank-one term.  The flat base metric contributes
    no Ricci term.  For ``m = inf`` and ``m == n`` the result is the
    manifold's read-only ``potential_hessian``.
    """
    hess = manifold.potential_hessian
    if _m_equals_n(manifold, m):
        if not _constant_potential(manifold):
            raise ValueError("m == n requires a constant potential")
        return hess  # gradient vanishes, rank-one term is zero
    if math.isinf(m):
        return hess
    grad = manifold.potential_gradient
    rank_one = np.einsum("a...,b...->ab...", grad, grad) / (m - manifold.dim_n)
    return hess - rank_one


def _smallest_eigenvalue_field(tensor, n):
    if n == 1:
        return tensor[0, 0].copy()
    # symmetric 2x2 closed form
    a = tensor[0, 0]
    b = tensor[0, 1]
    d = tensor[1, 1]
    half_tr = 0.5 * (a + d)
    disc = np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return half_tr - disc


def ricci_bakry_emery(manifold, m):
    """Pointwise smallest eigenvalue of the Bakry-Emery tensor.

    Returns a :class:`CurvatureField`; its ``admissible_K`` is the
    curvature constant used by the Harnack and entropy checks.
    """
    tensor = bakry_emery_tensor(manifold, m)
    values = _smallest_eigenvalue_field(tensor, manifold.dim_n)
    min_value = float(values.min())
    return CurvatureField(
        m=float(m),
        values=values,
        min_value=min_value,
        admissible_K=max(0.0, -min_value),
    )


def _refined_density(manifold, refine=8):
    """exp(-phi) Fourier-interpolated onto a ``refine`` x finer grid."""
    shape = manifold.shape
    fh_shift = np.fft.fftshift(np.fft.fftn(manifold.density))
    pads = tuple(((refine - 1) * s // 2,) * 2 for s in shape)
    fh_fine = np.fft.ifftshift(np.pad(fh_shift, pads))
    scale = refine ** manifold.dim_n
    return np.real(np.fft.ifftn(fh_fine)) * scale


def _ball_measure(manifold, y, radius, refined, refine=8):
    """Measure of the geodesic ball by quadrature on the refined grid."""
    y = _as_index(manifold, y)
    if manifold.dim_n == 1:
        (n,) = manifold.shape
        L = manifold.circumferences[0]
        nodes, gl_w = np.polynomial.legendre.leggauss(96)
        s = radius * nodes  # arc parameter in [-r, r]
        pts = (manifold.axis_coordinates(0)[y[0]] + s) % L
        fine = refined
        coords = pts / (L / (refine * n))
        vals = ndimage.map_coordinates(fine, coords[None, :], order=3, mode="grid-wrap")
        return float(np.sum(vals * gl_w) * radius)
    Lx, Ly = manifold.circumferences
    nx, ny = manifold.shape
    xs0 = manifold.axis_coordinates(0)[y[0]]
    ys0 = manifold.axis_coordinates(1)[y[1]]
    rad_nodes, rad_w = np.polynomial.legendre.leggauss(64)
    s = 0.5 * radius * (rad_nodes + 1.0)  # [0, r]
    sw = 0.5 * radius * rad_w
    ntheta = 256
    theta = np.arange(ntheta) * (2.0 * np.pi / ntheta)
    px = (xs0 + s[:, None] * np.cos(theta)[None, :]) % Lx
    py = (ys0 + s[:, None] * np.sin(theta)[None, :]) % Ly
    cx = px / (Lx / (refine * nx))
    cy = py / (Ly / (refine * ny))
    vals = ndimage.map_coordinates(
        refined, np.stack([cx.ravel(), cy.ravel()]), order=3, mode="grid-wrap"
    ).reshape(px.shape)
    ring = vals.sum(axis=1) * (2.0 * np.pi / ntheta)
    return float(np.sum(ring * s * sw))


def ball_volume_ratio_check(manifold, m, K, y, r, R, tol=1e-6):
    """Weighted volume-doubling check against the comparison bound.

    The ratio mu(B(y, R)) / mu(B(y, r)) is measured by quadrature and set
    against (R/r)^m * exp(sqrt((m-1) K) * R).
    """
    if not (0.0 < r < R):
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    if R > manifold.injectivity_scale() + 1e-12:
        raise ValueError(
            f"R={R} exceeds the injectivity scale {manifold.injectivity_scale()}"
        )
    if K < 0.0:
        raise ValueError("curvature constant K must be nonnegative")
    _m_equals_n(manifold, m)
    refined = _refined_density(manifold)
    big = _ball_measure(manifold, y, R, refined)
    small = _ball_measure(manifold, y, r, refined)
    ratio = big / small
    bound = (R / r) ** m * math.exp(math.sqrt((m - 1.0) * K) * R)
    return BallRatioReport(
        center=_as_index(manifold, y),
        r=float(r),
        R=float(R),
        m=float(m),
        K=float(K),
        ratio=float(ratio),
        bound=float(bound),
        tol=float(tol),
        ok=bool(ratio <= bound * (1.0 + tol)),
    )
