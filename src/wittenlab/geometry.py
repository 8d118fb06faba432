"""Discrete weighted manifolds on periodic grids.

A model is a flat circle or flat 2-torus sampled on a uniform periodic
grid, together with a potential ``phi`` that weights the volume measure
as ``exp(-phi) dv``.  All curvature variety enters through ``phi``: the
base metric is flat, so the Bakry-Emery tensor reduces to

    Ric_mn = hess(phi) - grad(phi) x grad(phi) / (m - n)

for the dimension parameter ``m > n`` (and to ``hess(phi)`` when the
rank-one term is switched off, the infinite-dimensional tensor), in
either case pointwise arithmetic on the manifold's cached derivatives.

Uniform periodic grids make the trapezoid rule spectrally accurate,
Fourier differentiation exact on band-limited fields and geodesic-ball
measures closed-form mode by mode, which keeps discretization error out
of the inequality checks built on top.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

BALL_RATIO_TOL = 1e-6
_DISK_BLOCK_ELEMENTS = 1 << 18  # 2 MB of doubles per block of the _disk_weights table


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
    ``sqrt_density``, ``potential_gradient``, ``potential_hessian``,
    ``axis_eigensystems`` and the real-FFT spectral symbols) is computed
    on first use and cached on the instance as read-only arrays, so
    operator applies, implicit solves, exact propagators and curvature
    tensors do not recompute it.
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
    def axis_eigensystems(self):
        """Per axis, ``(left, lam, right)`` with

            exp(tau P_a L_a P_a) P_a = left @ diag(exp(tau * lam)) @ right,

        or None when phi is not additively separable.

        With ``phi = sum_a phi_a(x_a)`` the divergence-form operator is the
        Kronecker sum of the per-axis operators ``L_a = rho^-1 D rho D``
        (``rho = exp(-phi_a)``, D the spectral first derivative) and the
        Nyquist projection is ``P = P_x (x) P_y``, so
        ``P exp(tau PLP) P`` is the Kronecker product of these factors.
        D's symbol vanishes at Nyquist, so ``D = DP = PD`` and
        ``P L_a P = R K`` with ``K = D rho D`` symmetric and
        ``R = P rho^-1 P`` symmetric positive semi-definite of rank n - 1.
        On range(P), spanned by R's eigenvectors Q with eigenvalues s^2 > 0,
        R K is similar to the symmetric ``s Q^T K Q s``: two ``eigh`` calls
        per axis, ``lam <= 0``.
        """
        parts = _axis_potentials(self)
        if parts is None:
            return None
        return tuple(_projected_axis_eigensystem(self, a, p) for a, p in enumerate(parts))

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


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _grid_sizes(grid, scale=1):
    """``grid``, an integer or a list of integers, times ``scale``; floats,
    bools and strings raise instead of being converted."""
    if _is_integer(grid):
        return int(grid) * scale
    if isinstance(grid, (list, tuple)) and all(_is_integer(n) for n in grid):
        return [int(n) * scale for n in grid]
    raise ValueError(f"grid must be an integer or a list of integers, got {grid!r}")


def _potential_from_spec(model, shape, coords, spec):
    if not isinstance(spec, dict) or not isinstance(spec.get("params") or {}, dict):
        raise ValueError("potential and its params must be mappings")
    family = spec.get("family", "zero")
    params = spec.get("params", {}) or {}
    for key in ("a", "b", "k", "l"):
        value = params.get(key, 1)
        integer = key in ("k", "l")
        if not (_is_integer(value) if integer else _is_real(value)):
            kind = "an integer" if integer else "a real number"
            raise ValueError(f"potential parameter {key} must be {kind}, got {value!r}")
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

    grid = _grid_sizes(config.get("grid"))
    grid = (grid,) * dim if isinstance(grid, int) else tuple(grid)
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
            "grid": n,
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
    """A node as a tuple of indices, checked against the grid."""
    if isinstance(node, (int, np.integer)):
        if manifold.dim_n != 1:
            raise ValueError("torus nodes are (i, j) index pairs")
        node = (node,)
    idx = tuple(int(i) for i in node)
    if len(idx) != manifold.dim_n:
        raise ValueError(
            f"node {list(idx)} needs {manifold.dim_n} index(es) on model {manifold.model}"
        )
    if not all(0 <= i < n for i, n in zip(idx, manifold.shape)):
        raise ValueError(f"node {list(idx)} lies outside the grid {manifold.shape}")
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


def _hessian(manifold, f, grad=None):
    """Spectral Hessian, shape (n, n, *grid); symmetric by construction.

    The mixed entries differentiate the gradient, ``grad`` when the caller
    has it (else it is computed, on tori only).
    """
    n = manifold.dim_n
    out = np.empty((n, n) + manifold.shape)
    if grad is None and n > 1:
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


def _rounding_level(phi):
    """Variation of phi below which it counts as rounding, relative to its size."""
    return 1e-13 * (1.0 + float(np.abs(phi).max()))


def _constant_potential(manifold):
    """True when phi is constant up to rounding relative to its size."""
    phi = manifold.potential
    return float(np.ptp(phi)) <= _rounding_level(phi)


def _axis_potentials(manifold):
    """Zero-mean per-axis parts phi_a with ``phi = mean + sum_a phi_a``, or
    None when the residual of that split exceeds the rounding level."""
    phi = manifold.potential
    mean = float(phi.mean())
    axes = range(manifold.dim_n)
    parts = [phi.mean(axis=tuple(b for b in axes if b != a)) - mean for a in axes]
    residual = phi - mean
    for a, part in enumerate(parts):
        shape = [1] * manifold.dim_n
        shape[a] = part.size
        residual = residual - part.reshape(shape)
    if float(np.abs(residual).max()) > _rounding_level(phi):
        return None
    return parts


def _projected_axis_eigensystem(manifold, axis, phi):
    """``(left, lam, right)`` of ``exp(tau P L P) P`` for the 1-D operator of
    potential ``phi`` along ``axis`` (see ``WeightedManifold.axis_eigensystems``)."""
    n = manifold.grid_sizes[axis]
    first = manifold._derivative_symbols[axis][0].ravel()
    D = np.fft.irfft(first[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    rho = np.exp(-phi)
    nyquist = (-1.0) ** np.arange(n)
    P = np.eye(n) - np.outer(nyquist, nyquist) / n
    mu, V = np.linalg.eigh(P @ (P / rho[:, None]))
    # drop R's null direction, the Nyquist mode; the rest is >= min(1/rho)
    Q, s = V[:, 1:], np.sqrt(mu[1:])
    # K = D rho D = -(sqrt(rho) D)^T (sqrt(rho) D), since D^T = -D
    C = (np.sqrt(rho)[:, None] * D) @ (Q * s)
    lam, W = np.linalg.eigh(-(C.T @ C))
    left = (Q * s) @ W
    right = W.T @ (Q / s).T
    return _read_only(left), _read_only(lam), _read_only(right)


def _m_equals_n(manifold, m):
    """Whether m == n within ``M_EQUALS_N_TOL``: the rule of every function
    that takes m, which rejects m below n, and m == n unless phi is constant."""
    n = manifold.dim_n
    if m < n - M_EQUALS_N_TOL:
        raise ValueError(f"dimension parameter m={m} below topological dimension n={n}")
    if not m - n < M_EQUALS_N_TOL:
        return False
    if not _constant_potential(manifold):
        raise ValueError(
            f"dimension parameter m={m} equals topological dimension n={n}, "
            f"which needs a constant potential"
        )
    return True


def _check_ball_radii(manifold, r, R):
    """Reject ball radii outside 0 < r < R <= the injectivity scale."""
    if not (0.0 < r < R):
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    scale = min(manifold.circumferences) / 2.0  # the injectivity radius
    if R > scale + 1e-12:
        raise ValueError(f"R={R} exceeds the injectivity scale {scale} of the model")


def bakry_emery_tensor(manifold, m):
    """Per-node Bakry-Emery tensor as an (n, n, *grid) array.

    For finite ``m > n`` this is hess(phi) - grad(phi) x grad(phi)/(m-n);
    ``m = inf`` drops the rank-one term.  The flat base metric contributes
    no Ricci term.  For ``m = inf`` and ``m == n`` (constant phi, whose
    gradient vanishes) the result is the manifold's read-only
    ``potential_hessian``.
    """
    hess = manifold.potential_hessian
    if _m_equals_n(manifold, m) or math.isinf(m):
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


def _disk_weights(k, r):
    """``int_{|s| < r} exp(i k.s) ds = 2 pi r J1(|k| r) / |k|`` for each |k| in
    ``k``: ``r^2 int_0^{2 pi} cos(|k| r cos a) sin^2 a da``, whose integrand is
    periodic and analytic, by the trapezoid rule on ``2 ceil(max |k| r) + 64``
    nodes, which gives it to rounding.  The cosine table is filled in blocks
    of |k| rows."""
    nodes = 2 * math.ceil(float(np.max(k)) * r) + 64
    a = np.arange(nodes) * (2.0 * np.pi / nodes)
    rule = np.sin(a) ** 2 * (2.0 * np.pi * r * r / nodes)
    kr, cos_a = k * r, np.cos(a)
    rows = max(1, _DISK_BLOCK_ELEMENTS // nodes)
    return np.concatenate([
        np.cos(np.multiply.outer(kr[i:i + rows], cos_a)) @ rule
        for i in range(0, kr.size, rows)
    ])


def _ball_measures(manifold, y, radii):
    """mu(B(y, r)) for each r in ``radii``, exact for the trigonometric
    interpolant of exp(-phi).  The density is rolled so that y is the
    origin, which applies the phase ``exp(i k.x_y)`` exactly; a mode
    ``c_k exp(i k.x)`` then integrates over the ball to ``c_k`` times
    ``2 r sinc(|k| r / pi)`` on a circle, or times :func:`_disk_weights`
    on a torus."""
    y = _as_index(manifold, y)
    rolled = np.roll(manifold.density, [-i for i in y], axis=tuple(range(manifold.dim_n)))
    centred = np.fft.fftn(rolled).real.ravel() / rolled.size
    k = np.sqrt(_wavenumber_square(manifold)).ravel()
    if manifold.dim_n == 1:
        return [float(centred @ (2.0 * r * np.sinc(k * r / np.pi))) for r in radii]
    k, inverse = np.unique(k, return_inverse=True)
    return [float(centred @ _disk_weights(k, r)[inverse]) for r in radii]


def ball_volume_ratio_check(manifold, m, K, y, r, R):
    """Weighted volume-doubling check against the comparison bound.

    The ratio mu(B(y, R)) / mu(B(y, r)) of exact ball measures (see
    :func:`_ball_measures`) is set against (R/r)^m * exp(sqrt((m-1) K) * R).
    """
    _check_ball_radii(manifold, r, R)
    if K < 0.0:
        raise ValueError("curvature constant K must be nonnegative")
    _m_equals_n(manifold, m)
    big, small = _ball_measures(manifold, y, (R, r))
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
        tol=BALL_RATIO_TOL,
        ok=bool(ratio <= bound * (1.0 + BALL_RATIO_TOL)),
    )
