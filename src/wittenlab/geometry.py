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

The scalar input rules of the package live here, one implementation
each, and every public function applies them where its inputs enter,
raising ``ValueError`` that names the input:

* the finite-number rule (``_check_finite``): a real number, not a bool
  or a string, neither NaN nor infinite; the sup bound's ``A``, the flow
  parameters and the numbers of a configuration that are not times;
* the time rule (``_check_time``): a finite positive real number; every
  time and time step (``t``, ``t0``, ``dt``, ``tau``, ``T``, the flow
  horizon, each row time of a check);
* the m rule (``_check_m``, ``_m_equals_n``): the finite-number rule, or
  m = inf where the Bakry-Emery tensor takes it; m >= n, and m == n only
  on a constant potential;
* the K rule (``_check_K``): the finite-number rule and K >= 0;
* ``_check_m_K_t``, the three together: the domain of every function of
  m, K and t, applied once at the head of each call to a list of
  ``(m, K)`` and its times.

A heat-flow state's times pass the finite-number rule when the state is
built; 0 is a valid state time (the uniform state), which the time rule
of the checks refuses.
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
    grid_sizes : tuple of int
        Nodes per dimension; even and at least 16 (Fourier differentiation).
    circumferences : tuple of float
        Coordinate period per dimension.
    potential : ndarray
        Per-node potential ``phi``.

    Everything else is derived from these three inputs, computed on first
    use and cached on the instance, read-only where it is an array, so
    that a later read costs what a plain attribute does:

    * ``dim_n``, the topological dimension ``len(grid_sizes)`` (1 or 2),
      and ``model``, ``"circle"`` or ``"flat_torus_2d"`` after it;
    * ``density`` = exp(-phi), ``measure_weights`` = ``density *
      cell_volume`` (the per-node weights that realize the measure) and
      their total ``mu_total``;
    * ``sqrt_density``, ``potential_gradient``, ``potential_hessian``,
      ``nyquist_vectors`` (the grid-side definition of the Nyquist projection),
      ``axis_eigensystems``, ``symmetric_eigensystem`` (circles, whose
      Crank-Nicolson steps and implicit solves are diagonal in it) and
      the spectral symbols (``|k|^2`` on the full and the real-FFT half
      spectrum, per-axis derivative symbols), so operator applies,
      time steps, implicit solves, exact propagators and curvature
      tensors do not recompute them;
    * per dimension parameter ``float(m)``, the Bakry-Emery tensor of
      :func:`bakry_emery_tensor` and the :class:`CurvatureField` of
      :func:`ricci_bakry_emery`, kept on first use so that every check of
      a run shares one of each per m.  Memory grows by one
      ``(n, n, *grid)`` tensor and one grid field per distinct m.
    """

    grid_sizes: tuple
    circumferences: tuple
    potential: np.ndarray

    def __post_init__(self):
        self.potential.setflags(write=False)

    @cached_property
    def dim_n(self):
        return len(self.grid_sizes)

    @cached_property
    def model(self):
        return "circle" if self.dim_n == 1 else "flat_torus_2d"

    @property
    def shape(self):
        return self.grid_sizes

    @property
    def spacings(self):
        return tuple(L / n for L, n in zip(self.circumferences, self.grid_sizes))

    @property
    def cell_volume(self):
        return math.prod(self.spacings)

    @cached_property
    def measure_weights(self):
        """Per-node weight ``exp(-phi) * cell_volume`` realizing the measure."""
        return _read_only(self.density * self.cell_volume)

    @cached_property
    def mu_total(self):
        """Total measure of the model."""
        return float(self.measure_weights.sum())

    def axis_coordinates(self, axis):
        """Node coordinates along one axis."""
        (x,) = _grid_coordinates((self.grid_sizes[axis],), (self.circumferences[axis],))
        return x

    def coordinates(self):
        """Per-axis coordinate arrays broadcast to the grid shape."""
        return _grid_coordinates(self.grid_sizes, self.circumferences)

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

            rho^-1/2 exp(tau P_a S_a P_a) P_a rho^1/2 = left @ diag(exp(tau lam)) @ right,

        or None when phi is not additively separable.

        With ``phi = sum_a phi_a(x_a)``, ``S = rho^1/2 L rho^-1/2`` is the
        Kronecker sum of the per-axis ``S_a`` (``rho = exp(-phi_a)``) and
        ``P = P_x (x) P_y``, so the heat flow's target
        ``rho^-1/2 P exp(tau PSP) P rho^1/2`` is the Kronecker product of
        these factors, each from one ``eigh`` with ``lam <= 0``.
        """
        parts = _axis_potentials(self)
        if parts is None:
            return None
        return tuple(_projected_axis_eigensystem(self, a, p) for a, p in enumerate(parts))

    @cached_property
    def nyquist_vectors(self):
        """Per axis, the unit Nyquist vector ``w_a = (-1)^j / sqrt(N_a)``,
        shaped to broadcast along that axis.

        The Nyquist projection is ``P = (x)_a (I - w_a w_a^T)``: it zeroes
        the per-axis Nyquist planes, the modes that the spectral first
        derivative cannot see.  :func:`wittenlab.operators.dealias_nyquist`
        applies it and the per-axis factors of ``axis_eigensystems`` span
        its range, both from these vectors.
        """
        vectors = []
        for a, n in enumerate(self.grid_sizes):
            shape = [1] * self.dim_n
            shape[a] = n
            w = (-1.0) ** np.arange(n) / math.sqrt(n)
            vectors.append(_read_only(w.reshape(shape)))
        return tuple(vectors)

    @cached_property
    def symmetric_eigensystem(self):
        """``(mu, V)`` with ``S = V diag(mu) V^T`` for the dense symmetrized
        operator ``S = rho^1/2 L rho^-1/2 = -B^T B``, ``B = rho^1/2 D rho^-1/2``
        (see :func:`_weighted_derivative`), from one ``eigh``; ``mu <= 0`` up to
        rounding.

        Defined on circles only, whose Crank-Nicolson steps and implicit
        solves are diagonal maps in this basis.  On ``N`` nodes ``V`` is an
        ``N x N`` matrix, built once in ``O(N^3)``; a step or solve in it
        costs two ``N^2`` products.
        """
        if self.dim_n != 1:
            raise ValueError(f"symmetric_eigensystem is defined on circles, not on {self.model}")
        half_D, half = _weighted_derivative(self, 0, self.potential)
        B = half_D / half
        mu, V = np.linalg.eigh(-(B.T @ B))
        return _read_only(mu), _read_only(V)

    @cached_property
    def _bakry_emery_tensors(self):
        """float(m) -> read-only Bakry-Emery tensor, filled by
        :func:`bakry_emery_tensor`."""
        return {}

    @cached_property
    def _curvature_fields(self):
        """float(m) -> :class:`CurvatureField`, filled by :func:`ricci_bakry_emery`."""
        return {}

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
    def _wavenumber_square(self):
        """|k|^2 on the full Fourier grid."""
        sym = np.zeros(self.shape)
        for a in range(self.dim_n):
            shape = [1] * self.dim_n
            shape[a] = self.grid_sizes[a]
            sym = sym + (self.wavenumbers(a) ** 2).reshape(shape)
        return _read_only(sym)

    @cached_property
    def _rfftn_wavenumber_square(self):
        """|k|^2 on the half spectrum of ``rfftn``: the full grid's last
        axis up to its Nyquist index, where |k| is the same at +-N/2."""
        half = self.grid_sizes[-1] // 2 + 1
        return _read_only(self._wavenumber_square[..., :half].copy())


def _grid_coordinates(grid_sizes, periods):
    """Node coordinates ``i * L / n`` per axis of n nodes and period L,
    broadcast to the grid shape: the one coordinate rule of every model."""
    axes = [np.arange(n) * (L / n) for n, L in zip(grid_sizes, periods)]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CurvatureField:
    """Pointwise smallest eigenvalue of the Bakry-Emery tensor, read-only.

    Derived are ``min_value`` and ``admissible_K``, the smallest constant
    K >= 0 with Ric_mn >= -K everywhere on the grid.
    """

    m: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @cached_property
    def min_value(self):
        return float(self.values.min())

    @property
    def admissible_K(self):
        return max(0.0, -self.min_value)


@dataclass(frozen=True)
class BallRatioReport:
    """Ball ratio mu(B(center, R)) / mu(B(center, r)) against the derived
    ``bound`` (R/r)^m exp(sqrt((m-1) K) R); ``ok`` allows ``tol``, relative."""

    center: tuple
    r: float
    R: float
    m: float
    K: float
    ratio: float

    tol = BALL_RATIO_TOL

    @property
    def bound(self):
        R, m = self.R, self.m
        return (R / self.r) ** m * math.exp(math.sqrt((m - 1.0) * self.K) * R)

    @property
    def ok(self):
        return bool(self.ratio <= self.bound * (1.0 + self.tol))


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


def _check_params(what, family, params, defaults):
    """Reject parameters that ``family`` of ``what`` does not read."""
    unknown = [key for key in params if key not in defaults]
    if unknown:
        raise ValueError(f"{what} family {family!r} has no parameter(s) {unknown}")


# each potential family with the defaults of the parameters it reads
_POTENTIAL_DEFAULTS = {
    "zero": {},
    "cosine": {"a": 1.0, "k": 1},
    "cosine_sine": {"a": 1.0, "k": 1, "b": 1.0, "l": 1},
    "samples": {},
}


def _check_commensurate(key, k, L):
    """Reject a cosine mode ``k`` that does not fit a whole number of times
    in the period ``L``: the potential would jump at the wrap."""
    turns = k * (L / (2.0 * math.pi))
    if not (math.isfinite(turns) and abs(turns - round(turns)) <= 1e-12):
        raise ValueError(
            f"potential parameter {key}={k} is not periodic on period {L!r}: "
            f"{key} * period / (2 pi) = {turns!r} must be an integer"
        )


def _potential_from_spec(shape, coords, periods, spec):
    if not isinstance(spec, dict) or not isinstance(spec.get("params") or {}, dict):
        raise ValueError("potential and its params must be mappings")
    family = spec.get("family", "zero")
    if not isinstance(family, str) or family not in _POTENTIAL_DEFAULTS:
        raise ValueError(f"unknown potential family {family!r}")
    params = spec.get("params", {}) or {}
    _check_params("potential", family, params, _POTENTIAL_DEFAULTS[family])
    for key, value in params.items():
        integer = key in ("k", "l")
        if not (_is_integer(value) if integer else _is_real(value)):
            kind = "an integer" if integer else "a real number"
            raise ValueError(f"potential parameter {key} must be {kind}, got {value!r}")
    p = {**_POTENTIAL_DEFAULTS[family], **params}
    if family == "zero":
        return np.zeros(shape)
    if family == "cosine_sine" and len(shape) != 2:
        raise ValueError("potential family 'cosine_sine' needs a 2-d model")
    for axis, key in enumerate(("k", "l")):
        if key in p:
            _check_commensurate(key, p[key], periods[axis])
    if family == "cosine":
        return p["a"] * np.cos(p["k"] * coords[0])
    if family == "cosine_sine":
        return p["a"] * np.cos(p["k"] * coords[0]) + p["b"] * np.sin(p["l"] * coords[1])
    samples = np.asarray(spec.get("samples"), dtype=float)
    if samples.shape != shape:
        raise ValueError(f"sampled potential has shape {samples.shape}, grid is {shape}")
    return samples.copy()


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
    if _is_real(period):
        period = (period,) * dim
    if not isinstance(period, (list, tuple)) or not all(
        _is_real(L) and 0.0 < L < math.inf for L in period
    ):
        raise ValueError(f"period must be a positive real number per axis, got {period!r}")
    period = tuple(float(L) for L in period)
    if len(period) != dim:
        raise ValueError(f"model {model} needs {dim} period(s), got {period}")

    phi = _potential_from_spec(
        grid, _grid_coordinates(grid, period), period, config.get("potential", {}) or {}
    )
    if not np.all(np.isfinite(phi)):
        raise ValueError("potential contains non-finite values")
    manifold = WeightedManifold(grid_sizes=grid, circumferences=period, potential=phi)
    with np.errstate(over="ignore"):  # an overflow is named below
        weights, total = manifold.measure_weights, manifold.mu_total
    if not np.all(np.isfinite(weights)):
        raise ValueError(
            f"measure weights exp(-phi) * cell volume overflow where phi = {phi.min():g}"
        )
    if not np.all(weights > 0.0):
        raise ValueError("measure weights must be positive")
    if not math.isfinite(total):
        raise ValueError("total measure mu_total, the sum of the measure weights, overflows")
    return manifold


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
    return _node_distances(manifold, y, np.indices(manifold.shape, sparse=True))


def _node_distances(manifold, source, target):
    """Flat periodic distance from ``source`` to ``target`` nodes, each one
    index (or index array) per axis, broadcast together.

    Per axis the target coordinate minus the source coordinate is folded by
    :func:`_periodic_diff`; the distance is its absolute value on the
    circle and the Euclidean norm of the two displacements on the torus.
    """
    d = []
    for axis, (s, t) in enumerate(zip(source, target)):
        c = manifold.axis_coordinates(axis)
        d.append(_periodic_diff(c[t] - c[s], manifold.circumferences[axis]))
    if manifold.dim_n == 1:
        return np.abs(d[0])
    dx, dy = d
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
    """Spectral derivative of ``order`` (1 or 2) along one grid axis, by real FFT.

    ``axis`` counts grid axes; any leading axes of ``f`` hold a stack of
    fields, and the symbols broadcast over them.
    """
    if order not in (1, 2):
        raise ValueError(f"spectral derivative order must be 1 or 2, got {order}")
    sym = manifold._derivative_symbols[axis][order - 1]
    n = manifold.grid_sizes[axis]
    axis -= manifold.dim_n
    return np.fft.irfft(sym * np.fft.rfft(f, axis=axis), n, axis=axis)


def _gradient(manifold, f):
    """Spectral gradient, shape (n, *stack, *grid)."""
    return np.stack([_axis_derivative(manifold, f, a, 1) for a in range(manifold.dim_n)])


def _hessian(manifold, f, grad=None):
    """Spectral Hessian, shape (n, n, *stack, *grid); symmetric by construction.

    The mixed entries differentiate the gradient, ``grad`` when the caller
    has it (else it is computed, on tori only).
    """
    n = manifold.dim_n
    out = np.empty((n, n) + f.shape)
    if grad is None and n > 1:
        grad = _gradient(manifold, f)
    for a in range(n):
        out[a, a] = _axis_derivative(manifold, f, a, 2)
        for b in range(a + 1, n):
            out[a, b] = _axis_derivative(manifold, grad[a], b, 1)
            out[b, a] = out[a, b]
    return out


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


def _weighted_derivative(manifold, axis, phi):
    """``(rho^1/2 D, rho^1/2)`` for the dense spectral first-derivative matrix
    D along ``axis`` and ``rho = exp(-phi)``: the symmetrized derivative
    ``B = rho^1/2 D rho^-1/2`` is the first with its columns divided by the
    second, and ``S = rho^1/2 L rho^-1/2 = -B^T B`` since ``D^T = -D``."""
    n = manifold.grid_sizes[axis]
    first = manifold._derivative_symbols[axis][0].ravel()
    D = np.fft.irfft(first[:, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    half = np.exp(-0.5 * phi)
    return half[:, None] * D, half


def _projected_axis_eigensystem(manifold, axis, phi):
    """``(left, lam, right)`` of ``rho^-1/2 exp(tau P S P) P rho^1/2`` for the 1-D
    operator of potential ``phi`` along ``axis`` (see ``axis_eigensystems``)."""
    n = manifold.grid_sizes[axis]
    half_D, half = _weighted_derivative(manifold, axis, phi)
    # the Householder reflection taking e_0 to the unit Nyquist vector; its
    # other columns are an orthonormal basis Q of range(P)
    w = manifold.nyquist_vectors[axis].flatten()  # a copy: the cache stays as is
    w[0] -= 1.0
    Q = (np.eye(n) - np.outer(w, w) / (0.5 * (w @ w)))[:, 1:]
    # P S P = Q W diag(lam) (Q W)^T for the eigenpairs of -(BQ)^T (BQ)
    BQ = half_D @ (Q / half[:, None])
    lam, W = np.linalg.eigh(-(BQ.T @ BQ))
    QW = Q @ W
    return _read_only(QW / half[:, None]), _read_only(lam), _read_only(QW.T * half)


def _check_finite(name, value):
    """``value`` as a float: the finite-number rule, which rejects a value
    that is not a real number (bools and strings included), NaN and +-inf,
    naming it ``name``."""
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _check_time(name, value):
    """``value`` as a float: the time rule, which rejects a time or time
    step that is not a finite positive real number (``True`` included),
    naming it ``name``."""
    if not (_is_real(value) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def _check_m(m, infinite_ok=False):
    """Reject an m that fails the finite-number rule, except m = +inf with
    ``infinite_ok``."""
    if not (infinite_ok and m == math.inf):
        _check_finite("dimension parameter m", m)


def _m_equals_n(manifold, m, infinite_ok=False):
    """Whether m == n within ``M_EQUALS_N_TOL``: the rule of every function
    that takes m, which rejects m that is not a finite number (see
    :func:`_check_m`), m below n, and m == n unless phi is constant."""
    _check_m(m, infinite_ok)
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


def _check_K(K):
    """Reject a K that is not a finite number, and K < 0: the rule of every
    function that takes K (Ric_mn >= -K)."""
    _check_finite("curvature constant K", K)
    if K < 0.0:
        raise ValueError(f"curvature constant K={K} must be nonnegative")


def _check_m_K_t(manifold, mKs, times=()):
    """Whether m == n, per ``(m, K)`` of ``mKs``, after the m rule and the
    K rule for each pair and the time rule once for each of ``times`` (m
    against n last): the domain of every function of m, K and t, checked
    once at the head of a call so that the per-row formulas need no
    check.  With no ``manifold`` (the closed forms in t alone) m need only
    be a finite number, and m == n is False."""
    for m, K in mKs:
        _check_m(m)
        _check_K(K)
    for t in times:
        _check_time("t", t)
    return [manifold is not None and _m_equals_n(manifold, m) for m, _ in mKs]


def _check_ball_radii(manifold, r, R):
    """Reject ball radii outside 0 < r < R <= the injectivity scale."""
    if not (0.0 < r < R):
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    scale = min(manifold.circumferences) / 2.0  # the injectivity radius
    if R > scale + 1e-12:
        raise ValueError(f"R={R} exceeds the injectivity scale {scale} of the model")


def bakry_emery_tensor(manifold, m):
    """Per-node Bakry-Emery tensor as a read-only (n, n, *grid) array.

    For finite ``m > n`` this is hess(phi) - grad(phi) x grad(phi)/(m-n);
    ``m = inf`` drops the rank-one term.  The flat base metric contributes
    no Ricci term.  For ``m = inf`` and ``m == n`` (constant phi, whose
    gradient vanishes) the result is the manifold's ``potential_hessian``.
    The tensor is built once per ``float(m)`` and kept on the manifold;
    a later call with the same m returns the same array.
    """
    _check_m(m, infinite_ok=True)
    cache = manifold._bakry_emery_tensors
    tensor = cache.get(float(m))
    if tensor is None:
        tensor = cache[float(m)] = _bakry_emery_tensor(manifold, m)
    return tensor


def _bakry_emery_tensor(manifold, m):
    hess = manifold.potential_hessian
    if _m_equals_n(manifold, m, infinite_ok=True) or math.isinf(m):
        return hess
    grad = manifold.potential_gradient
    rank_one = np.einsum("a...,b...->ab...", grad, grad) / (m - manifold.dim_n)
    return _read_only(hess - rank_one)


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
    curvature constant used by the Harnack and entropy checks.  Like the
    tensor, the field is built once per ``float(m)`` and kept on the
    manifold.
    """
    _check_m(m, infinite_ok=True)
    cache = manifold._curvature_fields
    field = cache.get(float(m))
    if field is None:
        tensor = bakry_emery_tensor(manifold, m)
        field = cache[float(m)] = CurvatureField(
            m=float(m), values=_smallest_eigenvalue_field(tensor, manifold.dim_n)
        )
    return field


def _disk_weights(k, r):
    """``int_{|s| < r} exp(i k.s) ds = 2 pi r J1(|k| r) / |k|`` for each |k| in
    ``k``: ``r^2 int_0^{2 pi} cos(|k| r cos a) sin^2 a da``, whose integrand is
    periodic and analytic, by the trapezoid rule on ``4 q`` nodes with
    ``q = ceil(max |k| r / 2) + 16``, which gives it to rounding.  The
    integrand is even about ``a = 0`` and ``a = pi/2`` and vanishes at 0 and
    pi, so the rule reads only the quarter nodes in (0, pi/2]: weight 4 each,
    2 at pi/2, which alone stands for two nodes.  The cosine table is filled
    in blocks of |k| rows."""
    q = math.ceil(float(np.max(k)) * r / 2.0) + 16
    a = np.arange(1, q + 1) * (0.5 * np.pi / q)
    rule = np.sin(a) ** 2 * (2.0 * np.pi * r * r / q)
    rule[-1] *= 0.5
    kr, cos_a = k * r, np.cos(a)
    rows = max(1, _DISK_BLOCK_ELEMENTS // q)
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
    k = np.sqrt(manifold._wavenumber_square).ravel()
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
    _check_m_K_t(manifold, [(m, K)])
    big, small = _ball_measures(manifold, y, (R, r))
    return BallRatioReport(
        center=_as_index(manifold, y),
        r=float(r),
        R=float(R),
        m=float(m),
        K=float(K),
        ratio=float(big / small),
    )
