"""Experiment configuration: YAML schema, validation, defaults.

Top-level keys of an experiment file:

    manifold:  model, grid, period, potential.{family,params,samples}
    solver:    t0, x0 (default: the origin node), times, local_error
    checks:    list of {name, ...}, each name at most once; a check
               accepts only the keys of its CHECKS row, which gives
               their defaults; m is a number or a list of numbers; K is
               a number, "admissible", or "fitted" (needs a flow)
    flow:      family, params, horizon (optional section)
    out:       output directory, a non-empty string (optional; CLI flag
               overrides)

Validation failures raise :class:`ConfigError` naming the offending key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import yaml

from .geometry import _check_finite, _check_time, _grid_sizes, _is_integer
from .heatflow import _check_local_error, _snapshot_times, _within_horizon

REQUIRED = "required"  # a key with no default
M_N_PLUS_1 = "n + 1"  # the model's dimension plus one, resolved by the runner


class _CheckKind(NamedTuple):
    subcommand: str  # the CLI subcommand that runs the check; "flow" needs a flow
    clock: str | None  # the snapshots it reads: "base" (solver.times), "flow", or none
    keys: dict  # each key the check reads, with its default (None: set by the check)


CHECKS = {
    "curvature": _CheckKind("curvature", None, {"m": M_N_PLUS_1}),
    "ball_ratio": _CheckKind(
        "curvature", None, {"m": M_N_PLUS_1, "K": "admissible", "r": 0.5, "R": 1.0, "center": None}
    ),
    "operators_selftest": _CheckKind("curvature", None, {"count": 20}),
    "mass": _CheckKind("simulate", "base", {}),
    "li_yau": _CheckKind("harnack", "base", {"m": REQUIRED, "dump_defects": False}),
    "hamilton": _CheckKind(
        "harnack", "base", {"m": REQUIRED, "K": "admissible", "dump_defects": False}
    ),
    "sup_bound": _CheckKind(
        "harnack", "base", {"m": REQUIRED, "K": "admissible", "dump_defects": False}
    ),
    "integrated": _CheckKind(
        "harnack", "base", {"m": REQUIRED, "K": "admissible", "nodes": 4, "pairs": None}
    ),
    "kernel_bounds": _CheckKind("harnack", "base", {"m": REQUIRED, "K": "admissible"}),
    "entropy": _CheckKind("entropy", "base", {"m": REQUIRED, "K": "admissible"}),
    "tilde_identity": _CheckKind("entropy", None, {"m": (2.0,)}),
    "flow_margin": _CheckKind("flow", None, {"m": REQUIRED, "K": "admissible"}),
    "flow_entropy": _CheckKind("flow", "flow", {"m": REQUIRED, "K": "admissible"}),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _checked(key, rule, *args):
    """``rule(*args)``; its rejection of the arguments raises ConfigError on ``key``."""
    try:
        return rule(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass
class CheckSpec:
    name: str
    m_values: tuple | str  # M_N_PLUS_1 until the runner resolves it
    options: dict  # every other key of the CHECKS row


@dataclass
class SolverParams:
    t0: float
    x0: tuple | None  # None: the origin node of whatever grid is built
    times: tuple
    local_error: float


@dataclass
class ExperimentConfig:
    manifold: dict
    solver: SolverParams
    checks: list
    flow: dict | None
    out_dir: str


def _safe_loader(base):
    """A subclass of the safe loader ``base`` that reads 1e-8 as a number, as
    YAML 1.2 and JSON do; PyYAML alone reads a float without a dot as a
    string, which _number rejects."""
    loader = type("_Loader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return loader


# libyaml's parser where PyYAML was built with it: about 8 times faster
# than the pure-Python one on a 120-time config, with the same result
_Loader = _safe_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path):
    try:
        with open(path) as handle:
            data = yaml.load(handle, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _number(raw, key):
    """``raw`` as a float by the finite-number rule, which names ``key``."""
    try:
        return _check_finite(key, raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_K(raw, key):
    """``raw`` as a float, or the mode "admissible" or "fitted"."""
    if raw in ("admissible", "fitted"):
        return raw
    if isinstance(raw, str) or _number(raw, key) < 0.0:
        raise ConfigError(f"{key} must be a nonnegative number, 'admissible' or 'fitted'")
    return float(raw)


def _as_list(raw):
    """A scalar or a sequence as a list; None as the empty list."""
    if raw is None:
        return []
    return list(raw) if isinstance(raw, (list, tuple)) else [raw]


def _mapping(data, key):
    """Section ``key`` of the config as a dict; absent or empty is {}."""
    raw = data.get(key) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be a mapping, got {raw!r}")
    return dict(raw)


def _parse_node(raw, key):
    """A node index or list of node indices as a tuple; None stays None."""
    if raw is None:
        return None
    items = _as_list(raw)
    if not items or not all(_is_integer(i) for i in items):
        raise ConfigError(
            f"{key} must be a node index or a list of node indices, got {raw!r}"
        )
    return tuple(int(i) for i in items)


def _parse_check(item, name, times):
    """Check entry ``item`` as a :class:`CheckSpec`: each key of the check's
    CHECKS row from ``item`` or its default, with its type and value checked
    (pair times against ``times``); a key the row does not list raises."""
    keys = CHECKS[name].keys
    where = f"checks.{name}"
    unknown = [key for key in item if key not in keys and key != "name"]
    if unknown:
        raise ConfigError(f"{where} has no key(s) {unknown}; its keys are {['name', *keys]}")
    for key in keys:
        if key in item and item[key] is None:
            raise ConfigError(
                f"{where}.{key} is null; its config.CHECKS default, {keys[key]!r}, "
                f"holds only when the key is left out"
            )
    m_values = _parse_m(item.get("m"), name, keys["m"]) if "m" in keys else ()
    options = {key: item.get(key, keys[key]) for key in keys if key != "m"}
    if "K" in options:
        options["K"] = _parse_K(options["K"], f"{where}.K")
    for key in ("count", "nodes"):
        if key in options and not (_is_integer(options[key]) and options[key] > 0):
            raise ConfigError(f"{where}.{key} must be a positive integer")
    for key in ("r", "R"):
        if key in options:
            options[key] = _number(options[key], f"{where}.{key}")
    if "center" in options:
        options["center"] = _parse_node(options["center"], f"{where}.center")
    if not isinstance(options.get("dump_defects", False), bool):
        raise ConfigError(f"{where}.dump_defects must be true or false")
    pairs = options.get("pairs")
    if pairs is not None:
        if not isinstance(pairs, list) or not pairs or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs
        ):
            raise ConfigError(f"{where}.pairs must be a non-empty list of [tau, T] pairs")
        pairs = options["pairs"] = [
            [_checked(f"{where}.pairs", _check_time, s, t) for s, t in zip(("tau", "T"), p)]
            for p in pairs
        ]
    if name == "integrated":
        if pairs is None and len(times) < 2:
            raise ConfigError(f"{where} needs a pairs option or two solver.times")
        for tau, T in pairs or []:
            if not tau < T:
                raise ConfigError(f"{where}.pairs needs 0 < tau < T, got [{tau:g}, {T:g}]")
            for t in (tau, T):
                if t not in times:
                    raise ConfigError(f"{where}.pairs time {t:g} is not in solver.times")
    return CheckSpec(name=name, m_values=m_values, options=options)


def _parse_m(raw, check_name, default):
    """The m values of ``raw``, or ``default`` (from the check's row) if none."""
    m_values = tuple(_number(m, f"checks.{check_name}.m") for m in _as_list(raw))
    if not all(m > 0 for m in m_values):
        raise ConfigError(f"checks.{check_name}.m must be positive")
    if not m_values and default == REQUIRED:
        raise ConfigError(f"checks.{check_name} needs at least one m value")
    names = {}  # each m by its {:g} text, the one summary keys carry
    for m in m_values:
        name = f"m{m:g}"
        if name in names:
            raise ConfigError(
                f"checks.{check_name}.m values {names[name]!r} and {m!r} both name "
                f"their summary keys {name}; give values that differ in 6 significant digits"
            )
        names[name] = m
    return m_values or default


def validate_experiment(data, out_override=None, grid_scale=1):
    """Turn a raw config mapping into an :class:`ExperimentConfig`.

    ``out_override`` and ``grid_scale`` come from the command line's
    ``--out`` and ``--grid-scale``.  This is the one place where grids are
    scaled: the grid sizes and the node indices ``solver.x0`` and
    ``center`` are multiplied by ``grid_scale``, so each node names the
    same point on the refined grid, and a ``samples`` potential, given on
    the unscaled grid, is refused at a scale above 1."""
    if not (_is_integer(grid_scale) and grid_scale >= 1):
        raise ConfigError(f"--grid-scale must be an integer >= 1, got {grid_scale!r}")
    if "manifold" not in data:
        raise ConfigError("missing section: manifold")
    manifold = _mapping(data, "manifold")
    try:
        manifold["grid"] = _grid_sizes(manifold.get("grid"), grid_scale)
    except ValueError as exc:
        raise ConfigError(f"manifold.{exc}") from None
    if grid_scale > 1 and _mapping(manifold, "potential").get("family") == "samples":
        raise ConfigError(f"--grid-scale {grid_scale} cannot refine a 'samples' potential")

    def scaled(node):  # a node of the unscaled grid, on the scaled one
        return None if node is None else tuple(i * grid_scale for i in node)

    solver_raw = _mapping(data, "solver")
    t0 = _checked("solver.t0", _check_time, "t0", solver_raw.get("t0", 0.05))
    x0 = scaled(_parse_node(solver_raw.get("x0"), "solver.x0"))
    times_raw = solver_raw.get("times", (0.1, 0.5, 1.0))
    if not isinstance(times_raw, (list, tuple)) or not times_raw:
        raise ConfigError(f"solver.times must be a non-empty list of numbers, got {times_raw!r}")
    times = tuple(_checked("solver.times", _snapshot_times, times_raw, t0))
    local_error = solver_raw.get("local_error", 1e-8)
    _checked("solver.local_error", _check_local_error, local_error)
    solver = SolverParams(t0=t0, x0=x0, times=times, local_error=local_error)

    checks_raw = data.get("checks")
    if not checks_raw:
        raise ConfigError("at least one check must be selected")
    if not isinstance(checks_raw, list):
        raise ConfigError(f"checks must be a list, got {checks_raw!r}")
    checks = []
    for item in checks_raw:
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict):
            raise ConfigError(f"a check must be a name or a mapping, got {item!r}")
        name = item.get("name")
        if not isinstance(name, str) or name not in CHECKS:
            raise ConfigError(f"unknown check name: {name!r}")
        if any(c.name == name for c in checks):
            raise ConfigError(
                f"check {name!r} is listed twice; its outputs and summary keys "
                f"carry the check name, so give it one entry"
            )
        checks.append(_parse_check(item, name, times))
        if "center" in checks[-1].options:
            checks[-1].options["center"] = scaled(checks[-1].options["center"])

    flow = None
    if data.get("flow") is not None:
        flow = _mapping(data, "flow")
        if "family" not in flow:
            raise ConfigError("flow.family is required when a flow is given")
        horizon = flow.get("horizon", times[-1])
        flow["horizon"] = _checked("flow.horizon", _check_time, "flow horizon", horizon)

    if flow is None and any(CHECKS[c.name].subcommand == "flow" for c in checks):
        raise ConfigError("flow checks selected but no flow section given")
    if flow is None and any(c.options.get("K") == "fitted" for c in checks):
        raise ConfigError("K mode 'fitted' needs a flow section")

    # the entropy series differentiate W across snapshots
    names = {c.name for c in checks}
    if "entropy" in names and len(times) < 2:
        raise ConfigError("checks.entropy needs at least two solver.times")
    if "flow_entropy" in names:
        if sum(_within_horizon(t, flow["horizon"]) for t in times) < 2:
            raise ConfigError(
                "checks.flow_entropy needs at least two solver.times within flow.horizon"
            )

    out_dir = data.get("out", "wittenlab_out")
    if not (isinstance(out_dir, str) and out_dir):
        raise ConfigError(f"out must be a non-empty string, got {out_dir!r}")
    if out_override is not None:
        if not (isinstance(out_override, str) and out_override):
            raise ConfigError(f"--out must be a non-empty string, got {out_override!r}")
        out_dir = out_override
    return ExperimentConfig(
        manifold=manifold, solver=solver, checks=checks, flow=flow, out_dir=out_dir,
    )
