"""Experiment configuration: YAML schema, validation, defaults.

Top-level keys of an experiment file:

    manifold:  model, grid, period, potential.{family,params,samples}
    solver:    t0, x0 (default: the origin node), times, local_error
    checks:    list of {name, m, K, ...}, each name at most once (see
               CHECKS); m is a number or a list of numbers (required by
               the checks marked needs_m); K is a number, "admissible",
               or "fitted" (flow checks only)
    flow:      family, params, horizon (optional section)
    out:       output directory (optional; CLI flag overrides)

Validation failures raise :class:`ConfigError` naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import yaml

from .geometry import _grid_sizes, _is_integer, _is_real


class _CheckKind(NamedTuple):
    subcommand: str  # the CLI subcommand that runs the check
    needs_m: bool  # loops over its m values and has no default for them
    needs_flow: bool  # runs on the flow section


CHECKS = {
    "curvature": _CheckKind("curvature", needs_m=False, needs_flow=False),
    "ball_ratio": _CheckKind("curvature", needs_m=False, needs_flow=False),
    "operators_selftest": _CheckKind("curvature", needs_m=False, needs_flow=False),
    "mass": _CheckKind("simulate", needs_m=False, needs_flow=False),
    "li_yau": _CheckKind("harnack", needs_m=True, needs_flow=False),
    "hamilton": _CheckKind("harnack", needs_m=True, needs_flow=False),
    "sup_bound": _CheckKind("harnack", needs_m=True, needs_flow=False),
    "integrated": _CheckKind("harnack", needs_m=True, needs_flow=False),
    "kernel_bounds": _CheckKind("harnack", needs_m=True, needs_flow=False),
    "entropy": _CheckKind("entropy", needs_m=True, needs_flow=False),
    "tilde_identity": _CheckKind("entropy", needs_m=False, needs_flow=False),
    "flow_margin": _CheckKind("flow", needs_m=True, needs_flow=True),
    "flow_entropy": _CheckKind("flow", needs_m=True, needs_flow=True),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class CheckSpec:
    name: str
    m_values: tuple
    K_mode: str  # "explicit" | "admissible" | "fitted"
    K_value: float | None
    options: dict = field(default_factory=dict)


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


def load_config(path):
    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _number(raw, key):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_K(raw, check_name):
    if raw is None:
        return "admissible", None
    if isinstance(raw, str):
        if raw not in ("admissible", "fitted"):
            raise ConfigError(
                f"checks.{check_name}.K must be a number, 'admissible' or 'fitted'"
            )
        return raw, None
    value = _number(raw, f"checks.{check_name}.K")
    if value < 0.0:
        raise ConfigError(f"checks.{check_name}.K must be finite and nonnegative")
    return "explicit", value


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


def _parse_options(item, name, times):
    """Check options with their types and the values a check reads
    checked (pair times against ``times``); keys no check reads pass through."""
    options = {k: v for k, v in item.items() if k not in ("name", "m", "K")}
    where = f"checks.{name}"
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
            [_number(t, f"{where}.pairs") for t in p] for p in pairs
        ]
    if name == "ball_ratio":
        options.setdefault("r", 0.5)
        options.setdefault("R", 1.0)
    if name == "integrated":
        if pairs is None and len(times) < 2:
            raise ConfigError(f"{where} needs a pairs option or two solver.times")
        for tau, T in pairs or []:
            if not 0.0 < tau < T:
                raise ConfigError(f"{where}.pairs needs 0 < tau < T, got [{tau:g}, {T:g}]")
            for t in (tau, T):
                if t not in times:
                    raise ConfigError(f"{where}.pairs time {t:g} is not in solver.times")
    return options


def _name_clash(values):
    """Two of ``values`` with the same ``{:g}`` text, the one output file
    names and summary keys carry; None if there are none."""
    seen = {}
    for v in values:
        name = f"{v:g}"
        if name in seen:
            return seen[name], v
        seen[name] = v
    return None


def _parse_m(raw, check_name):
    items = _as_list(raw)
    if not all(_is_real(m) for m in items):
        raise ConfigError(f"checks.{check_name}.m must be a number or a list of numbers")
    m_values = tuple(float(m) for m in items)
    for m in m_values:
        if m <= 0 or not math.isfinite(m):
            raise ConfigError(f"checks.{check_name}.m must be positive and finite")
    if not m_values and CHECKS[check_name].needs_m:
        raise ConfigError(f"checks.{check_name} needs at least one m value")
    clash = _name_clash(m_values)
    if clash:
        a, b = clash
        raise ConfigError(
            f"checks.{check_name}.m values {a!r} and {b!r} both name their outputs "
            f"m{a:g}; give values that differ in 6 significant digits"
        )
    return m_values


def validate_experiment(data, out_override=None, grid_scale=1):
    """Turn a raw config mapping into an :class:`ExperimentConfig`."""
    if "manifold" not in data:
        raise ConfigError("missing section: manifold")
    manifold = _mapping(data, "manifold")
    try:
        manifold["grid"] = _grid_sizes(manifold.get("grid"), grid_scale)
    except ValueError as exc:
        raise ConfigError(f"manifold.{exc}") from None

    solver_raw = _mapping(data, "solver")
    t0 = _number(solver_raw.get("t0", 0.05), "solver.t0")
    if t0 <= 0:
        raise ConfigError("solver.t0 must be positive")
    x0 = _parse_node(solver_raw.get("x0"), "solver.x0")
    times_raw = solver_raw.get("times", (0.1, 0.5, 1.0))
    if not isinstance(times_raw, (list, tuple)):
        raise ConfigError(f"solver.times must be a list of numbers, got {times_raw!r}")
    times = tuple(_number(t, "solver.times") for t in times_raw)
    if not times:
        raise ConfigError("solver.times must not be empty")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("solver.times must be strictly ascending")
    if times[0] < t0 - 1e-15:
        raise ConfigError("solver.times must start at or after solver.t0")
    local_error = _number(solver_raw.get("local_error", 1e-8), "solver.local_error")
    if not (0 < local_error < 1):
        raise ConfigError("solver.local_error must be in (0, 1)")
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
        m_values = _parse_m(item.get("m"), name)
        K_mode, K_value = _parse_K(item.get("K"), name)
        options = _parse_options(item, name, times)
        checks.append(
            CheckSpec(
                name=name,
                m_values=m_values,
                K_mode=K_mode,
                K_value=K_value,
                options=options,
            )
        )

    flow = None
    if data.get("flow") is not None:
        flow = _mapping(data, "flow")
        if "family" not in flow:
            raise ConfigError("flow.family is required when a flow is given")

    clash = _name_clash(times)
    if clash and any(c.options.get("dump_defects") for c in checks):
        a, b = clash
        raise ConfigError(
            f"solver.times {a!r} and {b!r} both name their defect files t{a:g}; "
            f"dump_defects needs times that differ in 6 significant digits"
        )

    if flow is None and any(CHECKS[c.name].needs_flow for c in checks):
        raise ConfigError("flow checks selected but no flow section given")
    if flow is None and any(c.K_mode == "fitted" for c in checks):
        raise ConfigError("K mode 'fitted' needs a flow section")

    # the entropy series differentiate W across snapshots
    names = {c.name for c in checks}
    if "entropy" in names and len(times) < 2:
        raise ConfigError("checks.entropy needs at least two solver.times")
    if "flow_entropy" in names:
        horizon = _number(flow.get("horizon", times[-1]), "flow.horizon")
        if sum(t <= horizon + 1e-12 for t in times) < 2:
            raise ConfigError(
                "checks.flow_entropy needs at least two solver.times within flow.horizon"
            )

    out_dir = out_override or data.get("out", "wittenlab_out")
    return ExperimentConfig(
        manifold=manifold, solver=solver, checks=checks, flow=flow, out_dir=str(out_dir)
    )
