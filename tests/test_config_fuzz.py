"""Config fuzzing: every mapping run through ``cli.main`` keeps the exit contract.

Exit code 0 means pass, 1 a failed check or a numerical failure, 2 an
invalid configuration, and no input ends in a traceback.  The examples are
derived deterministically, on grids of at most 64 nodes per axis with
cheap checks.
"""

import contextlib
import copy
import io
import math
import os
import tempfile

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittenlab.cli import main

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

# checks that work on a weighted model without a flow section
PLAIN_CHECKS = (
    "curvature",
    "ball_ratio",
    "operators_selftest",
    "mass",
    "li_yau",
    "hamilton",
    "sup_bound",
    "integrated",
    "kernel_bounds",
    "entropy",
    "tilde_identity",
)
FLOW_CHECKS = ("flow_margin", "flow_entropy")


def run_cli(data):
    """Exit code and stderr of ``wittenlab all`` on ``data`` written as YAML."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.yaml")
        with open(path, "w") as handle:
            yaml.safe_dump(data, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["all", "--config", path, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


@st.composite
def valid_configs(draw):
    torus = draw(st.booleans())
    n = 2 if torus else 1
    small = st.floats(0.0, 0.5).map(lambda v: round(v, 3))
    families = ["zero", "cosine"] + (["cosine_sine"] if torus else [])
    family = draw(st.sampled_from(families))
    potential = {"family": family}
    if family == "cosine":
        potential["params"] = {"a": draw(small), "k": draw(st.integers(1, 2))}
    elif family == "cosine_sine":
        potential["params"] = {"a": draw(small), "b": draw(small), "k": 1, "l": 1}
    grid = draw(st.sampled_from([16, [16, 32]] if torus else [16, 32, 64]))
    manifold = {"model": "flat_torus_2d" if torus else "circle", "grid": grid}
    manifold["potential"] = potential

    t0 = draw(st.sampled_from([0.02, 0.05]))
    times = draw(
        st.lists(st.sampled_from([0.1, 0.2, 0.3]), min_size=2, max_size=3, unique=True)
    )
    solver = {"t0": t0, "times": sorted(times), "local_error": 1e-6}
    if draw(st.booleans()):
        solver["x0"] = [draw(st.integers(0, 15)) for _ in range(n)]

    data = {"manifold": manifold, "solver": solver}
    names = list(PLAIN_CHECKS)
    if draw(st.booleans()):
        data["flow"] = {
            "family": draw(st.sampled_from(["static", "constant_rate", "sinusoidal"])),
            "params": {"rate": -0.4, "amplitude": 0.3, "frequency": 2.0},
            "horizon": 0.3,
        }
        names += FLOW_CHECKS
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    K_choices = [0.0, 0.5, "admissible"] + (["fitted"] if "flow" in data else [])
    checks = []
    for name in chosen:
        m = draw(st.lists(st.sampled_from([n + 0.5, n + 1.0, n + 2.0]), min_size=1,
                          max_size=2, unique=True))
        check = {"name": name, "m": m, "K": draw(st.sampled_from(K_choices))}
        if name == "operators_selftest":
            check["count"] = 2
        checks.append(check)
    data["checks"] = checks
    return data


def _set(path, value):
    def mutate(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _checks(*checks):
    return _set(["checks"], list(checks))


def _grid_of(value):
    """Every grid size replaced by ``value``, one per axis of the model."""
    def mutate(data):
        axes = 2 if data["manifold"]["model"] == "flat_torus_2d" else 1
        data["manifold"]["grid"] = [value] * axes
    return mutate


def _drop_flow(*checks):
    def mutate(data):
        data.pop("flow", None)
        data["checks"] = list(checks)
    return mutate


# each turns any valid config into an invalid one
SCHEMA_VIOLATIONS = {
    "no_manifold": lambda d: d.pop("manifold"),
    "manifold_not_a_mapping": _set(["manifold"], 5),
    "unknown_model": _set(["manifold", "model"], "sphere"),
    "odd_grid": _set(["manifold", "grid"], 63),
    "grid_below_minimum": _set(["manifold", "grid"], 8),
    "grid_is_a_string": _set(["manifold", "grid"], "abc"),
    "grid_is_missing": _set(["manifold", "grid"], None),
    "grid_of_floats": _grid_of(32.7),
    "grid_of_strings": _grid_of("16"),
    "grid_of_bools": _grid_of(True),
    "potential_k_is_a_float": _set(["manifold", "potential"],
                                   {"family": "cosine", "params": {"a": 0.5, "k": 1.5}}),
    "potential_l_is_a_float": _set(["manifold", "potential"],
                                   {"family": "cosine_sine", "params": {"l": 1.5}}),
    "potential_a_is_a_bool": _set(["manifold", "potential"],
                                  {"family": "cosine", "params": {"a": True}}),
    "potential_b_is_a_string": _set(["manifold", "potential"],
                                    {"family": "cosine", "params": {"b": "0.5"}}),
    "negative_period": _set(["manifold", "period"], -1.0),
    "unknown_potential": _set(["manifold", "potential"], {"family": "nope"}),
    "nan_potential": _set(["manifold", "potential"],
                          {"family": "cosine", "params": {"a": math.nan}}),
    "solver_not_a_mapping": _set(["solver"], 5),
    "zero_t0": _set(["solver", "t0"], 0.0),
    "t0_is_a_string": _set(["solver", "t0"], "abc"),
    "no_times": _set(["solver", "times"], []),
    "descending_times": _set(["solver", "times"], [0.3, 0.1]),
    "times_before_t0": _set(["solver", "times"], [0.01, 0.3]),
    "local_error_zero": _set(["solver", "local_error"], 0.0),
    "local_error_above_one": _set(["solver", "local_error"], 2.0),
    "x0_outside_grid": _set(["solver", "x0"], 999),
    "x0_with_three_indices": _set(["solver", "x0"], [0, 0, 0]),
    "x0_is_a_float": _set(["solver", "x0"], 1.5),
    "no_checks": _checks(),
    "checks_not_a_list": _set(["checks"], 5),
    "check_is_a_number": _checks(7),
    "unknown_check": _checks({"name": "nope"}),
    "m_missing": _checks({"name": "hamilton", "K": 0.0}),
    "m_is_a_string": _checks({"name": "hamilton", "m": "abc", "K": 0.0}),
    "m_negative": _checks({"name": "li_yau", "m": [-1.0]}),
    "m_nan": _checks({"name": "entropy", "m": [math.nan], "K": 0.0}),
    "m_below_dimension": _checks({"name": "hamilton", "m": [0.5], "K": 0.0}),
    "K_negative": _checks({"name": "hamilton", "m": [3.0], "K": -1.0}),
    "K_unknown_mode": _checks({"name": "hamilton", "m": [3.0], "K": "largest"}),
    "K_fitted_without_flow": _drop_flow({"name": "hamilton", "m": [3.0], "K": "fitted"}),
    "flow_check_without_flow": _drop_flow({"name": "flow_margin", "m": [3.0], "K": 0.0}),
    "flow_not_a_mapping": _set(["flow"], 5),
    "flow_without_family": _set(["flow"], {"horizon": 1.0}),
    "unknown_flow_family": _set(["flow"], {"family": "spiral"}),
    "negative_flow_horizon": _set(["flow"], {"family": "static", "horizon": -1.0}),
    "infinite_flow_horizon": _set(["flow"], {"family": "static", "horizon": math.inf}),
    "overflowing_flow": _set(
        ["flow"], {"family": "constant_rate", "params": {"rate": 5000.0}, "horizon": 0.3}
    ),
    "flow_rate_is_a_bool": _set(
        ["flow"], {"family": "constant_rate", "params": {"rate": True}, "horizon": 0.3}
    ),
    "flow_lambda0_is_a_string": _set(
        ["flow"], {"family": "constant_rate", "params": {"lambda0": "0.5"}, "horizon": 0.3}
    ),
    "flow_amplitude_is_a_bool": _set(
        ["flow"], {"family": "sinusoidal", "params": {"amplitude": True}, "horizon": 0.3}
    ),
    "flow_frequency_is_a_string": _set(
        ["flow"], {"family": "sinusoidal", "params": {"frequency": "2"}, "horizon": 0.3}
    ),
    "potential_not_a_mapping": _set(["manifold", "potential"], True),
    "potential_params_not_a_mapping": _set(
        ["manifold", "potential"], {"family": "cosine", "params": [1, 2]}
    ),
    "nan_t0": _set(["solver", "t0"], math.nan),
    "count_is_null": _checks({"name": "operators_selftest", "count": None}),
    "nodes_is_a_string": _checks({"name": "integrated", "m": [3.0], "nodes": "abc"}),
    "pairs_is_a_number": _checks({"name": "integrated", "m": [3.0], "pairs": 5}),
    "radius_is_a_list": _checks({"name": "ball_ratio", "r": [1]}),
    "center_is_a_string": _checks({"name": "ball_ratio", "center": "abc"}),
    "dump_defects_is_a_string": _checks(
        {"name": "hamilton", "m": [3.0], "K": 0.0, "dump_defects": "yes"}
    ),
}

JUNK = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1, 3, 17, 0.0, -0.5, 2.5, 1e300,
                     math.nan, math.inf, -math.inf, "", "abc", [], [1], [1, 2, 3],
                     {}, {"a": 1}]),
    st.integers(-5, 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)


def _leaf_paths(node, prefix=()):
    """Key paths of every mapping entry and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, prefix + (key,))


@FUZZ
@given(valid_configs())
def test_valid_configs_exit_0_or_1(data):
    code, err = run_cli(data)
    assert code in (0, 1), err
    assert "Traceback" not in err


@pytest.mark.parametrize("violation", sorted(SCHEMA_VIOLATIONS))
@settings(FUZZ, max_examples=3)
@given(valid_configs())
def test_schema_violations_exit_2(violation, data):
    SCHEMA_VIOLATIONS[violation](data)
    code, err = run_cli(data)
    assert code == 2, (violation, err)
    assert err.startswith("config error:") and "Traceback" not in err


@FUZZ
@given(valid_configs(), st.data())
def test_junk_values_keep_the_exit_contract(data, draw):
    path = draw.draw(st.sampled_from(sorted(_leaf_paths(data), key=repr)))
    mutated = copy.deepcopy(data)
    _set(list(path), draw.draw(JUNK))(mutated)
    code, err = run_cli(mutated)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
