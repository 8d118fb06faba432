"""Config validation and the command-line runner's contract."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import wittenlab
from wittenlab import cli, config, entropy, geometry, operators
from wittenlab.cli import _Runner, bundled_config_path, main, run_experiment
from wittenlab.config import CHECKS, REQUIRED, ConfigError, load_config, validate_experiment

from references import operators_selftest_loop


BASE = {
    "manifold": {"model": "circle", "grid": 64, "potential": {"family": "zero"}},
    "solver": {"t0": 0.05, "x0": 0, "times": [0.1, 0.3], "local_error": 1e-8},
    "checks": [{"name": "mass"}],
}


def write_config(tmp_path, data, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_validate_happy_path():
    cfg = validate_experiment(BASE)
    assert cfg.solver.times == (0.1, 0.3)
    assert cfg.checks[0].name == "mass"


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.pop("manifold"), "manifold"),
        (lambda d: d.update(checks=[]), "at least one"),
        (lambda d: d.update(checks=[{"name": "hamilton", "K": -2.0, "m": [1]}]), "nonnegative"),
        # a key the check does not read is named, not ignored
        (
            lambda d: d.update(checks=[{"name": "hamilton", "m": [2], "dump_defect": True}]),
            r"checks.hamilton has no key\(s\) \['dump_defect'\]",
        ),
        (lambda d: d.update(checks=[{"name": "mass", "m": [0.5]}]), r"checks.mass has no key"),
        (lambda d: d.update(checks=[{"name": "nope"}]), "unknown check"),
        (lambda d: d["solver"].update(times=[0.3, 0.1]), "ascending"),
        (lambda d: d["solver"].update(t0=-1.0), "positive"),
        (lambda d: d.update(checks=[{"name": "flow_margin", "m": [2]}]), "no flow"),
    ],
)
def test_validate_rejections(mutate, match):
    data = copy.deepcopy(BASE)
    mutate(data)
    with pytest.raises(ConfigError, match=match):
        validate_experiment(data)


def test_exponent_floats_without_a_dot_are_numbers(tmp_path):
    # JSON writes 1e-06, which PyYAML's safe loader alone reads as a string
    data = copy.deepcopy(BASE)
    data["solver"]["local_error"] = 1e-6
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    assert validate_experiment(load_config(str(path))).solver.local_error == 1e-6
    path.write_text(json.dumps(data).replace("1e-06", '"1e-06"'))
    with pytest.raises(ConfigError, match="local_error must be a finite number"):
        validate_experiment(load_config(str(path)))


TORUS_32 = {"model": "flat_torus_2d", "grid": [32, 32], "potential": {"family": "zero"}}


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(
            lambda d: d["manifold"].update(potential={"family": "nope"}),
            id="unknown_potential_family",
        ),
        pytest.param(lambda d: d["manifold"].update(grid=63), id="odd_grid"),
        pytest.param(lambda d: d["manifold"].update(grid=64.5), id="non_integer_grid"),
        pytest.param(lambda d: d.update(flow={"family": "nope"}), id="unknown_flow_family"),
        pytest.param(lambda d: d["solver"].update(x0=999), id="x0_outside_grid"),
        pytest.param(
            lambda d: (d.update(manifold=TORUS_32), d["solver"].update(x0=[3])),
            id="one_index_x0_on_torus",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "hamilton", "K": 0.5}]),
            id="hamilton_without_m",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "hamilton", "m": "abc", "K": 0.5}]),
            id="m_is_a_string",
        ),
        pytest.param(lambda d: d["solver"].update(t0="abc"), id="t0_is_a_string"),
        pytest.param(lambda d: d["solver"].update(t0=["x"]), id="t0_is_a_list"),
        pytest.param(
            lambda d: d["solver"].update(local_error="abc"), id="local_error_is_a_string"
        ),
        pytest.param(
            lambda d: d["solver"].update(local_error=["x"]), id="local_error_is_a_list"
        ),
        pytest.param(lambda d: d["solver"].update(times="abc"), id="times_is_a_string"),
        pytest.param(lambda d: d["solver"].update(times=["x"]), id="times_entry_is_a_string"),
        pytest.param(lambda d: d.update(manifold=5), id="manifold_not_a_mapping"),
        pytest.param(lambda d: d.update(solver=5), id="solver_not_a_mapping"),
        pytest.param(lambda d: d.update(flow=5), id="flow_not_a_mapping"),
        pytest.param(lambda d: d.update(checks=5), id="checks_not_a_list"),
        pytest.param(
            lambda d: (
                d["solver"].update(times=[0.1]),
                d.update(checks=[{"name": "entropy", "m": [2], "K": 0.0}]),
            ),
            id="entropy_with_one_snapshot",
        ),
        pytest.param(
            lambda d: d.update(
                flow={"family": "static", "horizon": 0.2},
                checks=[{"name": "flow_entropy", "m": [2], "K": 0.0}],
            ),
            id="flow_entropy_with_one_snapshot_in_horizon",
        ),
        pytest.param(
            lambda d: d.update(
                checks=[{"name": "curvature", "m": [1.0000001, 1.0000002]}]
            ),
            id="m_values_with_one_output_name",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "hamilton", "m": [2], "K": 5.0},
                                       {"name": "hamilton", "m": [2], "K": 0.0}]),
            id="check_listed_twice",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "integrated", "m": [2], "K": 0.0,
                                        "pairs": [[0.15, 0.3]]}]),
            id="integrated_pair_time_not_in_times",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "integrated", "m": [2], "K": 0.0,
                                        "pairs": [[0.3, 0.1]]}]),
            id="integrated_pair_tau_after_T",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "integrated", "m": [2], "K": 0.0,
                                        "pairs": []}]),
            id="integrated_empty_pairs",
        ),
        pytest.param(
            lambda d: (
                d["solver"].update(times=[0.1]),
                d.update(checks=[{"name": "integrated", "m": [2], "K": 0.0}]),
            ),
            id="integrated_without_pairs_with_one_snapshot",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "ball_ratio", "r": 2.0, "R": 1.0}]),
            id="ball_ratio_r_not_below_R",
        ),
        pytest.param(
            lambda d: d.update(checks=[{"name": "ball_ratio", "R": 10.0}]),
            id="ball_ratio_R_beyond_injectivity_scale",
        ),
        pytest.param(
            lambda d: d["manifold"].update(
                potential={"family": "samples", "samples": [0.0] * 63 + [float("nan")]}
            ),
            id="sampled_potential_with_nan",
        ),
        pytest.param(
            lambda d: d["manifold"].update(
                potential={"family": "samples", "samples": [0.0] * 63 + [800.0]}
            ),
            id="sampled_potential_whose_weight_underflows",
        ),
        pytest.param(
            lambda d: d["manifold"].update(potential={"family": "cosine_sine"}),
            id="cosine_sine_on_a_circle",
        ),
        pytest.param(lambda d: d["manifold"].update(grid=[64, 64]), id="two_grid_sizes_on_a_circle"),
    ],
)
def test_invalid_input_exits_2_without_traceback(tmp_path, capsys, mutate):
    data = copy.deepcopy(BASE)
    mutate(data)
    path = write_config(tmp_path, data)
    assert main(["all", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "mutate, quantity",
    [
        pytest.param(
            lambda d: d["manifold"].update(
                grid=32, potential={"family": "samples", "samples": [-800.0] * 32}
            ),
            "measure weights exp(-phi) * cell volume overflow",
            id="sampled_potential_whose_weights_overflow",
        ),
        pytest.param(
            lambda d: d["manifold"].update(
                grid=32, potential={"family": "samples", "samples": [-709.0] * 32}
            ),
            "total measure mu_total",
            id="sampled_potential_whose_total_measure_overflows",
        ),
        pytest.param(
            lambda d: d["manifold"].update(potential={"family": "cosine", "params": {"a": 800.0}}),
            "measure weights exp(-phi) * cell volume overflow",
            id="cosine_potential_whose_weights_overflow",
        ),
        pytest.param(
            lambda d: d.update(
                flow={"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 1e300},
                checks=[{"name": "flow_margin", "m": [2], "K": 0.0}],
            ),
            "flow: the conformal factor e^(2 lam(t)) leaves double range",
            id="flow_horizon_whose_conformal_factor_overflows",
        ),
    ],
)
def test_out_of_range_weights_and_flows_exit_2_naming_the_quantity(
    tmp_path, capsys, mutate, quantity
):
    data = copy.deepcopy(BASE)
    mutate(data)
    path = write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the run
        assert main(["all", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and quantity in err, err


def regular_file(tmp_path):
    path = tmp_path / "a_file"
    path.write_text("")
    return path


@pytest.mark.parametrize(
    "config,out",
    [
        pytest.param(
            lambda p: write_config(p, [BASE]), lambda p: p / "out", id="yaml_root_is_a_list"
        ),
        pytest.param(lambda p: p, lambda p: p / "out", id="config_is_a_directory"),
        pytest.param(
            lambda p: "liyau_circle", lambda p: regular_file(p) / "sub",
            id="out_below_a_regular_file",
        ),
    ],
)
def test_unusable_paths_exit_2_without_traceback(tmp_path, capsys, config, out):
    argv = ["all", "--config", str(config(tmp_path)), "--out", str(out(tmp_path))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "blocked", ["snapshots.csv", "curvature.npy", "summary.json", "timing.json"]
)
def test_an_output_that_cannot_be_written_exits_2_without_traceback(tmp_path, capsys, blocked):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    assert main(["all", "--config", "liyau_circle", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out: cannot write {out / blocked}: ")
    assert "Traceback" not in err
    assert not [f for f in os.listdir(out) if f.startswith(".tmp_")]


def test_a_run_builds_each_curvature_tensor_once_per_m(tmp_path, monkeypatch):
    """torus_hamilton resolves K for m = 3 and 4 in three checks."""
    built = []
    build = geometry._bakry_emery_tensor

    def counting(manifold, m):
        built.append(float(m))
        return build(manifold, m)

    monkeypatch.setattr(geometry, "_bakry_emery_tensor", counting)
    assert main(["all", "--config", "torus_hamilton", "--out", str(tmp_path)]) == 0
    assert sorted(built) == [3.0, 4.0]


@pytest.mark.parametrize(
    "checks,options",
    [
        pytest.param(["mass"], [], id="bare_check_name"),
        pytest.param(
            [{"name": "mass"}, {"name": "curvature", "m": [2]}], ["--check", "mass"],
            id="check_option_selects_one_of_two",
        ),
    ],
)
def test_runs_of_the_mass_check_alone(tmp_path, checks, options):
    path = write_config(tmp_path, {**BASE, "checks": checks})
    out = tmp_path / "out"
    assert main(["all", "--config", path, "--out", str(out), *options]) == 0
    assert list(json.loads((out / "summary.json").read_text())) == ["mass_conservation"]
    assert not [f for f in os.listdir(out) if f.startswith("curvature")]


def test_every_check_has_one_handler():
    handlers = {name[len("check_"):] for name in dir(_Runner) if name.startswith("check_")}
    assert handlers == set(CHECKS)


def test_missing_x0_starts_at_the_origin(tmp_path):
    data = copy.deepcopy(BASE)
    data.update(manifold=TORUS_32)
    data["solver"]["x0"] = None  # an explicit null is the origin too
    assert validate_experiment(data).solver.x0 is None
    del data["solver"]["x0"]
    assert validate_experiment(data).solver.x0 is None
    path = write_config(tmp_path, data)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_unresolved_start_kernel_names_t0(tmp_path, capsys):
    # t0 = 0.02 is below the squared spacing (2 pi / 16)^2 of a 16-node
    # circle: the sampled kernel is not resolved and the exact propagation
    # loses positivity, with no step size involved.
    data = copy.deepcopy(BASE)
    data["manifold"]["grid"] = 16
    data["solver"]["t0"] = 0.02
    path = write_config(tmp_path, data)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "negative value" in err
    assert "t=0.02 (solver.t0) is below the squared grid spacing 0.154213" in err
    assert "reduce dt" not in err


def test_warm_up_ramp_that_loses_positivity_names_t0_not_dt(tmp_path, capsys):
    # the implicit Euler ramp on this potential dips to -2.3e-6 of its
    # maximum for every t0; its substeps follow from t0, so no dt to reduce
    data = copy.deepcopy(BASE)
    data["manifold"] = {
        "model": "circle",
        "grid": 256,
        "potential": {"family": "cosine", "params": {"a": 2.0, "k": 3}},
    }
    path = write_config(tmp_path, data)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: delta warm-up: negative value")
    assert "lower the potential's amplitude or change solver.t0" in err
    assert "reduce dt" not in err
    assert "Traceback" not in err


def test_a_flow_whose_base_clock_outruns_the_step_budget_exits_1(tmp_path, capsys):
    # rate -5 takes the base clock to 4.85e7 at t = 2: refused before any step
    data = copy.deepcopy(BASE)
    data["manifold"]["potential"] = {"family": "cosine", "params": {"a": 0.3, "k": 1}}
    data["solver"]["times"] = [0.1, 2.0]
    data["flow"] = {"family": "constant_rate", "params": {"rate": -5.0}, "horizon": 2.0}
    data["checks"] = [{"name": "flow_entropy", "m": [3], "K": 1.0}]
    path = write_config(tmp_path, data)
    assert main(["all", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: evolve from t=0.05: time span 4.85165e+07")
    assert "step budget of 100000 steps of at most 0.25" in err
    assert "Traceback" not in err


TORUS_32x48 = {
    "model": "flat_torus_2d",
    "grid": [32, 48],
    "potential": {"family": "cosine_sine", "params": {"a": 0.5, "k": 1, "b": 0.3, "l": 2}},
}


def test_unresolved_exact_start_on_a_weighted_torus_exits_1(tmp_path, capsys):
    # the exact start kernel of the 32x48 torus at t0 = 0.05 is not positive
    data = copy.deepcopy(BASE)
    data["manifold"] = TORUS_32x48
    data["solver"]["x0"] = [0, 0]
    path = write_config(tmp_path, data)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: exact start at t0=0.05: negative value")
    assert "t=0.05 (solver.t0) is at or above the squared grid spacing 0.0385531" in err
    assert "Traceback" not in err


def test_clamped_exact_start_on_a_weighted_torus_conserves_mass(tmp_path):
    # at t0 = 0.08 the start dips to -1.3e-9 of its maximum, within rounding
    # tolerance: the clamped nodes must not add mass
    data = copy.deepcopy(BASE)
    data["manifold"] = TORUS_32x48
    data["solver"].update(x0=[0, 0], t0=0.08)
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    entry = json.loads((out / "summary.json").read_text())["mass_conservation"]
    assert entry["ok"] and entry["max_drift"] <= 1e-14


def test_bundled_torus_source_shifted_along_y_passes_like_the_origin(tmp_path):
    # the torus_hamilton potential is constant in y, so a source at y-node 32
    # is a translate of the one at the origin; there the exact start's
    # rounding-level tail is negative and raised to the rounding floor
    data = load_config(bundled_config_path("torus_hamilton"))
    worst = []
    for y in (0, 32):
        data["solver"]["x0"] = [0, y]
        path = write_config(tmp_path, data)
        out = tmp_path / f"out{y}"
        assert main(["all", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        worst.append(summary["harnack_hamilton"]["worst_defect"])
    assert worst[1] == pytest.approx(worst[0], rel=1e-9)


@pytest.mark.parametrize(
    "name,key", [(name, key) for name, kind in CHECKS.items() for key in kind.keys]
)
def test_null_check_keys_are_rejected_and_absent_ones_take_the_default(name, key):
    data = copy.deepcopy(BASE)
    data["flow"] = {"family": "static"}
    check = {"name": name, key: None}
    if key != "m" and "m" in CHECKS[name].keys:
        check["m"] = [3.0]
    data["checks"] = [check]
    default = CHECKS[name].keys[key]
    with pytest.raises(ConfigError) as info:
        validate_experiment(data)
    assert str(info.value) == (
        f"checks.{name}.{key} is null; its config.CHECKS default, {default!r}, "
        f"holds only when the key is left out"
    )
    del check[key]
    if key == "m":
        if default == REQUIRED:
            with pytest.raises(ConfigError, match="needs at least one m value"):
                validate_experiment(data)
        else:
            assert validate_experiment(data).checks[0].m_values == default
    else:
        assert validate_experiment(data).checks[0].options[key] == default


def test_snapshot_times_have_one_rule(circle_cos):
    # solver.times against solver.t0 and evolve's times against its state
    data = copy.deepcopy(BASE)
    state = wittenlab.uniform_state(circle_cos, t=0.05)
    for times, message in [
        ([0.01, 0.3], "first snapshot 0.01 is before the start time 0.05"),
        ([0.3, 0.1], "snapshot times must be strictly ascending"),
        # two labels for one state: evolve lands once for targets this close
        ([0.1, 0.2, 0.20000000000005, 0.3], "snapshot times must be strictly ascending, "
         "each more than 1e-13 after the one before; got 0.2 then 0.20000000000005"),
        ([0.1, "0.3"], "snapshot times must be finite numbers"),
        ([0.1, True], "snapshot times must be finite numbers"),
        ([0.1, float("inf")], "snapshot times must be finite numbers"),
    ]:
        data["solver"]["times"] = times
        with pytest.raises(ConfigError, match=f"^solver.times: {message}"):
            validate_experiment(data)
        with pytest.raises(ValueError, match=f"^{message}"):
            wittenlab.evolve(state, times)
    # within 1e-12 of the start time counts as the start time, on both paths
    data["solver"]["times"] = [0.05 - 5e-13, 0.3]
    assert validate_experiment(data).solver.times == (0.05 - 5e-13, 0.3)
    assert wittenlab.evolve(state, [0.05 - 5e-13])[0] is state


def test_near_duplicate_solver_times_exit_2_naming_them(tmp_path, capsys):
    # once a second row at t = 0.2 with a NaN dW_dt_numeric and exit 0
    data = {
        **BASE,
        "manifold": {"model": "circle", "grid": 64,
                     "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}}},
        "solver": {**BASE["solver"], "times": [0.1, 0.2, 0.20000000000005, 0.3]},
        "checks": [{"name": "entropy", "m": [2]}],
    }
    out = tmp_path / "out"
    assert main(["all", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: solver.times: snapshot times must be strictly ascending"
    )
    assert not out.exists()


def test_negative_K_exits_2(tmp_path):
    data = {
        **BASE,
        "checks": [{"name": "hamilton", "m": [2], "K": -1.0}],
    }
    path = write_config(tmp_path, data)
    assert main(["harnack", "--config", path, "--out", str(tmp_path / "out")]) == 2


# the loader load_config uses, and the pure-Python one it falls back to
# where PyYAML has no libyaml
LOADERS = [config._Loader, config._safe_loader(yaml.SafeLoader)]


def test_both_yaml_loaders_read_every_config_alike(tmp_path):
    # a generated config with 120 times, written as JSON like the benchmark's
    data = copy.deepcopy(BASE)
    data["solver"]["times"] = [0.1 + 1.7 * i / 119 for i in range(120)]
    data["solver"]["local_error"] = 1e-6
    generated = tmp_path / "generated.yaml"
    generated.write_text(json.dumps(data, indent=1))
    names = ["hamilton_cosine", "liyau_circle", "shrinking_flow", "torus_hamilton"]
    for path in [bundled_config_path(name) for name in names] + [str(generated)]:
        fast, python = (yaml.load(Path(path).read_text(), Loader=L) for L in LOADERS)
        assert fast == python, path
    assert python == data


@pytest.mark.parametrize("loader", LOADERS, ids=["default", "pure_python"])
def test_malformed_yaml_exits_2(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(config, "_Loader", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("manifold: [unbalanced")
    assert main(["all", "--config", str(path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["all", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_bundled_names_resolve():
    for name in ("liyau_circle", "hamilton_cosine", "torus_hamilton", "shrinking_flow"):
        assert os.path.exists(bundled_config_path(name))
    with pytest.raises(ConfigError):
        bundled_config_path("unknown_config")


def test_small_run_exit_zero_and_outputs(tmp_path):
    data = {
        "manifold": {
            "model": "circle",
            "grid": 64,
            "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
        },
        "solver": {"t0": 0.05, "x0": 0, "times": [0.1, 0.5], "local_error": 1e-8},
        "checks": [
            {"name": "hamilton", "m": [2], "K": "admissible"},
            {"name": "mass"},
            {"name": "curvature", "m": [2]},
        ],
    }
    path = write_config(tmp_path, data)
    out = str(tmp_path / "out")
    assert main(["all", "--config", path, "--out", out]) == 0
    for f in ("summary.txt", "summary.json", "harnack_hamilton.csv", "snapshots.csv"):
        assert os.path.exists(os.path.join(out, f)), f
    first = Path(out, "harnack_hamilton.csv").read_text().splitlines()[0]
    assert first.startswith("# wittenlab harnack v1:")


@pytest.mark.parametrize(
    "manifold",
    [{"model": "circle", "grid": 256, "period": 5.0},
     {"model": "flat_torus_2d", "grid": [32, 48], "period": [5.0, 7.0]}],
    ids=["circle_period_5", "torus_periods_5_7"],
)
def test_operators_selftest_passes_on_periods_other_than_2pi(tmp_path, manifold):
    data = {
        "manifold": manifold,
        "solver": {"t0": 0.05, "times": [0.1, 0.3]},
        "checks": [{"name": "operators_selftest"}],
    }
    out = str(tmp_path / "out")
    assert main(["all", "--config", write_config(tmp_path, data), "--out", out]) == 0


SELFTEST_MODELS = {
    "circle_cos": {
        "model": "circle", "grid": 256, "potential": {"family": "cosine", "params": {"a": 1.0, "k": 1}},
    },
    "torus_32x48": {
        "model": "flat_torus_2d", "grid": [32, 48],
        "potential": {"family": "cosine_sine", "params": {"a": 0.5, "k": 1, "b": 0.3, "l": 2}},
    },
}


def selftest_runner(model, count, seed):
    data = {
        "manifold": SELFTEST_MODELS[model],
        "solver": {"t0": 0.05, "times": [0.1]},
        "checks": [{"name": "operators_selftest", "count": count}],
    }
    runner = _Runner(validate_experiment(data), {"operators_selftest"}, seed)
    return runner, runner.checks[0]


@pytest.mark.parametrize("block_pairs", [None, 3], ids=["module_blocks", "blocks_of_3_pairs"])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("model", sorted(SELFTEST_MODELS))
def test_blocked_selftest_equals_the_per_field_loop(monkeypatch, model, seed, block_pairs):
    for count in (3, 7):  # with blocks of 3 pairs: one full block; three, the last partial
        runner, check = selftest_runner(model, count, seed)
        if block_pairs is not None:
            block = 2 * block_pairs * math.prod(runner.manifold.shape)
            monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", block)
        runner.check_operators_selftest(check)
        entry = runner.summary["operators_selftest"]
        worst = (entry["worst_bochner_residual"], entry["worst_adjointness_gap"])
        assert worst == operators_selftest_loop(runner.manifold, count, seed)
        assert entry["fields"] == count


@pytest.mark.parametrize("name", ["bochner_residual", "mu_inner"])
def test_a_nan_selftest_residual_or_gap_fails_the_check(monkeypatch, name):
    """A NaN in one field's residual or inner product is the worst value and
    fails the check; a running max(worst, nan) kept the finite worst."""
    original = getattr(cli, name)

    def last_field_nan(*args):
        out = np.array(original(*args))
        out[-1] = np.nan
        return out

    monkeypatch.setattr(cli, name, last_field_nan)
    runner, check = selftest_runner("circle_cos", 3, 0)
    runner.check_operators_selftest(check)
    entry = runner.summary["operators_selftest"]
    key = "worst_bochner_residual" if name == "bochner_residual" else "worst_adjointness_gap"
    assert not entry["ok"] and math.isnan(entry[key])


def test_a_nan_tilde_identity_residual_fails_the_check(monkeypatch):
    """A NaN identity residual is the worst and fails the check; a running
    max(worst, *residuals) kept the finite worst."""
    original = entropy.tilde_w_comparison

    def last_residual_nan(*args):
        out = original(*args)
        out["identity_residual"] = np.append(out["identity_residual"][:-1], np.nan)
        return out

    monkeypatch.setattr(entropy, "tilde_w_comparison", last_residual_nan)
    data = {**BASE, "checks": [{"name": "tilde_identity", "m": [2, 3]}]}
    runner = _Runner(validate_experiment(data), {"tilde_identity"}, 0)
    runner.check_tilde_identity(runner.checks[0])
    entry = runner.summary["tilde_identity"]
    assert not entry["ok"] and math.isnan(entry["worst_residual"])


def test_selftest_transforms_do_not_grow_with_count_within_a_block(fft_calls):
    # a block of the 256-node circle holds at least 10 pairs
    calls = []
    for count in (5, 10):
        runner, check = selftest_runner("circle_cos", count, 0)
        runner.check_operators_selftest(check)  # fills the manifold's caches
        fft_calls.clear()
        runner.check_operators_selftest(check)
        calls.append(sum(fft_calls.values()))
    assert calls[0] == calls[1] > 0


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_negative_seed_exits_2_before_any_check(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["all", "--config", "liyau_circle", "--out", str(out), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --seed") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_run_experiment_rejects_seeds_other_than_non_negative_integers(tmp_path, seed):
    config = validate_experiment(BASE, out_override=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="--seed"):
        run_experiment(config, seed=seed)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_check_option_naming_no_check_exits_2(tmp_path, capsys, names):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE)
    assert main(["all", "--config", path, "--out", str(out), "--check", names]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --check") and "names no check" in err
    assert not out.exists()


def test_check_filter_and_subcommands(tmp_path):
    data = {
        **BASE,
        "checks": [{"name": "mass"}, {"name": "curvature", "m": [2]}],
    }
    path = write_config(tmp_path, data)
    out = str(tmp_path / "out")
    # "simulate" runs only the mass check even though curvature is configured
    assert main(["simulate", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "snapshots.csv"))
    assert not [f for f in os.listdir(out) if f.startswith("curvature")]
    # a selection with no overlap is a config error
    assert main(["harnack", "--config", path, "--out", out]) == 2
    # unknown --check name
    assert main(["all", "--config", path, "--check", "bogus", "--out", out]) == 2


def test_grid_scale(tmp_path):
    data = {
        **BASE,
        "checks": [{"name": "curvature", "m": [2]}],
    }
    path = write_config(tmp_path, data)
    out = str(tmp_path / "out")
    assert main(["curvature", "--config", path, "--grid-scale", "2", "--out", out]) == 0
    assert np.load(os.path.join(out, "curvature.npy")).shape == (1, 128)  # 64 * 2 nodes
    assert Path(out, "curvature_rows.csv").read_text().splitlines()[1:] == ["m", "2.0"]


def test_grid_scale_maps_the_source_and_the_ball_centre_onto_the_refined_grid(tmp_path):
    """Nodes name points: at --grid-scale 2 solver.x0 [32, 36] of the 64x64
    torus is node (64, 72) of the 128x128 one, where the t = 0.1 peak lands,
    at the unscaled run's point and max u; a ball centre scales alike.  A
    snapshot row's node is its position within its snapshot in C order,
    and node i of an axis of n nodes and period L lies at i * L / n."""
    data = {
        "manifold": {
            "model": "flat_torus_2d", "grid": 64,
            "potential": {"family": "cosine", "params": {"a": 0.5}},
        },
        "solver": {"t0": 0.05, "x0": [32, 36], "times": [0.1]},
        "checks": ["mass", {"name": "ball_ratio", "m": [3], "center": [3, 5]}],
    }
    scaled = validate_experiment(data, grid_scale=2)
    assert scaled.solver.x0 == (64, 72)
    assert scaled.checks[1].options["center"] == (6, 10)
    path = write_config(tmp_path, data)
    peaks = []
    for scale in (1, 2):
        out = tmp_path / f"out{scale}"
        argv = ["simulate", "--config", path, "--out", str(out), "--grid-scale", str(scale)]
        assert main(argv) == 0
        u = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=2)[:, -1]
        M = wittenlab.build_manifold(validate_experiment(data, grid_scale=scale).manifold)
        n = M.grid_sizes[0]
        row = int(u.argmax())
        node = divmod(row % n**2, n)
        point = tuple(i * (L / n) for i, L in zip(node, M.circumferences))
        peaks.append((node, point, u[row]))
    (_, point, u), (node2, point2, u2) = peaks
    assert node2 == (64, 72)
    assert point2 == point
    assert u2 == pytest.approx(u, rel=1e-5)


def test_grid_scale_refuses_a_samples_potential_naming_the_flag(tmp_path, capsys):
    manifold = {"model": "circle", "grid": 64, "potential": {"family": "samples"}}
    manifold["potential"]["samples"] = [0.0] * 64
    path = write_config(tmp_path, {**BASE, "manifold": manifold})
    argv = ["simulate", "--config", path, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--grid-scale", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --grid-scale 2 cannot refine a 'samples' potential")


@pytest.mark.parametrize("scale", [0, -2, 1.5, True, "2"])
def test_grid_scale_below_one_or_not_an_integer_exits_2_naming_it(tmp_path, capsys, scale):
    with pytest.raises(ConfigError, match="^--grid-scale must be an integer >= 1"):
        validate_experiment(BASE, grid_scale=scale)
    if isinstance(scale, int) and not isinstance(scale, bool):
        path = write_config(tmp_path, BASE)
        argv = ["all", "--config", path, "--out", str(tmp_path / "out")]
        assert main([*argv, "--grid-scale", str(scale)]) == 2
        assert capsys.readouterr().err.startswith("config error: --grid-scale must be")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [None, ["a", "b"], True, "", 5])
def test_out_that_is_not_a_non_empty_string_exits_2_naming_it(tmp_path, monkeypatch, capsys, out):
    data = {**BASE, "out": out}
    with pytest.raises(ConfigError, match="^out must be a non-empty string"):
        validate_experiment(data)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, data)
    assert main(["all", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: out must be a non-empty string")
    assert os.listdir(tmp_path) == ["exp.yaml"]


def test_empty_out_flag_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    # an empty --out used to fall back to the config's out, or ./wittenlab_out
    for override in ("", 5, ["a"]):
        with pytest.raises(ConfigError, match="^--out must be a non-empty string"):
            validate_experiment(BASE, out_override=override)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {**BASE, "out": "from_config"})
    assert main(["all", "--config", path, "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("config error: --out must be a non-empty string")
    assert main(["curvature", "--config", "liyau_circle", "--out", ""]) == 2
    assert os.listdir(tmp_path) == ["exp.yaml"]


@pytest.mark.parametrize("grid", [["16"], "16", [32.7], True])
def test_grid_sizes_must_be_integers_before_scaling(grid):
    # a string grid times 2 would be "1616", a float one truncated
    data = copy.deepcopy(BASE)
    data["manifold"]["grid"] = grid
    with pytest.raises(ConfigError, match="manifold.grid must be an integer"):
        validate_experiment(data, grid_scale=2)


@pytest.mark.parametrize(
    "model,grid,m", [("circle", 64, 2), ("flat_torus_2d", [32, 48], 3)], ids=["circle", "torus"]
)
def test_byte_identical_outputs(tmp_path, model, grid, m):
    data = {
        "manifold": {
            "model": model,
            "grid": grid,
            "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
        },
        "solver": {"t0": 0.1, "times": [0.2, 0.3], "local_error": 1e-8},
        "flow": {"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 0.3},
        "checks": [
            {"name": "hamilton", "m": [m], "K": "admissible", "dump_defects": True},
            {"name": "mass"},
            {"name": "curvature", "m": [m, m + 1]},
            {"name": "flow_margin", "m": [m], "K": "fitted"},
        ],
    }
    path = write_config(tmp_path, data)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["all", "--config", path, "--out", str(out), "--seed", "7"]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert {"defect_hamilton.npy", "curvature.npy", "flow_margin_field.npy"} <= set(names)
    for fname in names:
        if fname != "timing.json":
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


@pytest.mark.parametrize(
    "name", ["liyau_circle", "hamilton_cosine", "torus_hamilton", "shrinking_flow"]
)
def test_bundled_run_does_not_import_scipy(tmp_path, name):
    # scipy is a test-only reference: importing scipy.ndimage or scipy.linalg
    # costs a large share of start-up time and tens of megabytes of memory
    code = (
        "import sys\n"
        "from wittenlab.cli import main\n"
        f"code = main(['all', '--config', {name!r}, '--out', {str(tmp_path)!r}])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(code, loaded)\n"
    )
    src = str(Path(wittenlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split()[-2:] == ["0", "[]"]


WEIGHTED_CIRCLE = {
    "model": "circle",
    "grid": 64,
    "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
}
WEIGHTED_TORUS = {
    "model": "flat_torus_2d",
    "grid": [32, 32],
    "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
}


@pytest.mark.parametrize(
    "manifold,check",
    [
        pytest.param(
            WEIGHTED_CIRCLE, {"name": "hamilton", "m": [1], "K": "admissible"}, id="hamilton"
        ),
        # m = 2 is the torus dimension
        pytest.param(WEIGHTED_TORUS, {"name": "ball_ratio", "m": [2]}, id="ball_ratio_m2"),
    ],
)
def test_m_equal_to_n_on_a_weighted_model_exits_2(tmp_path, capsys, manifold, check):
    data = {**BASE, "manifold": manifold, "solver": {**BASE["solver"], "x0": None}}
    data["checks"] = [check]
    path = write_config(tmp_path, data)
    assert main(["all", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"checks.{check['name']}.m=" in err and "needs a constant potential" in err


def test_ball_ratio_without_m_takes_n_plus_1_on_every_model(tmp_path):
    """The default m of ball_ratio is n + 1, as curvature's is: 3 on a
    weighted torus, where m = n = 2 needs a constant potential, and 2 on a
    circle, as before."""
    for manifold, name in ((WEIGHTED_TORUS, "ball_ratio_m3"), (WEIGHTED_CIRCLE, "ball_ratio_m2")):
        out = tmp_path / name
        data = {**BASE, "manifold": manifold, "solver": {**BASE["solver"], "x0": None}}
        data["checks"] = [{"name": "ball_ratio"}]
        path = write_config(tmp_path, data)
        assert main(["all", "--config", path, "--out", str(out)]) == 0
        assert list(json.loads((out / "summary.json").read_text())) == [name]


@pytest.mark.parametrize("nodes", [2, 3, 5])
def test_integrated_nodes_on_a_torus_must_be_a_square(tmp_path, capsys, nodes):
    data = {**BASE, "manifold": TORUS_32, "solver": {**BASE["solver"], "x0": None}}
    data["checks"] = [{"name": "integrated", "m": [3], "K": 0.0, "nodes": nodes}]
    path = write_config(tmp_path, data)
    assert main(["harnack", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"checks.integrated.nodes={nodes} is not a perfect square" in capsys.readouterr().err
    data["checks"][0]["nodes"] = 9
    path = write_config(tmp_path, data)
    assert main(["harnack", "--config", path, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "harnack_integrated.csv") as handle:
        assert sum(1 for line in handle if line[0].isdigit()) == 9 * 9


def test_integrated_pair_reads_the_row_at_its_time_not_a_near_one(tmp_path):
    # 0.5 and 0.50000000005 are two snapshots (their gap exceeds evolve's
    # 1e-13), each within the lookup tolerance 1e-10 of the other
    T = 0.50000000005
    data = {
        **BASE,
        "manifold": {"model": "circle", "grid": 64,
                     "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}}},
        "solver": {**BASE["solver"], "times": [0.2, 0.5, T]},
        "checks": [{"name": "integrated", "m": [2], "K": 0.0, "nodes": 4, "pairs": [[0.2, T]]}],
    }
    out = tmp_path / "out"
    assert main(["harnack", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    stack = _Runner(validate_experiment(data), {"integrated"}, seed=0).stack()
    assert stack.t == (0.2, 0.5, T)
    u_tau, u_near, u_T = stack.u
    rows = [line.split(",") for line in (out / "harnack_integrated.csv").read_text().splitlines()]
    assert rows[1][:8] == ["x", "y", "tau", "T", "m", "K", "distance", "lhs"]
    assert len(rows[2:]) == 16
    for row in rows[2:]:
        x, y, lhs = int(row[0]), int(row[1]), float(row[7])
        assert float(row[3]) == T
        assert lhs.hex() == (u_tau[x] / u_T[y]).hex()
        assert lhs != u_tau[x] / u_near[y]


@pytest.mark.parametrize(
    "model,grid,x0,nodes,fitting",
    [
        pytest.param("circle", 16, 0, 64, 16, id="circle"),
        pytest.param("flat_torus_2d", [16, 24], [0, 0], 17 * 17, 16 * 16, id="torus"),
    ],
)
def test_integrated_nodes_beyond_the_grid_exit_2(
    tmp_path, capsys, model, grid, x0, nodes, fitting
):
    """A sample side longer than a grid axis would repeat nodes; at the
    grid size every pair is distinct."""
    data = {
        "manifold": {"model": model, "grid": grid, "potential": {"family": "zero"}},
        "solver": {"t0": 0.3, "x0": x0, "times": [0.5, 1.0], "local_error": 1e-8},
        "checks": [{"name": "integrated", "m": [3], "K": 0.0, "nodes": nodes}],
    }
    out = tmp_path / "out"
    assert main(["harnack", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    assert f"checks.integrated.nodes={nodes} samples" in capsys.readouterr().err
    assert not out.exists()
    data["checks"][0]["nodes"] = fitting
    assert main(["harnack", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    with open(out / "harnack_integrated.csv") as handle:
        pairs = [line.split(",")[:2] for line in handle if line[0].isdigit()]
    assert len(pairs) == len(set(map(tuple, pairs))) == fitting * fitting


def test_integrated_rhs_overflow_reads_inf(tmp_path):
    """T - tau = 1e-7 overflows exp(d^2 / (4 (T - tau))): the bound is inf and holds."""
    data = {**BASE, "solver": {**BASE["solver"], "t0": 0.3, "times": [0.5, 0.5000001, 1.0]}}
    data["checks"] = [{"name": "integrated", "m": [2], "pairs": [[0.5, 0.5000001]]}]
    out = tmp_path / "out"
    assert main(["harnack", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    with open(out / "harnack_integrated.csv") as handle:
        rows = [line.rstrip("\n").split(",") for line in handle if line[0].isdigit()]
    assert [row[8] == "inf" for row in rows] == [row[6] != "0.0" for row in rows]
    assert all(row[9] == "1" for row in rows)


@pytest.mark.parametrize(
    "solver_x0,center,message",
    [
        (-1, None, "solver.x0: node [-1] lies outside the grid (64,)"),
        (0, [64], "checks.ball_ratio.center: node [64] lies outside the grid (64,)"),
        (0, [0, 0], "checks.ball_ratio.center: node [0, 0] needs 1 index(es) on model"),
    ],
)
def test_configured_nodes_outside_the_grid_exit_2(tmp_path, capsys, solver_x0, center, message):
    data = {**BASE, "solver": {**BASE["solver"], "x0": solver_x0}}
    ball = {"name": "ball_ratio", "center": center}
    if center is None:  # an explicit null center exits 2 by itself
        del ball["center"]
    data["checks"] = [{"name": "mass"}, ball]
    path = write_config(tmp_path, data)
    assert main(["all", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any check runs


def test_timing_file_beside_an_unchanged_summary(tmp_path):
    data = {
        **BASE,
        "manifold": {
            "model": "circle",
            "grid": 64,
            "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
        },
        "checks": [
            {"name": "hamilton", "m": [2], "K": "admissible"},
            {"name": "entropy", "m": [2, 3], "K": "admissible"},
            {"name": "curvature", "m": [2]},
            {"name": "mass"},
        ],
    }
    path = write_config(tmp_path, data)
    outs = [str(tmp_path / tag) for tag in ("a", "b")]
    for out in outs:
        assert main(["all", "--config", path, "--out", out]) == 0
    summaries = [Path(out, "summary.json").read_bytes() for out in outs]
    assert summaries[0] == summaries[1]
    assert set(json.loads(summaries[0])) == {
        "harnack_hamilton",
        "entropy_m2",
        "entropy_m3",
        "curvature_m2",
        "mass_conservation",
    }
    timing = json.loads(Path(outs[0], "timing.json").read_text())
    assert set(timing["checks"]) == {c["name"] for c in data["checks"]}
    for name, entry in timing["checks"].items():
        assert entry["wall_s"] == pytest.approx(entry["compute_s"] + entry["output_s"])
        assert entry["compute_s"] >= 0.0 and entry["output_s"] >= 0.0, name
    assert timing["checks"]["mass"]["output_s"] > 0.0
    assert 0.0 < timing["heat_flow_s"] <= timing["total_s"]


def test_both_entropy_checks_record_one_key_set(tmp_path):
    data = copy.deepcopy(BASE)
    data.update(
        flow={"family": "constant_rate", "params": {"rate": -0.2}, "horizon": 1.0},
        checks=[
            {"name": "entropy", "m": [2], "K": 0.0},
            {"name": "flow_entropy", "m": [2], "K": "fitted"},
        ],
    )
    out = tmp_path / "out"
    assert main(["all", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    keys = {"ok", "worst_monotonicity_gap", "K"}
    assert set(summary["entropy_m2"]) == set(summary["flow_entropy_m2"]) == keys


def test_load_config_reads_yaml(tmp_path):
    path = write_config(tmp_path, BASE)
    data = load_config(path)
    assert data["manifold"]["model"] == "circle"


def test_defect_field_dump(tmp_path):
    data = {
        **BASE,
        "checks": [{"name": "hamilton", "m": [2], "K": 0.5, "dump_defects": True}],
    }
    path = write_config(tmp_path, data)
    out = str(tmp_path / "out")
    assert main(["harnack", "--config", path, "--out", out]) == 0
    dumps = sorted(f for f in os.listdir(out) if f.startswith("defect_"))
    assert dumps == ["defect_hamilton.npy", "defect_hamilton_rows.csv"]
    # one field of 64 nodes per snapshot, keyed by its t and m
    lines = Path(out, dumps[1]).read_text().splitlines()
    assert lines[1:] == ["t,m", "0.1,2.0", "0.3,2.0"]
    M = wittenlab.build_manifold(BASE["manifold"])
    snaps = wittenlab.evolve(wittenlab.initial_delta(M, 0, t0=0.05), [0.1, 0.3], local_error=1e-8)
    expected = np.stack([wittenlab.hamilton_harnack_defect(s, 2.0, 0.5).defect for s in snaps])
    stack = np.load(os.path.join(out, dumps[0]))
    assert stack.shape == (2, 64)
    assert np.array_equal(stack.view(np.int64), expected.view(np.int64))


def test_dumped_times_with_one_short_name_are_rows_of_one_file(tmp_path):
    # 0.1 and 0.1000001 print alike with {:g}; as key columns they stay apart
    data = copy.deepcopy(BASE)
    data["solver"]["times"] = [0.1, 0.1000001]
    data["checks"] = [{"name": "hamilton", "m": [2], "K": 0.0, "dump_defects": True}]
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["harnack", "--config", path, "--out", str(out)]) == 0
    lines = (out / "defect_hamilton_rows.csv").read_text().splitlines()[2:]
    assert lines == ["0.1,2.0", "0.1000001,2.0"]
    assert np.load(out / "defect_hamilton.npy").shape == (2, 64)
