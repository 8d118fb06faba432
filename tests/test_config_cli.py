"""Config validation and the command-line runner's contract."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import wittenlab
from wittenlab.cli import _Runner, bundled_config_path, main
from wittenlab.config import CHECKS, ConfigError, load_config, validate_experiment


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
        (lambda d: d.update(checks=[{"name": "li_yau", "K": -2.0, "m": [1]}]), "nonnegative"),
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
            lambda d: (
                d["solver"].update(times=[0.1, 0.1000001]),
                d.update(checks=[{"name": "hamilton", "m": [2], "K": 0.0,
                                  "dump_defects": True}]),
            ),
            id="dumped_times_with_one_file_name",
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
    ],
)
def test_invalid_input_exits_2_without_traceback(tmp_path, capsys, mutate):
    data = copy.deepcopy(BASE)
    mutate(data)
    path = write_config(tmp_path, data)
    assert main(["all", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_every_check_has_one_handler():
    handlers = {name[len("check_"):] for name in dir(_Runner) if name.startswith("check_")}
    assert handlers == set(CHECKS)


def test_missing_x0_starts_at_the_origin(tmp_path):
    data = copy.deepcopy(BASE)
    data.update(manifold=TORUS_32)
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


def test_negative_K_exits_2(tmp_path):
    data = {
        **BASE,
        "checks": [{"name": "hamilton", "m": [2], "K": -1.0}],
    }
    path = write_config(tmp_path, data)
    assert main(["harnack", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_malformed_yaml_exits_2(tmp_path):
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
    first = open(os.path.join(out, "harnack_hamilton.csv")).readline()
    assert first.startswith("# wittenlab harnack v1:")


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
    assert not os.path.exists(os.path.join(out, "curvature_m2.csv"))
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
    rows = open(os.path.join(out, "curvature_m2.csv")).readlines()
    assert len(rows) == 2 + 128  # comment, header, 64 * 2 nodes


def test_byte_identical_outputs(tmp_path):
    data = {
        "manifold": {
            "model": "circle",
            "grid": 64,
            "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
        },
        "solver": {"t0": 0.05, "x0": 0, "times": [0.1, 0.3], "local_error": 1e-8},
        "checks": [{"name": "hamilton", "m": [2], "K": "admissible"}, {"name": "mass"}],
    }
    path = write_config(tmp_path, data)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["all", "--config", path, "--out", out, "--seed", "7"]) == 0
        outs.append(out)
    for fname in ("harnack_hamilton.csv", "snapshots.csv", "summary.json"):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b, fname


def test_bundled_torus_run_does_not_import_scipy_linalg(tmp_path):
    # importing scipy.linalg alone adds megabytes of resident memory; the
    # exact torus propagator is built with numpy's eigh
    code = (
        "import sys\n"
        "from wittenlab.cli import main\n"
        f"code = main(['all', '--config', 'torus_hamilton', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(wittenlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split()[-2:] == ["0", "False"]


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
    summaries = [open(os.path.join(out, "summary.json"), "rb").read() for out in outs]
    assert summaries[0] == summaries[1]
    assert set(json.loads(summaries[0])) == {
        "harnack_hamilton",
        "entropy_m2",
        "entropy_m3",
        "curvature_m2",
        "mass_conservation",
    }
    timing = json.load(open(os.path.join(outs[0], "timing.json")))
    assert set(timing["checks"]) == {c["name"] for c in data["checks"]}
    for name, entry in timing["checks"].items():
        assert entry["wall_s"] == pytest.approx(entry["compute_s"] + entry["output_s"])
        assert entry["compute_s"] >= 0.0 and entry["output_s"] >= 0.0, name
    assert timing["checks"]["mass"]["output_s"] > 0.0
    assert 0.0 < timing["heat_flow_s"] <= timing["total_s"]


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
    dumps = [f for f in os.listdir(out) if f.startswith("defect_hamilton")]
    assert len(dumps) == 2  # one per snapshot
    header = open(os.path.join(out, dumps[0])).readlines()[1].strip()
    assert header == "node_index,x,defect"
