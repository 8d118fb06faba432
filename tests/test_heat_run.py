"""The runner's one heat flow: fixed-metric and flow checks share one ``evolve``."""

import json
import time

import numpy as np
import pytest

import wittenlab.cli
from wittenlab import (
    build_manifold,
    evolve,
    evolve_heat_on_flow,
    fit_super_flow_constant,
    heatflow,
    initial_delta,
    make_flow,
)
from wittenlab.cli import _Runner, _snap_times, main
from wittenlab.config import ConfigError, validate_experiment
from wittenlab.heatflow import _snapshot_times

from references import adaptive_evolve_regrowing, symmetric_target

WEIGHTED_CIRCLE = {
    "model": "circle",
    "grid": 32,
    "potential": {"family": "cosine", "params": {"a": 0.5, "k": 1}},
}
SEPARABLE_TORUS = {
    "model": "flat_torus_2d",
    "grid": [32, 48],
    "potential": {"family": "cosine_sine", "params": {"a": 0.5, "k": 1, "b": 0.3, "l": 2}},
}
SHRINKING = {"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 0.3}


def experiment(manifold, flow, times, checks, t0=0.05, local_error=1e-8):
    return {
        "manifold": manifold,
        "solver": {"t0": t0, "times": times, "local_error": local_error},
        "flow": flow,
        "checks": checks,
    }


FLOW_ENTROPY = {"name": "flow_entropy", "m": [3], "K": 1.0}
BOTH_CLOCKS = [{"name": "mass"}, {"name": "entropy", "m": [3]}, FLOW_ENTROPY]


@pytest.fixture()
def evolve_calls(monkeypatch):
    """The target lists of every ``evolve`` call the runner makes."""
    calls = []

    def counting(state, times, **kwargs):
        calls.append(list(times))
        return evolve(state, times, **kwargs)

    monkeypatch.setattr(wittenlab.cli, "evolve", counting)
    return calls


def runner(data, selected):
    return _Runner(validate_experiment(data), set(selected), seed=0)


def test_both_clocks_share_one_evolve(tmp_path, evolve_calls):
    times = [0.1, 0.2, 0.3, 0.45]
    data = experiment(WEIGHTED_CIRCLE, SHRINKING, times, BOTH_CLOCKS)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 0
    assert len(evolve_calls) == 1
    # every base time, and the flow's three times within the horizon on the base clock
    (targets,) = evolve_calls
    assert targets == sorted(targets) and len(targets) == 4 + 3
    assert set(times) <= set(targets)
    # the manifest lists the steps of that one run, up to its last target
    rows = (out / "evolution_manifest.csv").read_text().splitlines()[2:]
    assert float(rows[-1].split(",")[0]) == pytest.approx(targets[-1])

    # the runner's stack per clock: the base rows are evolve's states bit for
    # bit, the flow rows the states at the snapped taus, labelled with the
    # flow times
    evolve_calls.clear()
    both = runner(data, ["mass", "flow_entropy"])
    base, on_flow = both.stack(), both.stack("flow")
    (targets,) = evolve_calls
    snaps = dict(zip(targets, evolve(both.start_state, targets)))
    taus = _snap_times(both.flow.base_clock(0.05, times[:3]), times)
    for stack, labels, rows in [(base, times, times), (on_flow, times[:3], taus)]:
        assert stack.t == tuple(labels)
        assert stack.u.shape == (len(rows), *both.manifold.shape)
        for got, tau in zip(stack.u, rows, strict=True):
            assert got.tobytes() == snaps[tau].u.tobytes(), tau
        assert stack.kernel == tuple(snaps[tau].kernel for tau in rows)


def test_separable_torus_run_equals_separate_calls(tmp_path):
    times = [0.15, 0.2, 0.3]
    data = experiment(SEPARABLE_TORUS, SHRINKING, times, BOTH_CLOCKS, t0=0.1)
    both = runner(data, ["mass", "flow_entropy"])
    M = both.manifold
    start = initial_delta(M, (0, 0), t0=0.1)
    flow = make_flow(M, **{k: SHRINKING[k] for k in ("family", "params", "horizon")})
    for got, want in [
        (both.stack(), evolve(start, times)),
        (both.stack("flow"), evolve_heat_on_flow(flow, start, times)),
    ]:
        assert list(got.t) == [s.t for s in want]
        assert all(np.array_equal(a, b.u) for a, b in zip(got.u, want, strict=True))

    # and so are the files: each clock's as from a run that reads it alone
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    outs = {}
    for tag, check in [("both", "mass,flow_entropy"), ("base", "mass"), ("flow", "flow_entropy")]:
        outs[tag] = tmp_path / tag
        assert main(["all", "--config", str(path), "--out", str(outs[tag]), "--check", check]) == 0
    for tag, name in [("base", "snapshots.csv"), ("flow", "flow_entropy_series.csv")]:
        assert (outs["both"] / name).read_bytes() == (outs[tag] / name).read_bytes(), name


def test_crank_nicolson_run_matches_dense_propagator():
    # the global error of the step-doubling control grows like
    # local_error^(2/3) over a run: about 9 local_error at 1e-6, the
    # checks_dense setting, for one clock's run or both clocks' merged run
    local_error = 1e-6
    times = [0.1, 0.2, 0.3, 0.45]
    data = experiment(WEIGHTED_CIRCLE, SHRINKING, times, BOTH_CLOCKS, local_error=local_error)
    both = runner(data, ["mass", "flow_entropy"])
    start = both.start_state
    flow = both.flow
    clocks = {
        "base": times,
        "flow": [start.t + flow.base_time(start.t, t) for t in times[:3]],
    }
    assert len(both.stack("flow").t) == 3
    for clock, taus in clocks.items():
        for u, tau in zip(both.stack(clock).u, taus, strict=True):
            exact = symmetric_target(both.manifold, tau - start.t) @ start.u.ravel()
            exact = exact.reshape(start.u.shape)
            assert np.abs(u - exact).max() <= 20 * local_error * exact.max(), (clock, tau)


def test_dense_two_clock_run_keeps_the_crank_nicolson_bound():
    # twelve base times and their flow times interleave, so most steps land;
    # a landing keeps its proposal, and the run takes fewer steps below the
    # error bound than one that regrows from each cut step
    local_error = 1e-6
    times = [float(t) for t in np.linspace(0.1, 0.65, 12)]
    flow = {"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 1.0}
    data = experiment(WEIGHTED_CIRCLE, flow, times, BOTH_CLOCKS, local_error=local_error)
    both = runner(data, ["mass", "flow_entropy"])
    start = both.start_state
    merged = sorted(set().union(*both._clock_times.values()))
    assert len(merged) == 24
    worst, steps = {}, {}
    for run in (heatflow._adaptive_evolve, adaptive_evolve_regrowing):
        manifest = []
        snaps = run(start, merged, local_error, manifest)
        steps[run.__name__] = len(manifest)
        ratios = []
        for snap, tau in zip(snaps, merged, strict=True):
            exact = symmetric_target(both.manifold, tau - start.t) @ start.u.ravel()
            exact = exact.reshape(start.u.shape)
            ratios.append(np.abs(snap.u - exact).max() / (local_error * exact.max()))
        worst[run.__name__] = max(ratios)
    message = ", ".join(f"{name}: {r:.3g} local_error max u" for name, r in worst.items())
    assert worst["_adaptive_evolve"] <= 20, message
    assert steps["_adaptive_evolve"] < steps["adaptive_evolve_regrowing"], steps


def test_static_flow_lands_once_per_time(evolve_calls):
    # t0 + (0.21 - t0) is one ulp below 0.21: the flow's base clock equals
    # the base times only up to rounding
    t0, times = 0.05, [0.1, 0.21, 0.22, 0.3]
    static = {"family": "static", "horizon": 0.3}
    data = experiment(WEIGHTED_CIRCLE, static, times, BOTH_CLOCKS, t0=t0)
    both = runner(data, ["mass", "flow_entropy"])
    taus = both.flow.base_clock(t0, times)
    assert taus != times and np.allclose(taus, times, rtol=0.0, atol=1e-15)
    base, on_flow = both.stack(), both.stack("flow")
    assert evolve_calls == [times]
    assert list(base.t) == list(on_flow.t) == times
    assert base.u.tobytes() == on_flow.u.tobytes()


def test_merged_times_keep_evolves_rule():
    # a flow time within 1e-13 of a base time, or of an earlier flow time,
    # lands on it; the merged times stay more than 1e-13 apart
    base = [0.1, 0.2]
    taus = [0.1 + 5e-14, 0.15, 0.15 + 5e-14, 0.15 + 2e-13, 0.2 - 9e-14]
    snapped = _snap_times(taus, base)
    assert snapped == [0.1, 0.15, 0.15, 0.15 + 2e-13, 0.2]
    merged = sorted(set(base).union(snapped))
    assert _snapshot_times(merged, 0.05) == merged


def test_flow_only_run_times_its_heat_flow(tmp_path):
    data = experiment(WEIGHTED_CIRCLE, SHRINKING, [0.1, 0.2], [FLOW_ENTROPY])
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["flow", "--config", str(path), "--out", str(out)]) == 0
    timing = json.loads((out / "timing.json").read_text())
    assert 0.0 < timing["heat_flow_s"] <= timing["total_s"]
    assert timing["checks"]["flow_entropy"]["compute_s"] >= 0.0


def test_the_heat_flow_is_timed_apart_from_the_check_that_runs_it(tmp_path, monkeypatch):
    def slow(state, times, **kwargs):
        time.sleep(0.2)
        return evolve(state, times, **kwargs)

    monkeypatch.setattr(wittenlab.cli, "evolve", slow)
    checks = [{"name": "hamilton", "m": [3], "K": "admissible"}, FLOW_ENTROPY]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment(WEIGHTED_CIRCLE, SHRINKING, [0.1, 0.2], checks)))
    out = tmp_path / "out"
    main(["all", "--config", str(path), "--out", str(out)])
    timing = json.loads((out / "timing.json").read_text())
    assert timing["heat_flow_s"] >= 0.2
    first = timing["checks"]["hamilton"]
    assert first["compute_s"] < 0.1 and first["wall_s"] < 0.1
    assert timing["total_s"] >= timing["heat_flow_s"] + first["wall_s"]


def test_a_fitted_K_is_fitted_once_per_m_and_run(tmp_path, monkeypatch):
    fitted = []

    def counting(flow, m):
        fitted.append(m)
        return fit_super_flow_constant(flow, m)

    monkeypatch.setattr(wittenlab.cli, "fit_super_flow_constant", counting)
    checks = [
        {"name": "flow_margin", "m": [2, 3], "K": "fitted"},
        {"name": "flow_entropy", "m": [2, 3], "K": "fitted"},
    ]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment(WEIGHTED_CIRCLE, SHRINKING, [0.1, 0.2], checks)))
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "both")]) == 0
    assert fitted == [2.0, 3.0]
    # each check run alone fits its own constants: the summary is the same
    merged = {}
    for name in ("flow_margin", "flow_entropy"):
        out = tmp_path / name
        assert main(["flow", "--config", str(path), "--out", str(out), "--check", name]) == 0
        merged.update(json.loads((out / "summary.json").read_text()))
    assert len(fitted) == 6
    expected = json.dumps(merged, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "both" / "summary.json").read_text() == expected


def test_one_horizon_rule(tmp_path):
    # a time 5e-13 past the horizon is within it for the config, the runner
    # and evolve_heat_on_flow alike; 2e-12 past it is beyond it for all three
    times = [0.1, 0.2, 0.3]
    for excess, inside in [(5e-13, 3), (2e-12, 2)]:
        flow = {**SHRINKING, "horizon": 0.3 - excess}
        both = runner(experiment(WEIGHTED_CIRCLE, flow, times, BOTH_CLOCKS), ["flow_entropy"])
        assert len(both.stack("flow").t) == inside
        M = build_manifold(WEIGHTED_CIRCLE)
        spec = make_flow(M, **{k: flow[k] for k in ("family", "params", "horizon")})
        start = initial_delta(M, 0, t0=0.05)
        if inside == 3:
            assert len(evolve_heat_on_flow(spec, start, times)) == 3
        else:
            with pytest.raises(ValueError, match="beyond the flow horizon"):
                evolve_heat_on_flow(spec, start, times)
    short = {**SHRINKING, "horizon": 0.2 - 2e-12}
    with pytest.raises(ConfigError, match="within flow.horizon"):
        validate_experiment(experiment(WEIGHTED_CIRCLE, short, times, BOTH_CLOCKS))
    just_past = {**short, "horizon": 0.2 - 5e-13}
    validate_experiment(experiment(WEIGHTED_CIRCLE, just_past, times, BOTH_CLOCKS))
