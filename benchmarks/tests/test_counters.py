"""Self-test of the benchmark's tracer.

    python3 -m pytest benchmarks/tests

Two traced runs of one workload at one seed must give identical solver and
operator counters, and the tracer must leave no wrapper behind.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def traced_counters(workload, seed, directory):
    run.import_wittenlab()
    bench = run.Bench(workload, seed, directory)
    tracer = Tracer()
    rep = bench.rep(tracer)
    assert rep.ok, rep.reasons
    return tracer.metrics(rep.details["accepted_steps"])


def test_counters_repeat_between_traced_runs(tmp_path):
    first = traced_counters("checks_dense", 7, tmp_path / "first")
    second = traced_counters("checks_dense", 7, tmp_path / "second")
    for name in ("heatflow.accepted_steps", "heatflow.solves", "operators.applies"):
        assert first[name] == second[name] > 0, name

    import wittenlab.cli
    import wittenlab.heatflow

    assert wittenlab.cli.evolve is wittenlab.heatflow.evolve
    assert not hasattr(wittenlab.heatflow.witten_laplacian, "__wrapped__")
