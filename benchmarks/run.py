"""wittenlab benchmark: time to a checked solution, end to end and per layer.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 benchmarks/run.py --workload kernel_circle --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a validated experiment run through
``wittenlab.cli.run_experiment``, the path ``wittenlab all`` takes, from one
process on one thread.  ``--trace 0`` repeats the experiment until
``--seconds`` have passed and reports the end-to-end metrics (medians over
the repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of :mod:`tracer`.  ``--workload all`` runs
every workload in its own process and prints one table.

Every repetition is checked (see :func:`check_outputs`); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

# One process on one thread: main() pins native thread pools before numpy loads.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kernel_rel_err": "ratio",
    "pass_ratio": "ratio",
}


Rep = namedtuple("Rep", "seconds raw ok reasons details")


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked (for example, no sources)."""


# ------------------------------------------------------------------ workloads
def _bundled(name):
    from wittenlab.config import load_config

    return load_config(str(SRC / "wittenlab" / "configs" / f"{name}.yaml"))


def kernel_circle(seed):
    """Bundled ``liyau_circle``; the seed picks the source node (zero potential)."""
    raw = _bundled("liyau_circle")
    raw["solver"]["x0"] = seed % raw["manifold"]["grid"]
    return raw


def torus_weighted(seed):
    """Bundled ``torus_hamilton``; the seed shifts the source along y.

    The potential depends on x only, so every shift is the same problem.
    """
    raw = _bundled("torus_hamilton")
    raw["solver"]["x0"] = [0, seed % raw["manifold"]["grid"][1]]
    return raw


def checks_dense(seed):
    """Every check family on a weighted shrinking circle, 120 snapshots, m = 2..6.

    The seed reaches this workload only through ``run_experiment(seed=...)``,
    which draws the fields of ``operators_selftest``.
    """
    ms = [2, 3, 4, 5, 6]
    return {
        "manifold": {
            "model": "circle",
            "grid": 256,
            "period": 6.283185307179586,
            "potential": {"family": "cosine", "params": {"a": 0.3, "k": 1}},
        },
        "solver": {
            "t0": 0.05,
            "x0": 0,
            "times": [0.1 + 1.7 * i / 119 for i in range(120)],
            "local_error": 1e-6,
        },
        "flow": {"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 2.0},
        "checks": [
            {"name": "hamilton", "m": ms, "K": "admissible", "dump_defects": True},
            {"name": "sup_bound", "m": ms, "K": "admissible"},
            {"name": "kernel_bounds", "m": ms, "K": "admissible"},
            {"name": "entropy", "m": ms, "K": "admissible"},
            {"name": "integrated", "m": ms, "K": "admissible"},
            {"name": "curvature", "m": ms},
            {"name": "mass"},
            {"name": "flow_margin", "m": ms, "K": "fitted"},
            {"name": "flow_entropy", "m": ms, "K": "fitted"},
            {"name": "operators_selftest", "count": 20},
        ],
    }


WORKLOADS = {f.__name__: f for f in (kernel_circle, torus_weighted, checks_dense)}


# --------------------------------------------------------------- environment
def import_wittenlab():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "wittenlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no wittenlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wittenlab
    import wittenlab.cli

    if Path(wittenlab.__file__).resolve().parent != SRC / "wittenlab":
        raise BenchmarkError(f"wittenlab imported from {wittenlab.__file__}, not {SRC}")
    return wittenlab


def provenance():
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -------------------------------------------------------------------- runs
class Bench:
    """One workload at one seed: its config file, reference and repetitions."""

    def __init__(self, workload, seed, directory):
        self.workload = workload
        self.seed = seed
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.yaml"
        # JSON is YAML, so the program's own loader reads it
        self.config_path.write_text(json.dumps(WORKLOADS[workload](seed), indent=1))
        ceilings = json.loads((HERE / "baseline.json").read_text())["kernel_rel_err_ceiling"]
        self.ceiling = ceilings[workload]
        config = self.load()
        from checks import Reference
        from wittenlab.geometry import build_manifold

        self.manifold = build_manifold(config.manifold)
        self.reference = Reference(self.manifold, config.solver)
        self.reps = []

    def load(self):
        from wittenlab.config import load_config, validate_experiment

        raw = load_config(str(self.config_path))
        return validate_experiment(raw, out_override=str(self.dir / "out"))

    def rep(self, tracer=None):
        """Run the experiment once and check its outputs."""
        from checks import check_outputs
        from speed import SpeedClock
        from wittenlab.cli import run_experiment
        from wittenlab.config import ConfigError

        with tracer or contextlib.nullcontext():
            config = self.load()
            with SpeedClock() as clock:
                try:
                    code = run_experiment(config, seed=self.seed)
                except ConfigError:
                    code = 2
                except (RuntimeError, ValueError):
                    code = 1
        out = Path(config.out_dir)
        try:
            ok, reasons, details = check_outputs(
                out, code, self.manifold, self.reference, self.ceiling
            )
        except (OSError, ValueError, KeyError) as exc:
            ok, reasons, details = False, [f"unreadable outputs: {exc!r}"], {}
        shutil.rmtree(out, ignore_errors=True)
        self.reps.append(ok)
        label = "traced" if tracer is not None else "untraced"
        print(
            f"{self.workload} rep {len(self.reps)} {label}: "
            f"{clock.seconds:.4f} s at reference speed, {clock.wall:.4f} s raw",
            "ok" if ok else "FAILED",
        )
        return Rep(clock.seconds, clock.wall, ok, reasons, details)

    def setup_seconds(self):
        """One fresh-interpreter set-up: import, load, validate, build."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(proc.stdout.split()[-1])


def measure(bench, seconds):
    """End-to-end metrics: repeat until ``seconds`` have passed (at least twice).

    Set-up samples are taken between repetitions, so that they see the
    same mix of machine speed states.
    """
    deadline = time.perf_counter() + seconds
    reps, setups = [], []
    while len(reps) < 2 or time.perf_counter() < deadline:
        setups.append(bench.setup_seconds())
        reps.append(bench.rep())
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_seconds())
    print(f"{bench.workload} raw wall median: {statistics.median(r.raw for r in reps):.4f} s")
    metrics = {
        "wall_s": statistics.median(r.seconds for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "pass_ratio": sum(r.ok for r in reps) / len(reps),
    }
    errors = [r.details["kernel_rel_err"] for r in reps if "kernel_rel_err" in r.details]
    if errors:
        metrics["kernel_rel_err"] = max(errors)
    return metrics, [reason for r in reps for reason in r.reasons]


def measure_traced(bench, seconds):
    """Per-layer metrics: untraced and traced repetitions in pairs."""
    from tracer import COUNTERS, Tracer

    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    while not plain or time.perf_counter() < deadline:
        plain.append(bench.rep())
        tracer = Tracer()
        traced.append(bench.rep(tracer))
        if traced[-1].ok:
            layers.append(tracer.metrics(traced[-1].details["accepted_steps"]))
    problems = [reason for r in plain + traced for reason in r.reasons]
    if not layers:
        return {}, problems
    for other in layers[1:]:
        moved = [k for k in COUNTERS if other[k] != layers[0][k]]
        if moved:
            problems.append(f"counters differ between traced runs: {moved}")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["run.raw_wall_s"] = statistics.median(r.raw for r in plain)
    metrics["trace.overhead_s"] = statistics.median(
        r.seconds for r in traced
    ) - statistics.median(r.seconds for r in plain)
    return metrics, problems


def run_workload(workload, seed, seconds, trace):
    import_wittenlab()
    directory = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        bench = Bench(workload, seed, directory)
        if trace:
            metrics, problems = measure_traced(bench, seconds)
        else:
            metrics, problems = measure(bench, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    from tracer import UNITS

    units = UNITS if trace else END_TO_END
    return {
        "correct": not problems and metrics.keys() >= units.keys(),
        "attempted": len(bench.reps),
        "failed": bench.reps.count(False),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }, problems


def run_all(args):
    """Each workload in its own process; one table and one combined result."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {workload} exited with {proc.returncode}")
        sub = json.loads(lines[-1])
        result["correct"] = result["correct"] and sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        print_metrics(workload, sub["metrics"])
        for name, metric in sub["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = metric
    return result


def print_metrics(workload, metrics):
    for name, metric in metrics.items():
        print(f"{workload:16s} {name:30s} {metric['value']:<24.10g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result, problems = run_workload(args.workload, args.seed, args.seconds, args.trace)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            print_metrics(args.workload, result["metrics"])
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
