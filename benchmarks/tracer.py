"""Per-layer counters and timers for the wittenlab benchmark.

:class:`Tracer` wraps the public functions of each wittenlab module from
outside the package: every module attribute that is one of the wrapped
function objects (including names imported with ``from ... import``) is
replaced by a timing wrapper while the tracer is active, and restored on
exit.  Nothing under ``src/`` is modified.

Each layer keeps a call count and inclusive busy time.  A call made while
another call of the same layer is running is not counted again, so times
never double-count.  Calls made while ``heatflow.evolve`` runs are also
tallied separately; the solver counters below come from those.

Solver counters, derived from outside the program (``accepted`` is the
row count of ``evolution_manifest.csv``, which lists the accepted steps of
``heatflow.evolve``):

* every implicit solve (``heatflow._advance``) ends with exactly one
  ``operators.dealias_nyquist`` call, so
  ``solves = dealias calls inside evolve``;
* a Crank-Nicolson solve applies ``witten_laplacian`` once for the
  right-hand side, once for the initial PCG residual and once per PCG
  iteration, so
  ``pcg_iters_per_solve = applies inside evolve / solves - 2``;
* step doubling makes three solves per attempted step (one full, two
  half steps), so ``rejected = solves / 3 - accepted``;
* ``applies_per_step = applies inside evolve / accepted``;
* ``solver_overhead_s = evolve_s - apply time inside evolve``: vector
  updates, preconditioner FFTs, dealiasing and step bookkeeping.
"""

from __future__ import annotations

import sys
import time

# (module, wrapped public functions, layer)
LAYERS = (
    ("heatflow", ("evolve",), "heatflow.evolve"),
    ("heatflow", ("initial_delta",), "heatflow.initial_delta"),
    ("operators", ("witten_laplacian",), "operators.apply"),
    ("operators", ("dealias_nyquist",), "operators.dealias"),
    ("geometry", ("ricci_bakry_emery",), "geometry.curvature"),
    ("geometry", ("ball_volume_ratio_check",), "geometry.ball"),
    (
        "harnack",
        (
            "li_yau_defect",
            "hamilton_harnack_defect",
            "sup_bound_defect",
            "integrated_harnack_check",
            "kernel_dt_log_bounds",
        ),
        "harnack",
    ),
    ("entropy", ("build_series",), "entropy.series"),
    ("entropy", ("w_derivative_decomposition",), "entropy.decomp"),
    ("ricciflow", ("fit_super_flow_constant",), "ricciflow.fit"),
    ("ricciflow", ("super_ricci_flow_margin",), "ricciflow.margin"),
    (
        "ricciflow",
        ("w_entropy_on_flow", "w_decomposition_on_flow", "entropy_dissipation_on_flow"),
        "ricciflow.series",
    ),
    (
        "reports",
        (
            "curvature_csv",
            "field_csv",
            "snapshots_csv",
            "harnack_csv",
            "integrated_csv",
            "entropy_series_csv",
            "flow_margin_csv",
            "manifest_csv",
        ),
        "reports.format",
    ),
    ("reports", ("atomic_write",), "reports.write"),
    ("config", ("validate_experiment",), "config.validate"),
)

# per-layer metric -> unit, in report order
UNITS = {
    "heatflow.evolve_s": "s",
    "heatflow.initial_delta_s": "s",
    "heatflow.accepted_steps": "count",
    "heatflow.rejected_steps": "count",
    "heatflow.solves": "count",
    "heatflow.applies_per_step": "count",
    "heatflow.pcg_iters_per_solve": "count",
    "heatflow.solver_overhead_s": "s",
    "operators.applies": "count",
    "operators.apply_s": "s",
    "operators.apply_us": "us",
    "geometry.curvature_calls": "count",
    "geometry.curvature_s": "s",
    "geometry.ball_s": "s",
    "harnack.calls": "count",
    "harnack.s": "s",
    "entropy.series_s": "s",
    "entropy.decomp_calls": "count",
    "ricciflow.fit_s": "s",
    "ricciflow.margin_s": "s",
    "ricciflow.series_s": "s",
    "reports.files": "count",
    "reports.bytes": "bytes",
    "reports.format_s": "s",
    "reports.write_s": "s",
    "config.validate_s": "s",
    "run.raw_wall_s": "s",
    "trace.overhead_s": "s",
}

# counters that must repeat exactly between runs of one seed
COUNTERS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes"))


class _Layer:
    __slots__ = ("calls", "seconds", "depth", "evolve_calls", "evolve_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.evolve_calls = 0
        self.evolve_seconds = 0.0


class Tracer:
    """Context manager that times calls into each wittenlab layer."""

    def __init__(self):
        self.layers = {layer: _Layer() for _, _, layer in LAYERS}
        self.bytes_written = 0
        self._patches = []

    def __enter__(self):
        package = [
            module
            for name, module in list(sys.modules.items())
            if name == "wittenlab" or name.startswith("wittenlab.")
        ]
        for module_name, names, layer in LAYERS:
            module = sys.modules[f"wittenlab.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(original, self.layers[layer], layer == "reports.write")
                for owner in package:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, original))
                            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, fn, stat, count_bytes):
        evolve = self.layers["heatflow.evolve"]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stat.depth:
                return fn(*args, **kwargs)
            if count_bytes:
                self.bytes_written += len(args[1].encode())
            in_evolve = evolve.depth > 0
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.calls += 1
                stat.seconds += elapsed
                if in_evolve:
                    stat.evolve_calls += 1
                    stat.evolve_seconds += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, accepted_steps):
        """Per-layer metrics; ``accepted_steps`` comes from the manifest CSV."""
        L = self.layers
        apply = L["operators.apply"]
        solves = L["operators.dealias"].evolve_calls
        if solves % 3:
            raise ValueError(f"{solves} solves inside evolve is not a multiple of 3")
        evolve_applies = apply.evolve_calls
        return {
            "heatflow.evolve_s": L["heatflow.evolve"].seconds,
            "heatflow.initial_delta_s": L["heatflow.initial_delta"].seconds,
            "heatflow.accepted_steps": accepted_steps,
            "heatflow.rejected_steps": solves // 3 - accepted_steps,
            "heatflow.solves": solves,
            "heatflow.applies_per_step": _ratio(evolve_applies, accepted_steps),
            "heatflow.pcg_iters_per_solve": _ratio(evolve_applies - 2 * solves, solves),
            "heatflow.solver_overhead_s": L["heatflow.evolve"].seconds
            - apply.evolve_seconds,
            "operators.applies": apply.calls,
            "operators.apply_s": apply.seconds,
            "operators.apply_us": 1e6 * _ratio(apply.seconds, apply.calls),
            "geometry.curvature_calls": L["geometry.curvature"].calls,
            "geometry.curvature_s": L["geometry.curvature"].seconds,
            "geometry.ball_s": L["geometry.ball"].seconds,
            "harnack.calls": L["harnack"].calls,
            "harnack.s": L["harnack"].seconds,
            "entropy.series_s": L["entropy.series"].seconds,
            "entropy.decomp_calls": L["entropy.decomp"].calls,
            "ricciflow.fit_s": L["ricciflow.fit"].seconds,
            "ricciflow.margin_s": L["ricciflow.margin"].seconds,
            "ricciflow.series_s": L["ricciflow.series"].seconds,
            "reports.files": L["reports.write"].calls,
            "reports.bytes": self.bytes_written,
            "reports.format_s": L["reports.format"].seconds,
            "reports.write_s": L["reports.write"].seconds,
            "config.validate_s": L["config.validate"].seconds,
        }


def _ratio(a, b):
    return a / b if b else 0.0
