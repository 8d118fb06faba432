"""Config-driven experiment runner.

Subcommands select which families of checks from the configuration are
run: ``curvature``, ``simulate``, ``harnack``, ``entropy``, ``flow`` (the
families of :data:`wittenlab.config.CHECKS`), or ``all``.  Exit code 0 means every asserted check passed, 1 means at
least one failed or a numerical error occurred, 2 means the
configuration was invalid or the output directory cannot be created.

The runner holds one stacked :class:`wittenlab.heatflow.HeatState` per
clock, both built from the run's one :func:`evolve`: "base" at
``solver.times``, and "flow" at the flow's base-clock times, relabelled
with the flow times by one ``replace`` of the stack.  Every check reads
the stack of its clock (:meth:`_Runner.stack`), its rows and the fields
cached on it, and no list of snapshot states is kept.

The fixed-metric and flow W-entropy checks share one handler body,
``_Runner._entropy``, which reads the stack of the check's clock and
records ``ok``, ``worst_monotonicity_gap`` and ``K`` per ``m``.

A check over a list of ``m`` is one columnar pass over its clock's stack
(:func:`wittenlab.harnack.defect_columns`,
:func:`wittenlab.harnack.kernel_bounds`,
:func:`wittenlab.entropy.build_series_per_m`,
:func:`wittenlab.ricciflow.margin_columns`): what no ``m`` changes is
computed once, and each ``m`` gives arrays over the rows (times, minima,
first minimum nodes, tolerances and verdicts), from which the CSV and
``.npy`` key tables are formatted.  The runner builds no report per row;
the defect fields are kept only where ``dump_defects`` asks for them.

Beside ``summary.json`` the runner writes ``timing.json``: per check its
wall seconds split into compute and output (formatting and writing the
CSV and ``.npy`` tables), and the seconds of the run's one heat flow,
which the fixed-metric and flow checks share.  The heat flow runs inside
the first check that reads its snapshots but is timed apart from it:
no check's seconds include it.  A fitted ``K`` is fitted once per ``m``
and run, whichever checks ask for it.  Timings differ from run
to run, so they stay out of the summary files, which are byte-identical
across runs of one configuration.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import math
import os
import sys
import time
from dataclasses import replace
from functools import cached_property
from importlib import resources

import numpy as np

from . import entropy as entropy_mod
from . import harnack as harnack_mod
from . import reports
from .config import CHECKS, M_N_PLUS_1, ConfigError, _checked
from .config import load_config, validate_experiment
from .geometry import _as_index, _check_ball_radii, _is_integer, _m_equals_n
from .geometry import ball_volume_ratio_check, build_manifold, ricci_bakry_emery
from .heatflow import _SAME_TIME, _within_horizon, evolve, initial_delta, stack_states
from .operators import (
    _row_blocks,
    bochner_residual,
    mu_inner,
    random_band_limited,
    witten_laplacian,
)
from .ricciflow import fit_super_flow_constant, make_flow, margin_columns

SUBCOMMAND_CHECKS = {
    sub: tuple(name for name, kind in CHECKS.items() if kind.subcommand == sub)
    for sub in dict.fromkeys(kind.subcommand for kind in CHECKS.values())
}
SUBCOMMAND_CHECKS["all"] = tuple(CHECKS)


def bundled_config_path(name):
    """Resolve a bundled configuration by bare name."""
    ref = resources.files("wittenlab").joinpath("configs", f"{name}.yaml")
    if not ref.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(ref)


def _node(index, manifold, key):
    """A configured node checked against the grid; the origin if unset."""
    if index is None:
        return (0,) * manifold.dim_n
    return _checked(key, _as_index, manifold, index)


def _snap_times(times, onto):
    """Each of ``times`` within ``_SAME_TIME`` of a time of the ascending
    ``onto``, or of an earlier one of ``times`` kept as it is, replaced by
    the nearest such time, where :func:`evolve` lands once anyway.  The
    union of ``onto`` and the result then keeps every gap of ``onto``
    above ``_SAME_TIME``, as :func:`evolve` requires of its times."""
    kept = list(onto)
    out = []
    for t in times:
        i = bisect.bisect_left(kept, t)
        near = min(kept[max(i - 1, 0):i + 1], key=lambda s: abs(s - t), default=t)
        if abs(near - t) > _SAME_TIME:
            near = t
            kept.insert(i, t)
        out.append(near)
    return out


def _sample_side(nodes, manifold):
    """Nodes per axis of the integrated check's sample: all of ``nodes`` on
    a circle, the side of their square on a torus."""
    return nodes if manifold.dim_n == 1 else math.isqrt(nodes)


class _Runner:
    def __init__(self, config, selected, seed):
        self.config = config
        self.selected = selected
        self.seed = seed
        self.summary = {}
        self.manifold = _checked("manifold", build_manifold, config.manifold)
        self.flow = None
        if config.flow is not None:
            flow = config.flow
            self.flow = _checked(
                "flow", make_flow, self.manifold, flow["family"], flow.get("params"),
                flow["horizon"],
            )
        self.x0 = _node(config.solver.x0, self.manifold, "solver.x0")
        n = self.manifold.dim_n
        self.checks = [
            replace(c, m_values=(n + 1.0,)) if c.m_values == M_N_PLUS_1 else c
            for c in config.checks
        ]
        for check in self.checks:
            # tilde_identity is a closed form, with no model
            for m in check.m_values if check.name != "tilde_identity" else ():
                _checked(f"checks.{check.name}.m={m:g}", _m_equals_n, self.manifold, m)
            opts = check.options
            if check.name == "ball_ratio":
                key = "checks.ball_ratio"
                self.center = _node(opts["center"], self.manifold, f"{key}.center")
                _checked(f"{key}.R", _check_ball_radii, self.manifold, opts["r"], opts["R"])
            if check.name == "integrated":
                nodes = opts["nodes"]
                if n == 2 and math.isqrt(nodes) ** 2 != nodes:
                    raise ConfigError(f"checks.integrated.nodes={nodes} is not a perfect square")
                # a side longer than a grid axis would sample nodes, and pairs, twice
                side = _sample_side(nodes, self.manifold)
                if side > min(self.manifold.shape):
                    raise ConfigError(
                        f"checks.integrated.nodes={nodes} samples {side} nodes per axis, "
                        f"more than the grid {self.manifold.shape} has"
                    )
        # the base-clock times of each clock the selected checks read
        solver = config.solver
        clocks = {CHECKS[c.name].clock for c in self.checks if c.name in selected}
        self._clock_times = {}
        if "base" in clocks:
            self._clock_times["base"] = solver.times
        if "flow" in clocks:
            self._flow_times = [t for t in solver.times if _within_horizon(t, self.flow.horizon)]
            taus = self.flow.base_clock(solver.t0, self._flow_times)
            self._clock_times["flow"] = _snap_times(taus, self._clock_times.get("base", ()))
        self._manifest = None
        self._heat_flow_s = 0.0
        self._output_s = 0.0
        self._fitted_K = {}

    # ------------------------------------------------------------ helpers
    def out(self, filename):
        return os.path.join(self.config.out_dir, filename)

    def write_csv(self, filename, blocks):
        """Write the CSV ``blocks``, formatted as they are drawn; timed as output."""
        start = time.perf_counter()
        reports.write_blocks(self.out(filename), blocks)
        self._output_s += time.perf_counter() - start

    def write_stack(self, name, fields, keys):
        """Write the grid ``fields`` as ``<name>.npy``, stacked in order, and
        their key table ``keys`` as ``<name>_rows.csv``; timed as output."""
        start = time.perf_counter()
        shape = (len(fields), *self.manifold.shape)
        reports.write_npy(self.out(f"{name}.npy"), shape, fields)
        self._output_s += time.perf_counter() - start
        self.write_csv(f"{name}_rows.csv", keys)

    @cached_property
    def start_state(self):
        """The approximate fundamental solution at ``solver.t0`` at x0."""
        return initial_delta(self.manifold, self.x0, t0=self.config.solver.t0)

    def stack(self, clock="base"):
        """The snapshots of ``clock`` as one stacked state, whose fields every
        check of that clock shares: "base" at ``solver.times``, "flow" at
        the solver times within the flow horizon, labelled with those.

        Both come from the run's one heat flow: one :func:`evolve` from the
        start state over the sorted union of the base-clock times of the
        clocks the selected checks read (:attr:`config.CHECKS` ``clock``),
        the flow's being its :meth:`FlowSpec.base_clock` times.  A run
        that reads one clock evolves over exactly its times.  The run is
        timed as ``heat_flow_s`` and its steps are the manifest rows.
        """
        return self._heat_flow[clock]

    @cached_property
    def _heat_flow(self):
        start = time.perf_counter()
        solver = self.config.solver
        merged = sorted(set().union(*self._clock_times.values()))
        self._manifest = []
        snaps = evolve(
            self.start_state, merged, local_error=solver.local_error, manifest=self._manifest
        )
        at = dict(zip(merged, snaps))
        stacks = {
            clock: stack_states(at[t] for t in times) for clock, times in self._clock_times.items()
        }
        if "flow" in stacks:
            stacks["flow"] = replace(stacks["flow"], t=tuple(self._flow_times))
        self._heat_flow_s = time.perf_counter() - start
        return stacks

    def resolve_K(self, check, m):
        """The K of ``check`` at ``m``: its number, the admissible K of the
        curvature at m, or the flow's fitted constant at m, fitted once per
        run."""
        K = check.options["K"]
        if K == "admissible":
            return ricci_bakry_emery(self.manifold, m).admissible_K
        if K == "fitted":
            if m not in self._fitted_K:
                self._fitted_K[m] = fit_super_flow_constant(self.flow, m)
            return self._fitted_K[m]
        return K

    def record(self, name, ok, **detail):
        entry = {"ok": bool(ok)}
        entry.update(detail)
        self.summary[name] = entry

    # ------------------------------------------------------------- checks
    def run_check(self, check):
        handler = getattr(self, f"check_{check.name}")
        handler(check)

    def check_curvature(self, check):
        fields = [ricci_bakry_emery(self.manifold, m) for m in check.m_values]
        self.write_stack("curvature", [cf.values for cf in fields], reports.curvature_csv(fields))
        for m, cf in zip(check.m_values, fields):
            self.record(
                f"curvature_m{m:g}",
                True,
                min_value=cf.min_value,
                admissible_K=cf.admissible_K,
            )

    def check_ball_ratio(self, check):
        opts = check.options
        for m in check.m_values:
            K = self.resolve_K(check, m)
            rep = ball_volume_ratio_check(
                self.manifold, m, K, self.center, opts["r"], opts["R"]
            )
            self.record(
                f"ball_ratio_m{m:g}", rep.ok, ratio=rep.ratio, bound=rep.bound
            )

    def check_operators_selftest(self, check):
        """Bochner identity and weighted symmetry of L on random field pairs.

        The fields are drawn in the order ``f0, h0, f1, h1, ...`` and
        checked a block of pairs at a time, each block one stack through
        the operators, so memory stays bounded for any ``count``.  Each
        block's per-field residuals and gaps are reductions over the grid
        axes, and a NaN among them is kept as the worst value, which fails.
        """
        count = check.options["count"]
        M = self.manifold
        rng = np.random.default_rng(self.seed)
        grid = tuple(range(1, M.dim_n + 1))
        worst_res = worst_adj = 0.0
        for block in _row_blocks(count, 2 * math.prod(M.shape)):
            rows = random_band_limited(M, rng, size=2 * (block.stop - block.start))
            f, h = rows[0::2], rows[1::2]
            res = np.abs(bochner_residual(M, f)).max(axis=grid) / (1.0 + np.abs(f).max(axis=grid))
            a = mu_inner(M, f, witten_laplacian(M, h))
            b = mu_inner(M, h, witten_laplacian(M, f))
            gap = np.abs(a - b) / np.maximum(1.0, np.abs(a))
            worst_res = float(np.maximum(worst_res, res.max()))
            worst_adj = float(np.maximum(worst_adj, gap.max()))
        ok = worst_res <= 1e-7 and worst_adj <= 1e-10
        self.record(
            "operators_selftest",
            ok,
            worst_bochner_residual=worst_res,
            worst_adjointness_gap=worst_adj,
            seed=self.seed,
            fields=count,
        )

    def check_mass(self, check):
        stack = self.stack()
        drift = max(np.abs(stack.mass - 1.0).tolist())
        rows = stack.u.reshape(len(stack.t), -1)
        ok = drift <= 1e-10
        self.write_csv("snapshots.csv", reports.snapshots_csv(stack))
        self.write_csv("evolution_manifest.csv", reports.manifest_csv(self._manifest))
        self.record(
            "mass_conservation", ok, max_drift=drift, snapshots=len(stack.t),
            min_over_max=min((rows.min(axis=1) / rows.max(axis=1)).tolist()),
        )

    def _mKs(self, check):
        """The ``(m, K)`` of each ``m`` of ``check``, in order."""
        return [(m, self.resolve_K(check, m)) for m in check.m_values]

    def _pointwise_harnack(self, check, fn_name):
        stack = self.stack()
        A = float(stack.u.max()) * (1.0 + 1e-12)  # sup over the run
        if fn_name == "li_yau":  # the Li-Yau bound has no K
            mKs = [(m, 0.0) for m in check.m_values]
        else:
            mKs = self._mKs(check)
        keep = check.options["dump_defects"]
        columns = harnack_mod.defect_columns(stack, fn_name, mKs, A=A, keep=keep)
        if keep:
            fields = [f for c in columns for f in c.defect]
            keys = reports.field_csv((c.t, c.m) for c in columns)
            self.write_stack(f"defect_{fn_name}", fields, keys)
        self.write_csv(f"harnack_{fn_name}.csv", reports.harnack_csv(columns))
        worst = min(low for c in columns for low in c.min_defect.tolist())
        ok = all(c.ok.all() for c in columns)
        self.record(f"harnack_{fn_name}", ok, worst_defect=worst)

    def check_li_yau(self, check):
        self._pointwise_harnack(check, "li_yau")

    def check_hamilton(self, check):
        self._pointwise_harnack(check, "hamilton")

    def check_sup_bound(self, check):
        self._pointwise_harnack(check, "sup_bound")

    def check_integrated(self, check):
        stack = self.stack()
        opts = check.options
        n_nodes = opts["nodes"]
        pairs = opts["pairs"] or [[stack.t[0], stack.t[-1]]]
        side = _sample_side(n_nodes, self.manifold)
        axes = ([i * n // side for i in range(side)] for n in self.manifold.shape)
        sample = list(itertools.product(*axes))
        xs = [x for x in sample for _ in sample]
        ys = sample * len(sample)
        out_reports = []
        for m in check.m_values:
            K = self.resolve_K(check, m)
            for tau, T in pairs:
                out_reports.extend(
                    harnack_mod.integrated_harnack_checks(stack, xs, ys, tau, T, m, K)
                )
        ok = all(r.ok for r in out_reports)
        self.write_csv("harnack_integrated.csv", reports.integrated_csv(out_reports))
        self.record("harnack_integrated", ok, pairs=len(out_reports))

    def check_kernel_bounds(self, check):
        all_reports = harnack_mod.kernel_bounds(self.stack(), self._mKs(check))
        for m, rep in zip(check.m_values, all_reports):
            self.record(
                f"kernel_bounds_m{m:g}",
                rep.ok,
                min_margin=rep.min_margin,
                fitted_upper_constant=rep.fitted_upper_constant,
            )

    def _entropy(self, check, flow):
        """The W-entropy series of each m of ``check`` over the stack of its
        clock, in the metric of ``flow`` (None: the fixed metric), each
        recorded as ``<check>_m<m>`` by its monotonicity gate."""
        mKs = self._mKs(check)
        stack = self.stack(CHECKS[check.name].clock)
        all_series = entropy_mod.build_series_per_m(stack, mKs, flow=flow)
        for (m, K), series in zip(mKs, all_series):
            self.record(
                f"{check.name}_m{m:g}",
                entropy_mod.w_monotonicity_check(series),
                worst_monotonicity_gap=float(
                    (series.dW_dt_formula - series.monotonicity_bound).max()
                ),
                K=K,
            )
        return all_series

    def check_entropy(self, check):
        all_series = self._entropy(check, None)
        self.write_csv("entropy_series.csv", reports.entropy_series_csv(all_series))

    def check_tilde_identity(self, check):
        worst = 0.0
        for m in check.m_values:
            for K in (0.0, 0.5, 1.0):
                out = entropy_mod.tilde_w_comparison(m, K, np.linspace(0.05, 1.2, 10))
                worst = max(worst, *np.abs(out["identity_residual"]).tolist())
        ok = worst <= 1e-9
        self.record("tilde_identity", ok, worst_residual=worst)

    def check_flow_margin(self, check):
        flow = self.flow
        times = [float(t) for t in np.linspace(0.0, flow.horizon, 9)]
        mKs = self._mKs(check)
        columns = margin_columns(flow, mKs, times, keep=True)
        worst_fields = []
        worst_keys = []
        for (m, K), c in zip(mKs, columns):
            lows = c.min_defect.tolist()
            worst = min(range(len(lows)), key=lows.__getitem__)  # the first, on ties
            worst_fields.append(c.defect[worst])
            worst_keys.append((c.t[worst:worst + 1], c.m))
            self.record(f"flow_margin_m{m:g}", c.ok.all(), K=K, worst_margin=lows[worst])
        keys = reports.field_csv(worst_keys)
        self.write_stack("flow_margin_field", worst_fields, keys)
        self.write_csv("flow_margin.csv", reports.flow_margin_csv(columns))

    def check_flow_entropy(self, check):
        all_series = self._entropy(check, self.flow)
        mKs = [(s.m, s.K) for s in all_series]
        margins = [c.min_defect for c in margin_columns(self.flow, mKs, self.stack("flow").t)]
        self.write_csv("flow_entropy_series.csv", reports.entropy_series_csv(all_series, margins))

    # -------------------------------------------------------------- entry
    def run(self):
        start = time.perf_counter()
        selected = [c for c in self.checks if c.name in self.selected]
        if not selected:
            raise ConfigError(
                "no configured check matches the requested subcommand/selection"
            )
        try:
            os.makedirs(self.config.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: cannot create output directory: {exc}") from None
        checks = {}
        for check in selected:
            self._output_s = 0.0
            heat_flow_s = self._heat_flow_s
            check_start = time.perf_counter()
            self.run_check(check)
            # the heat flow, if this check ran it, is timed once, as heat_flow_s
            wall = time.perf_counter() - check_start - (self._heat_flow_s - heat_flow_s)
            checks[check.name] = {
                "wall_s": wall, "compute_s": wall - self._output_s, "output_s": self._output_s,
            }
        reports.write_summary(self.out("summary"), self.summary)
        reports.write_timing(
            self.out("timing.json"),
            {
                "checks": checks,
                "heat_flow_s": self._heat_flow_s,
                "total_s": time.perf_counter() - start,
            },
        )
        return 0 if all(entry["ok"] for entry in self.summary.values()) else 1


def run_experiment(config, selected=None, seed=0):
    """Run the selected checks of a validated experiment; return exit code."""
    if not (_is_integer(seed) and seed >= 0):
        raise ConfigError(f"--seed: expected a non-negative integer, got {seed!r}")
    selected = set(selected if selected is not None else SUBCOMMAND_CHECKS["all"])
    runner = _Runner(config, selected, seed)
    return runner.run()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wittenlab",
        description="Heat flow, Harnack, and W-entropy checks on weighted periodic models",
    )
    parser.add_argument(
        "subcommand",
        choices=sorted(SUBCOMMAND_CHECKS),
        help="which family of configured checks to run",
    )
    parser.add_argument(
        "--config",
        required=True,
        help="path to a YAML experiment file, or the name of a bundled one",
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--check",
        default=None,
        help="comma-separated check names; further restricts the subcommand set",
    )
    parser.add_argument(
        "--grid-scale",
        type=int,
        default=1,
        help="multiply grid sizes for refinement studies",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized self-test fields"
    )
    args = parser.parse_args(argv)

    try:
        path = args.config
        if not os.path.exists(path):
            path = bundled_config_path(args.config)
        raw = load_config(path)
        config = validate_experiment(raw, out_override=args.out, grid_scale=args.grid_scale)
        selected = set(SUBCOMMAND_CHECKS[args.subcommand])
        if args.check is not None:
            wanted = {name.strip() for name in args.check.split(",") if name.strip()}
            if not wanted:
                raise ConfigError(f"--check {args.check!r} names no check")
            unknown = wanted - set(SUBCOMMAND_CHECKS["all"])
            if unknown:
                raise ConfigError(f"unknown check names: {sorted(unknown)}")
            selected &= wanted
        return run_experiment(config, selected, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
