"""Config-driven experiment runner.

Subcommands select which families of checks from the configuration are
run: ``curvature``, ``simulate``, ``harnack``, ``entropy``, ``flow`` (the
families of :data:`wittenlab.config.CHECKS`), or ``all``.  Exit code 0 means every asserted check passed, 1 means at
least one failed or a numerical error occurred, 2 means the
configuration was invalid or the output directory cannot be created.

Beside ``summary.json`` the runner writes ``timing.json``: per check its
wall seconds split into compute and CSV output (formatting and
writing), and the seconds of the heat flow the checks share.  Timings
differ from run to run, so they stay out of the summary files, which
are byte-identical across runs of one configuration.
"""

from __future__ import annotations

import argparse
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
from .heatflow import evolve, initial_delta
from .operators import (
    bochner_residual,
    mu_inner,
    random_band_limited,
    witten_laplacian,
)
from .ricciflow import (
    evolve_heat_on_flow,
    fit_super_flow_constant,
    make_flow,
    super_ricci_flow_margins,
)

# Grid values per block of operators_selftest fields: 128 kB of doubles per
# stacked array.  A 256-node circle takes 32 field pairs per block, a
# 64x64 torus 2.
_SELFTEST_BLOCK_ELEMENTS = 1 << 14

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


def _resolve_K(check, m, manifold, flow):
    K = check.options["K"]
    if K == "admissible":
        return ricci_bakry_emery(manifold, m).admissible_K
    if K == "fitted":
        return fit_super_flow_constant(flow, m)
    return K


def _node(index, manifold, key):
    """A configured node checked against the grid; the origin if unset."""
    if index is None:
        return (0,) * manifold.dim_n
    return _checked(key, _as_index, manifold, index)


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
        self._snapshots = None
        self._manifest = None
        self._heat_flow_s = 0.0
        self._output_s = 0.0

    # ------------------------------------------------------------ helpers
    def out(self, filename):
        return os.path.join(self.config.out_dir, filename)

    def write_csv(self, filename, blocks):
        """Write the CSV ``blocks``, formatted as they are drawn; timed as output."""
        start = time.perf_counter()
        reports.write_blocks(self.out(filename), blocks)
        self._output_s += time.perf_counter() - start

    @cached_property
    def start_state(self):
        """The approximate fundamental solution at ``solver.t0`` at x0."""
        return initial_delta(self.manifold, self.x0, t0=self.config.solver.t0)

    def snapshots(self):
        if self._snapshots is None:
            start = time.perf_counter()
            solver = self.config.solver
            self._manifest = []
            self._snapshots = evolve(
                self.start_state,
                solver.times,
                local_error=solver.local_error,
                manifest=self._manifest,
            )
            self._heat_flow_s = time.perf_counter() - start
        return self._snapshots

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
        self.write_csv("curvature.csv", reports.curvature_csv(self.manifold, fields))
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
            K = _resolve_K(check, m, self.manifold, self.flow)
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
        the operators, so memory stays bounded for any ``count``.
        """
        count = check.options["count"]
        M = self.manifold
        rng = np.random.default_rng(self.seed)
        pairs = max(1, _SELFTEST_BLOCK_ELEMENTS // (2 * math.prod(M.shape)))
        worst_res = 0.0
        worst_adj = 0.0
        for start in range(0, count, pairs):
            rows = random_band_limited(M, rng, size=2 * min(pairs, count - start))
            f, h = rows[0::2], rows[1::2]
            res = bochner_residual(M, f)
            a = mu_inner(M, f, witten_laplacian(M, h)).tolist()
            b = mu_inner(M, h, witten_laplacian(M, f)).tolist()
            for f_i, res_i, a_i, b_i in zip(f, res, a, b):
                scale = 1.0 + float(np.abs(f_i).max())
                worst_res = max(worst_res, float(np.abs(res_i).max()) / scale)
                worst_adj = max(worst_adj, abs(a_i - b_i) / max(1.0, abs(a_i)))
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
        snaps = self.snapshots()
        drift = max(abs(s.mass - 1.0) for s in snaps)
        ok = drift <= 1e-10
        self.write_csv("snapshots.csv", reports.snapshots_csv(snaps))
        self.write_csv("evolution_manifest.csv", reports.manifest_csv(self._manifest))
        self.record(
            "mass_conservation", ok, max_drift=drift, snapshots=len(snaps),
            min_over_max=min(float(s.u.min() / s.u.max()) for s in snaps),
        )

    def _pointwise_harnack(self, check, fn_name):
        snaps = self.snapshots()
        out_reports = []
        A = max(float(s.u.max()) for s in snaps) * (1.0 + 1e-12)  # sup over the run
        for m in check.m_values:
            if fn_name != "li_yau":  # the Li-Yau bound has no K
                K = _resolve_K(check, m, self.manifold, self.flow)
            for s in snaps:
                if fn_name == "li_yau":
                    rep = harnack_mod.li_yau_defect(s, m)
                elif fn_name == "hamilton":
                    rep = harnack_mod.hamilton_harnack_defect(s, m, K)
                else:
                    rep = harnack_mod.sup_bound_defect(s, m, K, A)
                out_reports.append(rep)
        if check.options["dump_defects"]:
            fields = reports.field_csv(self.manifold, out_reports, "defect")
            self.write_csv(f"defect_{fn_name}.csv", fields)
        self.write_csv(f"harnack_{fn_name}.csv", reports.harnack_csv(out_reports))
        worst = min(r.min_defect for r in out_reports)
        self.record(f"harnack_{fn_name}", all(r.ok for r in out_reports), worst_defect=worst)

    def check_li_yau(self, check):
        self._pointwise_harnack(check, "li_yau")

    def check_hamilton(self, check):
        self._pointwise_harnack(check, "hamilton")

    def check_sup_bound(self, check):
        self._pointwise_harnack(check, "sup_bound")

    def check_integrated(self, check):
        snaps = self.snapshots()
        opts = check.options
        n_nodes = opts["nodes"]
        pairs = opts["pairs"] or [[snaps[0].t, snaps[-1].t]]
        side = _sample_side(n_nodes, self.manifold)
        axes = ([i * n // side for i in range(side)] for n in self.manifold.shape)
        sample = list(itertools.product(*axes))
        xs = [x for x in sample for _ in sample]
        ys = sample * len(sample)
        out_reports = []
        for m in check.m_values:
            K = _resolve_K(check, m, self.manifold, self.flow)
            for tau, T in pairs:
                out_reports.extend(
                    harnack_mod.integrated_harnack_checks(snaps, xs, ys, float(tau), float(T), m, K)
                )
        ok = all(r.ok for r in out_reports)
        self.write_csv("harnack_integrated.csv", reports.integrated_csv(out_reports))
        self.record("harnack_integrated", ok, pairs=len(out_reports))

    def check_kernel_bounds(self, check):
        snaps = self.snapshots()
        for m in check.m_values:
            K = _resolve_K(check, m, self.manifold, self.flow)
            rep = harnack_mod.kernel_dt_log_bounds(snaps, m, K)
            self.record(
                f"kernel_bounds_m{m:g}",
                rep.ok,
                min_margin=rep.min_margin,
                fitted_upper_constant=rep.fitted_upper_constant,
            )

    def check_entropy(self, check):
        snaps = self.snapshots()
        all_series = []
        for m in check.m_values:
            K = _resolve_K(check, m, self.manifold, self.flow)
            series = entropy_mod.build_series(snaps, m, K)
            ok = entropy_mod.w_monotonicity_check(series)
            dH_ok = bool(np.all(series.dH_dt >= -1e-12))
            all_series.append(series)
            self.record(
                f"entropy_m{m:g}",
                ok and dH_ok,
                worst_monotonicity_gap=float(
                    (series.dW_dt_formula - series.monotonicity_bound).max()
                ),
                K=K,
            )
        self.write_csv("entropy_series.csv", reports.entropy_series_csv(all_series))

    def check_tilde_identity(self, check):
        worst = 0.0
        for m in check.m_values:
            for K in (0.0, 0.5, 1.0):
                for t in np.linspace(0.05, 1.2, 10):
                    out = entropy_mod.tilde_w_comparison(m, K, float(t))
                    worst = max(worst, abs(out["identity_residual"]))
        ok = worst <= 1e-9
        self.record("tilde_identity", ok, worst_residual=worst)

    def check_flow_margin(self, check):
        flow = self.flow
        margin_reports = []
        worst_fields = []
        for m in check.m_values:
            K = _resolve_K(check, m, self.manifold, flow)
            times = [float(t) for t in np.linspace(0.0, flow.horizon, 9)]
            reps = super_ricci_flow_margins(flow, m, K, times)
            margin_reports.extend(reps)
            worst = min(reps, key=lambda r: r.min_defect)  # the first, on ties
            worst_fields.append(worst)
            ok = all(r.ok for r in reps)
            self.record(f"flow_margin_m{m:g}", ok, K=K, worst_margin=worst.min_defect)
        fields = reports.field_csv(self.manifold, worst_fields, "margin")
        self.write_csv("flow_margin_field.csv", fields)
        self.write_csv("flow_margin.csv", reports.flow_margin_csv(margin_reports))

    def check_flow_entropy(self, check):
        flow = self.flow
        solver = self.config.solver
        times = [t for t in solver.times if t <= flow.horizon + 1e-12]
        snaps = evolve_heat_on_flow(
            flow, self.start_state, times, local_error=solver.local_error
        )
        all_series = []
        all_margins = []
        for m in check.m_values:
            K = _resolve_K(check, m, self.manifold, flow)
            series = entropy_mod.build_series(snaps, m, K, flow=flow)
            margins = [
                r.min_defect
                for r in super_ricci_flow_margins(flow, m, K, [s.t for s in snaps])
            ]
            worst_gap = float((series.dW_dt_formula - series.monotonicity_bound).max())
            all_series.append(series)
            all_margins.append(margins)
            self.record(
                f"flow_entropy_m{m:g}",
                entropy_mod.w_monotonicity_check(series),
                worst_gap=worst_gap,
                K=K,
            )
        tables = reports.entropy_series_csv(all_series, all_margins)
        self.write_csv("flow_entropy_series.csv", tables)

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
            check_start = time.perf_counter()
            self.run_check(check)
            wall = time.perf_counter() - check_start
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
