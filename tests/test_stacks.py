"""Checks over a run's stacked snapshots against the per-snapshot formulas.

Every Harnack defect, kernel bound and entropy term of a stack must equal,
bit for bit, the same formula evaluated one snapshot at a time
(``references``), whatever the blocks the rows are taken in; a one-row
stack must equal the one-state call.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from wittenlab import (
    HeatState,
    build_series,
    circle,
    evolve,
    fit_super_flow_constant,
    hamilton_harnack_defect,
    initial_delta,
    kernel_dt_log_bounds,
    li_yau_defect,
    make_flow,
    phi_mK,
    ricci_bakry_emery,
    stack_states,
    sup_bound_defect,
    super_ricci_flow_margin,
    tilde_w_comparison,
    w_derivative_decomposition,
    w_entropy,
)
from wittenlab import operators
from wittenlab.entropy import _exp_series, build_series_per_m
from wittenlab.harnack import _defect_columns, defect_columns, kernel_bounds
from wittenlab.ricciflow import FIT_SAMPLES, margin_columns

from references import (
    exp_series_loop,
    fit_super_flow_constant_loop,
    margin_fields_per_time,
    phi_mK_loop,
    reference_decomposition,
    reference_hamilton,
    reference_kernel_bounds,
    reference_series_columns,
    reference_sup_bound,
    report_minimum,
    tilde_w_comparison_loop,
)

RUNS = ["weighted_circle", "separable_torus", "flat_circle_kernel_start", "conformal_flow"]
SERIES_FIELDS = (
    "times", "H", "dH_dt", "d2H_dt2", "Phi", "W_mK", "dW_dt_numeric", "T1", "T2", "T3", "T4",
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def mk_cases(M):
    """(m, K): m = n on a constant potential (T3 = 0), m above n at the
    admissible K and, for the sup bound's limit branch, at K = 0."""
    n = M.dim_n
    cases = [(n + 1.0, ricci_bakry_emery(M, n + 1.0).admissible_K), (n + 2.5, 0.0)]
    if np.ptp(M.potential) == 0.0:
        cases.append((float(n), 0.3))
    return cases


def all_results(stack, flow):
    """Every stacked check's output on ``stack``, per (m, K)."""
    A = float(stack.u.max()) * (1.0 + 1e-12)
    out = []
    for m, K in mk_cases(stack.manifold):
        out.append((
            hamilton_harnack_defect(stack, m, K),
            li_yau_defect(stack, m),
            sup_bound_defect(stack, m, K, A),
            kernel_dt_log_bounds(stack, m, K),
            build_series(stack, m, K, flow=flow),
        ))
    return out


def assert_same_report(a, b):
    assert (a.inequality, a.t, a.m, a.K, a.tol) == (b.inequality, b.t, b.m, b.K, b.tol)
    assert same_bits(a.defect, b.defect)
    assert same_bits(a.min_defect, b.min_defect) and a.argmin_node == b.argmin_node
    assert a.extra.keys() == b.extra.keys()
    for key in a.extra:
        assert same_bits(a.extra[key], b.extra[key]), key


def assert_same_results(got, want):
    for (*reports_got, kb_got, series_got), (*reports_want, kb_want, series_want) in zip(
        got, want, strict=True
    ):
        for a_list, b_list in zip(reports_got, reports_want, strict=True):
            for a, b in zip(a_list, b_list, strict=True):
                assert_same_report(a, b)
        assert kb_got == kb_want
        for name in SERIES_FIELDS:
            assert same_bits(getattr(series_got, name), getattr(series_want, name)), name


@pytest.mark.parametrize("run", RUNS)
def test_stacked_checks_equal_the_per_snapshot_formulas(check_runs, run):
    snaps, flow = check_runs[run]
    stack = stack_states(snaps)
    A = float(stack.u.max()) * (1.0 + 1e-12)
    for m, K in mk_cases(stack.manifold):
        hamilton = hamilton_harnack_defect(stack, m, K)
        li_yau = li_yau_defect(stack, m)
        sup = sup_bound_defect(stack, m, K, A)
        for s, h, ly, sb in zip(snaps, hamilton, li_yau, sup, strict=True):
            defect, tol = reference_hamilton(s, m, K)
            assert (h.inequality, h.t, h.m, h.K) == ("hamilton", s.t, m, K)
            assert same_bits(h.defect, defect) and h.tol == tol
            defect, tol = reference_hamilton(s, m, 0.0)
            assert (ly.inequality, ly.K) == ("li_yau", 0.0)
            assert same_bits(ly.defect, defect) and ly.tol == tol
            defect, tol, variant = reference_sup_bound(s, m, K, A)
            assert same_bits(sb.defect, defect) and sb.tol == tol
            assert same_bits(sb.extra["defect_variant"], variant) and sb.extra["A"] == A
        assert kernel_dt_log_bounds(stack, m, K) == reference_kernel_bounds(snaps, m, K)
        series = build_series(stack, m, K, flow=flow)
        columns = reference_series_columns(snaps, m, K, flow)
        for name in SERIES_FIELDS:
            assert same_bits(getattr(series, name), columns[name]), name
        dec = w_derivative_decomposition(stack, m, K)
        terms = np.array([reference_decomposition(s, m, K) for s in snaps]).T
        assert same_bits(np.array([dec.T1, dec.T2, dec.T3, dec.T4]), terms)
        if m == stack.manifold.dim_n:
            assert not series.T3.any()  # the drift term vanishes at m == n


@pytest.mark.parametrize("run", RUNS)
def test_blocks_of_rows_equal_one_block(check_runs, run, monkeypatch):
    snaps, flow = check_runs[run]
    M = snaps[0].manifold
    monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 1 << 30)
    one_block = all_results(stack_states(snaps), flow)
    # two rows of a scalar field per block: 2, 2, 1 rows, and single rows
    # for the (n, n) temporaries of the torus's entropy terms
    monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 2 * math.prod(M.shape))
    assert len(operators._row_blocks(len(snaps), math.prod(M.shape))) == 3
    assert_same_results(all_results(stack_states(snaps), flow), one_block)


@pytest.mark.parametrize("run", RUNS)
def test_a_one_row_stack_equals_the_one_state_call(check_runs, run):
    snaps, flow = check_runs[run]
    for s in (snaps[0], snaps[-1]):
        row = stack_states([s])
        A = 2.0 * float(s.u.max())
        for m, K in mk_cases(s.manifold):
            for fn, args in (
                (hamilton_harnack_defect, (m, K)),
                (li_yau_defect, (m,)),
                (sup_bound_defect, (m, K, A)),
            ):
                (got,) = fn(row, *args)
                assert_same_report(got, fn(s, *args))
            dec, one = w_derivative_decomposition(row, m, K), w_derivative_decomposition(s, m, K)
            assert [float(dec.T1[0]), float(dec.T2[0]), float(dec.T3[0]), float(dec.T4[0])] == [
                one.T1, one.T2, one.T3, one.T4
            ]
            assert {k: float(v[0]) for k, v in w_entropy(row, m, K).items()} == w_entropy(s, m, K)
            assert kernel_dt_log_bounds(row, m, K) == kernel_dt_log_bounds([s], m, K)


# ------------------------------------------- every m of a list in one pass
# The runner checks a list of m in one columnar pass over its stack; each
# m's columns and series must equal, bit for bit, the public one-m function.


def assert_columns_are_the_reports(columns, reports, keep):
    assert {(r.inequality, r.m, r.K) for r in reports} == {
        (columns.inequality, columns.m, columns.K)
    }
    assert same_bits(columns.t, [r.t for r in reports])
    assert same_bits(columns.min_defect, [r.min_defect for r in reports])
    assert list(zip(*columns.argmin_nodes, strict=True)) == [r.argmin_node for r in reports]
    assert same_bits(columns.tol, [r.tol for r in reports])
    assert columns.ok.tolist() == [r.ok for r in reports]
    if keep:
        for field, r in zip(columns.defect, reports, strict=True):
            assert same_bits(field, r.defect)
    else:
        assert columns.blocks is None


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("keep", [False, True], ids=["minima", "fields"])
@pytest.mark.parametrize("rows_per_block", [None, 2])
def test_one_pass_over_a_list_of_m_equals_the_one_m_functions(
    check_runs, run, keep, rows_per_block, monkeypatch
):
    snaps, flow = check_runs[run]
    M = snaps[0].manifold
    if rows_per_block is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows_per_block * math.prod(M.shape))
    stack = stack_states(snaps)
    A = float(stack.u.max()) * (1.0 + 1e-12)
    cases = mk_cases(M)
    # every m of a list, and one m: on the flat circle m = n, a one-m Li-Yau run
    for mKs in (cases, cases[-1:]):
        li_yau_mKs = [(m, 0.0) for m, _ in mKs]
        for inequality, pairs, one_m in (
            ("hamilton", mKs, lambda m, K: hamilton_harnack_defect(stack, m, K)),
            ("li_yau", li_yau_mKs, lambda m, K: li_yau_defect(stack, m)),
            ("sup_bound", mKs, lambda m, K: sup_bound_defect(stack, m, K, A)),
        ):
            got = defect_columns(stack, inequality, pairs, A=A, keep=keep)
            for columns, (m, K) in zip(got, pairs, strict=True):
                assert_columns_are_the_reports(columns, one_m(m, K), keep)
        for got, (m, K) in zip(kernel_bounds(stack, mKs), mKs, strict=True):
            want = kernel_dt_log_bounds(stack, m, K)
            assert got == want and same_bits(got.min_margin, want.min_margin)
            assert same_bits(got.fitted_upper_constant, want.fitted_upper_constant)
        for got, (m, K) in zip(build_series_per_m(stack, mKs, flow), mKs, strict=True):
            want = build_series(stack, m, K, flow=flow)
            assert (got.m, got.K) == (want.m, want.K)
            for name in SERIES_FIELDS:
                assert same_bits(getattr(got, name), getattr(want, name)), name
        if flow is not None:
            # the flow entropy's times and the margin check's nine
            for times in (stack.t, np.linspace(0.0, flow.horizon, 9).tolist()):
                got = margin_columns(flow, mKs, times, keep=keep)
                for columns, (m, K) in zip(got, mKs, strict=True):
                    want = [super_ricci_flow_margin(flow, m, K, t) for t in times]
                    assert_columns_are_the_reports(columns, want, keep)


def test_the_one_pass_rejects_an_unknown_inequality_and_a_li_yau_K(check_runs):
    stack = stack_states(check_runs["weighted_circle"][0])
    with pytest.raises(ValueError, match="no pointwise inequality named 'lia_yau'"):
        defect_columns(stack, "lia_yau", [(2.0, 0.0)])
    with pytest.raises(ValueError, match="Li-Yau bound has K = 0, got K=0.5"):
        defect_columns(stack, "li_yau", [(2.0, 0.0), (3.0, 0.5)])


@pytest.mark.parametrize("t", [0.0, -0.1])
def test_the_harnack_and_entropy_checks_reject_a_nonpositive_row_time(check_runs, t):
    snaps, _ = check_runs["weighted_circle"]
    rows = [snaps[0], replace(snaps[1], t=t)]
    stack = stack_states(rows)
    message = f"t must be a finite positive number, got {t!r}"
    for check in (
        lambda: hamilton_harnack_defect(stack, 2.0, 0.5),
        lambda: build_series(rows, 2.0, 0.5),
        lambda: build_series(stack, 2.0, 0.5),
    ):
        with pytest.raises(ValueError) as raised:
            check()
        assert str(raised.value) == message


def test_stacked_fields_are_the_rows_of_each_state(check_runs):
    snaps, _ = check_runs["flat_circle_kernel_start"]
    stack = stack_states(snaps)
    assert stack.stacked and stack.t == tuple(s.t for s in snaps)
    assert stack.kernels[0].analytic and not any(k.analytic for k in stack.kernels[1:])
    for name in ("dt_log_u", "grad_log_u", "log_u_hessian", "log_u_gamma2"):
        field = getattr(stack, name)
        assert not field.flags.writeable
        lead = field.ndim - stack.u.ndim
        for i, s in enumerate(snaps):
            assert same_bits(field[(slice(None),) * lead + (i,)], getattr(s, name)), name
    H, dH = stack.entropy_pair
    assert [(a, b) for a, b in zip(H.tolist(), dH.tolist())] == [s.entropy_pair for s in snaps]
    assert same_bits(stack.mass, [s.mass for s in snaps])
    with pytest.raises(ValueError, match="single states on one manifold"):
        stack_states([stack])
    with pytest.raises(ValueError, match="no states given"):
        stack_states([])
    with pytest.raises(ValueError, match="one per row"):
        HeatState(stack.manifold, stack.t, stack.u)  # no kernel per row


# ------------------------------------------- derived checks, one pass per stack
# Report minima, flow margins and the normalization series are taken over a
# block of rows at once; each must equal, bit for bit, the reduction of each
# field alone and the scalar series loop (``references``).

STACK_MODELS = ["circle_cos", "torus_32x48"]


@pytest.fixture(scope="module")
def model_stacks(circle_cos, torus_32x48):
    times = [0.1, 0.15, 0.2, 0.3]
    return {
        "circle_cos": stack_states(
            evolve(initial_delta(circle_cos, 0, t0=0.05), times, local_error=1e-6)
        ),
        "torus_32x48": stack_states(evolve(initial_delta(torus_32x48, (3, 5), t0=0.1), times)),
    }


def assert_minimum_of_its_field(report):
    low, node = report_minimum(report.defect)
    assert type(report.min_defect) is float and same_bits(report.min_defect, low)
    assert report.argmin_node == node
    assert all(type(i) is type(j) for i, j in zip(report.argmin_node, node))


@pytest.mark.parametrize("model", STACK_MODELS)
@pytest.mark.parametrize("rows_per_block", [None, 2])
def test_report_minima_equal_each_fields_own(model_stacks, model, rows_per_block, monkeypatch):
    stack = model_stacks[model]
    if rows_per_block is not None:
        monkeypatch.setattr(
            operators, "_BLOCK_ELEMENTS", rows_per_block * math.prod(stack.manifold.shape)
        )
    A = float(stack.u.max()) * (1.0 + 1e-12)
    for m, K in mk_cases(stack.manifold):
        li_yau = li_yau_defect(stack, m)  # Hamilton reports at K = 0, renamed by replace
        assert {r.inequality for r in li_yau} == {"li_yau"}
        for r in [*hamilton_harnack_defect(stack, m, K), *li_yau, *sup_bound_defect(stack, m, K, A)]:
            assert_minimum_of_its_field(r)


def test_a_tied_minimum_reports_its_first_node(torus_32x48, rng):
    block = rng.standard_normal((4, *torus_32x48.shape))
    block[0, 20, 3] = block[0, 2, 40] = block[0, 2, 7] = -10.0
    block[1] = 0.5  # every node ties
    block[2] = np.abs(block[2]) + 1.0
    block[2, 0, 9], block[2, 1, 0] = 0.0, -0.0  # zeros of both signs tie
    block[3, 5, 5] = -np.inf
    (columns,) = _defect_columns(
        "hamilton", [0.1, 0.2, 0.3, 0.4], torus_32x48.shape, [(3, 0.5)],
        lambda rows, times: lambda m, K: (block[rows], [1e-7] * len(times)), keep=True,
    )
    reports = columns.reports()
    assert [r.argmin_node for r in reports[:3]] == [(2, 7), (0, 0), (0, 9)]
    assert [r.min_defect for r in reports[:2]] == [-10.0, 0.5]
    assert reports[3].argmin_node == (5, 5) and reports[3].min_defect == -math.inf
    for r in reports:
        assert_minimum_of_its_field(r)


@pytest.mark.parametrize("model", STACK_MODELS)
@pytest.mark.parametrize(
    "family, params",
    # the least margin at the horizon, and at an interior sample time
    [("constant_rate", {"rate": -0.4}), ("sinusoidal", {"amplitude": 0.5, "frequency": 3.0})],
)
def test_flow_margins_equal_the_per_time_fields(model_stacks, model, family, params):
    stack = model_stacks[model]
    M = stack.manifold
    flow = make_flow(M, family, params, horizon=2.0)
    times = [*stack.t, *np.linspace(0.0, 2.0, 9).tolist()]
    for m in (M.dim_n + 1.0, M.dim_n + 2.5):
        K = fit_super_flow_constant(flow, m)
        assert same_bits(K, fit_super_flow_constant_loop(flow, m))
        (columns,) = margin_columns(flow, [(m, K)], times, keep=True)
        fields = margin_fields_per_time(flow, m, K, times)
        for t, r, field in zip(times, columns.reports(), fields, strict=True):
            assert (r.inequality, r.t, r.m, r.K) == ("super_ricci_flow", t, m, K)
            assert same_bits(r.defect, field)
            assert_minimum_of_its_field(r)


def test_the_fitted_flow_constant_is_the_least_margin_column_at_K_0(torus_32x48):
    """``fit_super_flow_constant`` is max(0, -min) of the minima of
    ``margin_columns`` at K = 0 over its sample times, bit for bit, with
    the times taken in several row blocks."""
    M = torus_32x48
    assert len(list(operators._row_blocks(FIT_SAMPLES, math.prod(M.shape)))) > 1
    flow = make_flow(M, "sinusoidal", {"amplitude": 0.5, "frequency": 3.0}, horizon=2.0)
    times = np.linspace(0.0, flow.horizon, FIT_SAMPLES).tolist()
    for m in (M.dim_n + 1.0, M.dim_n + 2.5, math.inf):
        (columns,) = margin_columns(flow, [(m, 0.0)], times)
        K = fit_super_flow_constant(flow, m)
        assert K > 0.0 and same_bits(K, max(0.0, -float(columns.min_defect.min())))
        assert same_bits(K, fit_super_flow_constant_loop(flow, m))


def test_a_constant_margin_field_reports_its_first_node():
    flat = circle(64)
    flow = make_flow(flat, "constant_rate", {"rate": -0.4}, horizon=1.0)
    assert fit_super_flow_constant(flow, 2.0) == fit_super_flow_constant_loop(flow, 2.0) == 0.4
    (columns,) = margin_columns(flow, [(2.0, 0.5)], [0.0, 0.5, 1.0], keep=True)
    for r in columns.reports():
        assert np.ptp(r.defect) == 0.0 and r.argmin_node == (0,)
        assert_minimum_of_its_field(r)


def test_exp_series_equals_the_scalar_loop():
    xs = [0.0, 1e-300, 5e-324, 1e-8, 0.5, 1.0, 3.7, 40.0, 123.4]
    want = [exp_series_loop(x) for x in xs]
    assert same_bits(_exp_series(np.array(xs)), want)
    assert same_bits(_exp_series(np.array(xs[::-1]).reshape(3, 3)), np.reshape(want[::-1], (3, 3)))
    for x, w in zip(xs, want):
        got = _exp_series(x)
        assert type(got) is float and same_bits(got, w)
    assert _exp_series(np.array([])).shape == (0,)
    for bad in (-1e-300, np.array([0.5, -1.0])):
        with pytest.raises(ValueError, match="nonnegative"):
            _exp_series(bad)
    with pytest.raises(RuntimeError, match="failed to converge"):
        _exp_series(np.array([0.5, math.inf]))


def test_tilde_comparison_over_times_equals_the_per_time_loop():
    ts = [*np.linspace(0.05, 1.2, 10).tolist(), 1e-300, 3.0, 17.5]
    for m, K in [(2.0, 0.0), (2.0, 0.5), (3.5, 1.0), (5.0, 1.5), (2.0, 1e-320)]:
        want = [tilde_w_comparison_loop(m, K, t) for t in ts]
        got = tilde_w_comparison(m, K, np.array(ts))
        assert list(got) == list(want[0])
        for key, column in got.items():
            assert same_bits(column, [w[key] for w in want]), (m, K, key)
        for t, w in zip(ts, want):
            one = tilde_w_comparison(m, K, t)
            assert one == w and all(type(v) is float for v in one.values())
    assert tilde_w_comparison(2.0, 0.5, [])["Psi"].shape == (0,)
    with pytest.raises(ValueError, match="positive"):
        tilde_w_comparison(2.0, 0.5, [0.5, 0.0])


@pytest.mark.parametrize("model", STACK_MODELS)
def test_the_normalization_over_the_row_times_equals_the_scalar_loop(model_stacks, model):
    stack = model_stacks[model]
    for m, K in [*mk_cases(stack.manifold), (stack.manifold.dim_n + 1.0, 2.5)]:
        want = [phi_mK_loop(t, m, K) for t in stack.t]
        assert same_bits(build_series(stack, m, K).Phi, want)
        assert [phi_mK(t, m, K) for t in stack.t] == want
