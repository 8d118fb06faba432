"""Harnack defect fields: soundness under hypothesis and sharp regimes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wittenlab import (
    DefectReport,
    evolve,
    hamilton_harnack_defect,
    initial_delta,
    integrated_harnack_check,
    integrated_harnack_checks,
    kernel_dt_log_bounds,
    kernel_state,
    li_yau_defect,
    make_state,
    ricci_bakry_emery,
    sup_bound_defect,
    uniform_state,
)
from wittenlab.harnack import IntegratedHarnackReport
from wittenlab.operators import random_band_limited

from references import integrated_loop


def positive_test_state(M, rng, t=0.0):
    """Smooth positive density with moderate dynamic range, unit mass."""
    f = random_band_limited(M, rng, max_mode=3, scale=0.3)
    u = np.exp(f)
    from wittenlab.operators import integrate_mu

    return make_state(M, u / integrate_mu(M, u), t)


def test_hamilton_defect_stationary(circle_cos):
    s = uniform_state(circle_cos, t=0.5)
    rep = hamilton_harnack_defect(s, 3.0, 1.0)
    expected = (3.0 / (2 * 0.5)) * math.exp(4 * 1.0 * 0.5)
    assert np.abs(rep.defect - expected).max() < 1e-9
    assert rep.ok


def test_hamilton_reduces_to_li_yau_at_zero_K(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.8)
    a = hamilton_harnack_defect(s, 2.0, 0.0)
    b = li_yau_defect(s, 2.0)
    assert np.array_equal(a.defect, b.defect)


def test_rejects_bad_parameters(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.5)
    with pytest.raises(ValueError):
        hamilton_harnack_defect(s, 0.5, 0.0)
    with pytest.raises(ValueError):
        hamilton_harnack_defect(s, 2.0, -1.0)


def test_defect_report_stores_its_minimum_and_derives_its_verdict():
    defect = np.array([[0.5, -2e-7], [-2e-7, 3.0]])
    rep = DefectReport("hamilton", 0.1, 3.0, 0.5, defect, 1e-7, -2e-7, (0, 1))
    assert (rep.min_defect, rep.argmin_node, rep.ok, rep.extra) == (-2e-7, (0, 1), False, {})
    assert replace(rep, tol=1e-6).ok
    assert not rep.defect.flags.writeable


def test_li_yau_kernel_near_equality_small_t():
    """At t = 1e-3 the circle kernel saturates the sharp bound.

    The defect of the closed-form kernel is an image-weight variance and
    thus nonnegative; its minimum sits on the diagonal and is tiny.
    """
    from wittenlab import circle

    M = circle(256)
    s = kernel_state(M, (0,), 1e-3)
    rep = li_yau_defect(s, 1.0)
    assert rep.min_defect >= -1e-8
    assert rep.min_defect <= 1e-3 / (2 * 1e-3)
    assert rep.ok


def test_defect_monotone_in_K_where_rate_nonnegative(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.4)
    rate = s.dt_log_u
    r1 = hamilton_harnack_defect(s, 2.0, 0.3)
    r2 = hamilton_harnack_defect(s, 2.0, 0.9)
    mask = rate >= 0.0
    assert mask.any()
    assert np.all(r2.defect[mask] > r1.defect[mask])


@pytest.mark.parametrize("m_offsets", [(1.0, 2.0)])
def test_hamilton_soundness_model_matrix(circle_flat, circle_cos, torus_flat, torus_cos, rng, m_offsets):
    """Under K = admissible_K the Hamilton defect stays nonnegative."""
    for M in (circle_flat, circle_cos, torus_flat, torus_cos):
        n = M.dim_n
        s0 = positive_test_state(M, rng)
        snaps = evolve(s0, [0.05, 0.5, 2.0])
        for dm in m_offsets:
            m = n + dm
            K = ricci_bakry_emery(M, m).admissible_K
            for s in snaps:
                rep = hamilton_harnack_defect(s, m, K)
                assert rep.ok, (M.model, m, K, s.t, rep.min_defect)


def test_integrated_harnack_diagonal_flat_kernel(circle_flat):
    s = initial_delta(circle_flat, 0, t0=0.01)
    snaps = evolve(s, [0.01, 0.04], local_error=1e-10)
    rep = integrated_harnack_check(snaps, 0, 0, 0.01, 0.04, 1.0, 0.0)
    assert rep.rhs == pytest.approx(2.0, rel=1e-12)  # (T/tau)^{1/2}
    assert rep.lhs == pytest.approx(2.0, rel=1e-2)
    assert rep.ok


def test_integrated_harnack_off_diagonal_with_potential(circle_cos):
    K = ricci_bakry_emery(circle_cos, 2.0).admissible_K
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.1, 0.5])
    rep = integrated_harnack_check(snaps, 0, 128, 0.1, 0.5, 2.0, K)
    assert rep.distance == pytest.approx(np.pi)
    assert rep.ok


def test_integrated_harnack_rejects_bad_times(circle_flat):
    s = initial_delta(circle_flat, 0, t0=0.01)
    snaps = evolve(s, [0.01, 0.04])
    with pytest.raises(ValueError):
        integrated_harnack_check(snaps, 0, 0, 0.04, 0.01, 1.0, 0.0)


def test_integrated_harnack_pair_sweep(circle_cos):
    K = ricci_bakry_emery(circle_cos, 2.0).admissible_K
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.05, 0.2])
    nodes = range(0, 256, 32)
    for x in nodes:
        for y in nodes:
            rep = integrated_harnack_check(snaps, x, y, 0.05, 0.2, 2.0, K)
            assert rep.ok, (x, y, rep.lhs, rep.rhs)


@pytest.mark.parametrize(
    "fixture,m,sample",
    [
        ("circle_cos", 2.0, [(0,), (1,), (127,), (128,), (255,)]),
        ("circle_cos", 2.0, "random"),
        ("torus_32x48", 3.0, [(0, 0), (31, 47), (0, 47), (16, 24), (5, 17)]),
        ("torus_32x48", 3.0, "random"),
    ],
)
def test_integrated_checks_equal_the_per_pair_loop(request, rng, fixture, m, sample):
    """Every pair of the sample, x == y included, matches bit for bit."""
    M = request.getfixturevalue(fixture)
    if sample == "random":
        sample = [tuple(int(rng.integers(n)) for n in M.shape) for _ in range(6)]
    pairs = [(x, y) for x in sample for y in sample]
    snaps = [positive_test_state(M, rng, t=0.1), positive_test_state(M, rng, t=0.4)]
    K = ricci_bakry_emery(M, m).admissible_K
    xs, ys = zip(*pairs)
    got = integrated_harnack_checks(snaps, xs, ys, 0.1, 0.4, m, K)
    want = integrated_loop(snaps, pairs, 0.1, 0.4, m, K)
    assert got == want
    assert [(r.rhs, r.ok) for r in got] == [(r.rhs, r.ok) for r in want]
    assert all(type(r.distance) is float and type(r.lhs) is float for r in got)
    assert integrated_harnack_checks(snaps, [], [], 0.1, 0.4, m, K) == []
    with pytest.raises(ValueError, match="x nodes against"):
        integrated_harnack_checks(snaps, xs, ys[1:], 0.1, 0.4, m, K)


@pytest.mark.parametrize(
    "T,m,distance",
    [
        pytest.param(0.5000001, 2.0, math.pi, id="d2_over_T_minus_tau"),
        pytest.param(1.0, 5000.0, 0.0, id="large_m"),
    ],
)
def test_integrated_rhs_overflow_is_infinite(T, m, distance):
    rep = IntegratedHarnackReport(
        x=(0,), y=(0,), tau=0.5, T=T, m=m, K=0.0, distance=distance, lhs=1.0
    )
    assert rep.rhs == math.inf
    assert rep.ok


def test_sup_bound_stationary(circle_cos):
    s = uniform_state(circle_cos, t=0.5)
    A = float(s.u.max())
    rep = sup_bound_defect(s, 3.0, 1.0, A)
    expected = 1.0 / (1.0 - math.exp(-0.5)) * 3.0
    assert np.abs(rep.defect - expected).max() < 1e-9
    assert rep.ok


def test_sup_bound_variant_dominates(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.3)
    A = float(s.u.max()) * (1 + 1e-12)
    for K in (0.2, 1.0, 3.0):
        rep = sup_bound_defect(s, 3.0, K, A)
        assert np.all(rep.extra["defect_variant"] >= rep.defect)


def test_sup_bound_prefactor_limit_at_zero_K(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.3)
    A = float(s.u.max()) * (1 + 1e-12)
    r0 = sup_bound_defect(s, 3.0, 0.0, A)
    r_small = sup_bound_defect(s, 3.0, 1e-12, A)
    assert np.abs(r0.defect - r_small.defect).max() < 1e-6


def test_sup_bound_rejects_A_below_max(circle_cos, rng):
    s = positive_test_state(circle_cos, rng, t=0.3)
    with pytest.raises(ValueError, match="A="):
        sup_bound_defect(s, 3.0, 1.0, 0.5 * float(s.u.max()))


def test_sup_bound_kernel_run_under_hypothesis(circle_cos):
    # admissible K for m=3 is exactly 1 on the cosine circle
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.1, 0.25, 0.5])
    A = max(float(x.u.max()) for x in snaps) * (1 + 1e-12)
    for x in snaps:
        rep = sup_bound_defect(x, 3.0, 1.0, A)
        assert rep.ok, (x.t, rep.min_defect)


def test_kernel_dt_log_lower_bound_flat(circle_flat):
    s = initial_delta(circle_flat, 0, t0=0.1)
    snaps = evolve(s, [0.1, 0.3, 1.0, 2.0])
    rep = kernel_dt_log_bounds(snaps, 2.0, 0.0)
    assert rep.ok
    assert rep.fitted_upper_constant > 0.0


def test_kernel_dt_log_lower_bound_with_potential(circle_cos):
    K = ricci_bakry_emery(circle_cos, 3.0).admissible_K
    s = initial_delta(circle_cos, 0, t0=0.1)
    snaps = evolve(s, [0.1, 0.5, 1.0])
    rep = kernel_dt_log_bounds(snaps, 3.0, K)
    assert rep.ok


def test_kernel_dt_log_stationary_is_sound(circle_cos):
    from wittenlab.heatflow import KernelInfo, HeatState

    u = np.full(circle_cos.shape, 1.0 / circle_cos.mu_total)
    s = HeatState(
        manifold=circle_cos,
        t=0.7,
        u=u,
        kernel=KernelInfo(x0=(0,), analytic=False),
    )
    rep = kernel_dt_log_bounds([s], 2.0, 1.0)
    assert rep.ok
    assert rep.min_margin == pytest.approx((2.0 / (2 * 0.7)) * math.exp(2 * 0.7), rel=1e-9)


def test_kernel_dt_log_bounds_reject_rows_of_another_source_or_no_kernel():
    from wittenlab import circle

    M = circle(64)
    from_0, from_20 = (evolve(initial_delta(M, x0, t0=0.1), [0.2])[0] for x0 in (0, 20))
    # each run alone fits its own constant, against its own source
    alone = kernel_dt_log_bounds([from_20], 2.0, 0.0).fitted_upper_constant
    assert alone == pytest.approx(0.167, abs=5e-3)
    with pytest.raises(ValueError, match=r"row 1 \(t=0.2\) comes from x0=\(20,\), row 0 from"):
        kernel_dt_log_bounds([from_0, from_20], 2.0, 0.0)
    no_kernel = make_state(M, from_0.u, 0.3)
    with pytest.raises(ValueError, match=r"row 1 \(t=0.3\) has no kernel"):
        kernel_dt_log_bounds([from_0, no_kernel], 2.0, 0.0)
    with pytest.raises(ValueError, match=r"row 0 \(t=0.3\) has no kernel"):
        kernel_dt_log_bounds([no_kernel], 2.0, 0.0)


def test_kernel_dt_log_fitted_constant_grid_stability():
    from wittenlab import circle

    consts = []
    for n in (256, 512):
        M = circle(n)
        s = initial_delta(M, 0, t0=0.1)
        snaps = evolve(s, [0.1, 0.2, 0.5, 1.0])
        rep = kernel_dt_log_bounds(snaps, 2.0, 0.0)
        consts.append(rep.fitted_upper_constant)
    assert abs(consts[1] - consts[0]) <= 0.05 * abs(consts[0])
