"""Acceptance suite: every exit criterion, one test each, stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and enforces its runtime budget.  The model matrix used by the soundness
criteria is {circle, torus} x {zero, 0.5 cos, cos} potentials with
dimension parameters m in {n+1, n+2, 2n}.
"""

import math
import time

import numpy as np

import wittenlab as wl
from wittenlab.entropy import monotonicity_bound
from wittenlab.operators import (
    gamma2,
    gradient,
    hessian,
    integrate_mu,
    mu_inner,
    random_band_limited,
    witten_laplacian,
)


def _report(criterion, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {criterion}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget: {line}"


def _model(kind, amplitude):
    potential = (
        {"family": "zero"}
        if amplitude == 0.0
        else {"family": "cosine", "params": {"a": amplitude, "k": 1}}
    )
    if kind == "circle":
        return wl.circle(256, potential=potential)
    return wl.flat_torus(64, potential=potential)


def _matrix():
    out = []
    for kind in ("circle", "torus"):
        for a in (0.0, 0.5, 1.0):
            out.append(_model(kind, a))
    return out


def _m_values(M):
    n = M.dim_n
    return sorted({n + 1.0, n + 2.0, 2.0 * n})


def well_ranged_state(M, seed, t=0.0):
    """Smooth strictly positive unit-mass density with moderate range."""
    rng = np.random.default_rng(seed)
    f = random_band_limited(M, rng, max_mode=3, scale=0.3)
    u = np.exp(f)
    return wl.make_state(M, u / integrate_mu(M, u), t)


def test_criterion_01_bochner_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for M in _matrix():
        rng = np.random.default_rng(11)
        count = 50 if M.dim_n == 1 else 13  # 50 circle fields, 2x13+ torus fields
        for _ in range(count):
            f = random_band_limited(M, rng)
            G = gradient(M, f)
            sq = np.einsum("a...,a...->...", G, G)
            terms = [
                witten_laplacian(M, sq),
                2.0 * np.einsum("a...,a...->...", G, gradient(M, witten_laplacian(M, f))),
                2.0 * gamma2(M, f),
            ]
            scale = 1.0 + max(float(np.abs(term).max()) for term in terms)
            res = terms[0] - terms[1] - terms[2]
            worst = max(worst, float(np.abs(res).max()) / scale)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-8, elapsed, 5.0, f"worst relative residual {worst:.2e}")


def test_criterion_02_self_adjointness_and_mass():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for M in _matrix():
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = random_band_limited(M, rng)
            h = random_band_limited(M, rng)
            a = mu_inner(M, f, witten_laplacian(M, h))
            b = mu_inner(M, h, witten_laplacian(M, f))
            worst_gap = max(worst_gap, abs(a - b) / max(1.0, abs(a)))
    M = wl.circle(256)
    s = wl.initial_delta(M, 0, t0=1e-3)
    snaps = wl.evolve(s, [0.01, 0.1, 0.5, 1.0, 2.0])
    drift = max(abs(x.mass - 1.0) for x in snaps)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and drift <= 1e-10
    _report(2, ok, elapsed, 10.0, f"adjointness gap {worst_gap:.2e}, mass drift {drift:.2e}")


def test_criterion_03_li_yau_near_equality():
    t0 = time.perf_counter()
    M = wl.circle(256)
    s = wl.kernel_state(M, (0,), 1e-3)
    rep = wl.li_yau_defect(s, 1.0)
    hi = 1e-3 * (1.0 / (2.0 * 1e-3))
    ok = -1e-8 <= rep.min_defect <= hi
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 10.0, f"min defect {rep.min_defect:.3e} in [-1e-8, {hi}]")


def test_criterion_04_hamilton_soundness_matrix():
    t0 = time.perf_counter()
    worst_rel = math.inf
    times = [0.05, 0.1, 0.5, 1.0, 2.0]
    for seed, M in enumerate(_matrix()):
        snaps = wl.evolve(well_ranged_state(M, 100 + seed), times)
        for m in _m_values(M):
            K = wl.ricci_bakry_emery(M, m).admissible_K
            for s in snaps:
                rep = wl.hamilton_harnack_defect(s, m, K)
                scale = (m / (2 * s.t)) * math.exp(4 * K * s.t)
                worst_rel = min(worst_rel, rep.min_defect / scale)
                assert rep.ok, (M.model, m, K, s.t, rep.min_defect)
    elapsed = time.perf_counter() - t0
    _report(4, worst_rel >= -1e-6, elapsed, 120.0, f"worst defect/scale {worst_rel:.3e}")


def test_criterion_05_integrated_harnack():
    t0 = time.perf_counter()
    pairs_checked = 0
    diag_err = 0.0
    all_ok = True
    configs = [
        (wl.circle(256), 1.0),
        (
            wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}}),
            2.0,
        ),
    ]
    windows = [(0.05, 0.2), (0.1, 0.5)]
    for M, m in configs:
        K = wl.ricci_bakry_emery(M, m).admissible_K
        s = wl.initial_delta(M, 0, t0=0.01)
        snaps = wl.evolve(s, sorted({t for w in windows for t in w}), local_error=1e-10)
        nodes = [(i * M.shape[0] // 8,) for i in range(8)]
        for tau, T in windows:
            for x in nodes:
                for y in nodes:
                    rep = wl.integrated_harnack_check(snaps, x, y, tau, T, m, K)
                    pairs_checked += 1
                    all_ok = all_ok and rep.ok
        if K == 0.0:
            for tau, T in windows:
                rep = wl.integrated_harnack_check(snaps, (0,), (0,), tau, T, m, K)
                diag_err = max(diag_err, abs(rep.lhs - (T / tau) ** (m / 2)) / rep.lhs)
    ok = all_ok and diag_err <= 0.01
    elapsed = time.perf_counter() - t0
    _report(
        5, ok, elapsed, 30.0,
        f"{pairs_checked} pairs, diagonal error {diag_err:.2%}",
    )


def test_criterion_06_sup_bound():
    t0 = time.perf_counter()
    all_ok = True
    variant_dominates = True
    worst_rel = math.inf
    runs = [
        (
            wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}}),
            3.0,
            "kernel",
        ),
        (wl.flat_torus(64), 3.0, "smooth"),
    ]
    for M, m, kind in runs:
        K = max(wl.ricci_bakry_emery(M, m).admissible_K, 0.1)
        if kind == "kernel":
            s0 = wl.initial_delta(M, (0,) * M.dim_n, t0=0.05)
        else:
            s0 = well_ranged_state(M, 3)
        snaps = wl.evolve(s0, [0.1, 0.25, 0.5])
        A = max(float(s.u.max()) for s in snaps) * (1 + 1e-12)
        for s in snaps:
            rep = wl.sup_bound_defect(s, m, K, A)
            all_ok = all_ok and rep.ok
            scale = (K / -math.expm1(-K * s.t)) * m
            worst_rel = min(worst_rel, rep.min_defect / scale)
            variant_dominates = variant_dominates and bool(
                np.all(rep.extra["defect_variant"] >= rep.defect)
            )
    ok = all_ok and variant_dominates and worst_rel >= -1e-6
    elapsed = time.perf_counter() - t0
    _report(
        6, ok, elapsed, 30.0,
        f"worst defect/scale {worst_rel:.3e}, variant dominates node-wise: {variant_dominates}",
    )


def test_criterion_07_kernel_dt_log_bounds():
    t0 = time.perf_counter()
    times = [0.1, 0.2, 0.5, 1.0]
    fitted = {}
    all_ok = True
    for n in (256, 512):
        M = wl.circle(n)
        s = wl.initial_delta(M, 0, t0=0.1)
        snaps = wl.evolve(s, times)
        rep = wl.kernel_dt_log_bounds(snaps, 2.0, 0.0)
        all_ok = all_ok and rep.ok
        fitted[n] = rep.fitted_upper_constant
    Mc = wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})
    K = wl.ricci_bakry_emery(Mc, 3.0).admissible_K
    s = wl.initial_delta(Mc, 0, t0=0.1)
    rep = wl.kernel_dt_log_bounds(wl.evolve(s, times), 3.0, K)
    all_ok = all_ok and rep.ok
    stability = abs(fitted[512] - fitted[256]) / abs(fitted[256])
    ok = all_ok and stability <= 0.05
    elapsed = time.perf_counter() - t0
    _report(
        7, ok, elapsed, 30.0,
        f"fitted constant {fitted[256]:.4f} -> {fitted[512]:.4f} ({stability:.2%} shift)",
    )


def test_criterion_08_entropy_dissipation():
    t0 = time.perf_counter()
    d = 1e-3

    # exact single-mode states on the flat circle
    M = wl.circle(256)
    x = M.axis_coordinates(0)

    def mode(t):
        u = (1.0 + 0.9 * math.exp(-t) * np.cos(x)) / M.mu_total
        return wl.make_state(M, u, t)

    tc = 0.5
    H = {dt: wl.entropy_H(mode(tc + dt))[0] for dt in (-d, 0.0, d)}
    fd1 = (H[d] - H[-d]) / (2 * d)
    _, dH = wl.entropy_H(mode(tc))
    err1 = abs(fd1 - dH) / abs(dH)
    fd2 = (H[d] - 2 * H[0.0] + H[-d]) / d**2
    d2H = wl.entropy_second_derivative(mode(tc))
    err2 = abs(fd2 - d2H) / abs(d2H)

    # solver-evolved states with a potential
    Mc = wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})
    snaps = wl.evolve(well_ranged_state(Mc, 5), [tc - d, tc, tc + d], local_error=1e-11)
    Hs = [wl.entropy_H(s)[0] for s in snaps]
    _, dHs = wl.entropy_H(snaps[1])
    err1s = abs((Hs[2] - Hs[0]) / (2 * d) - dHs) / abs(dHs)
    d2Hs = wl.entropy_second_derivative(snaps[1])
    err2s = abs((Hs[2] - 2 * Hs[1] + Hs[0]) / d**2 - d2Hs) / abs(d2Hs)

    ok = err1 <= 1e-4 and err2 <= 1e-3 and err1s <= 1e-4 and err2s <= 1e-3
    elapsed = time.perf_counter() - t0
    _report(
        8, ok, elapsed, 30.0,
        f"first-derivative error {max(err1, err1s):.2e}, second {max(err2, err2s):.2e}",
    )


def test_criterion_09_w_entropy_formula():
    t0 = time.perf_counter()
    d = 1e-3
    centers = [0.05, 0.1, 0.5, 1.0, 2.0]
    targets = sorted({t + dt for t in centers for dt in (-d, 0.0, d)})
    worst_residual = 0.0
    monotone = True
    for seed, M in enumerate(_matrix()):
        m = M.dim_n + 2.0
        K = wl.ricci_bakry_emery(M, m).admissible_K
        snaps = wl.evolve(well_ranged_state(M, 200 + seed), targets, local_error=1e-9)
        series = wl.build_series(snaps, m, K)
        idx = [int(np.argmin(np.abs(series.times - t))) for t in centers]
        for i in idx:
            rel = abs(series.residual[i]) / (1.0 + abs(series.dW_dt_formula[i]))
            worst_residual = max(worst_residual, rel)
        slack = 1e-9 * (1.0 + np.abs(series.monotonicity_bound))
        monotone = monotone and bool(
            np.all(series.dW_dt_formula <= series.monotonicity_bound + slack)
        )

    # K = 0 reduction against independently coded terms, one weighted model
    M = wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})
    s = well_ranged_state(M, 77, t=0.6)
    m = 3.0
    dec = wl.w_derivative_decomposition(s, m, 0.0)
    logu = np.log(s.u)
    Hl = hessian(M, logu)[0, 0]
    G = gradient(M, logu)[0]
    gphi = gradient(M, M.potential)[0]
    xs = M.axis_coordinates(0)
    ric = -np.cos(xs) - np.sin(xs) ** 2 / (m - 1)
    t = s.t
    t1 = -2 * t * integrate_mu(M, (Hl + 1 / (2 * t)) ** 2 * s.u)
    t2 = -2 * t * integrate_mu(M, ric * G**2 * s.u)
    t3 = -2 * t / (m - 1) * integrate_mu(M, (gphi * G - (m - 1) / (2 * t)) ** 2 * s.u)
    reduction = max(abs(dec.T1 - t1), abs(dec.T2 - t2), abs(dec.T3 - t3), abs(dec.T4))

    ok = worst_residual <= 1e-3 and monotone and reduction <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(
        9, ok, elapsed, 120.0,
        f"worst residual {worst_residual:.2e}, monotone {monotone}, "
        f"zero-K reduction gap {reduction:.2e}",
    )


def test_criterion_10_comparison_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for m in np.linspace(1.0, 5.0, 10):
        for K in np.linspace(0.0, 1.5, 10):
            for t in np.linspace(0.05, 1.2, 10):
                out = wl.tilde_w_comparison(float(m), float(K), float(t))
                worst = max(worst, abs(out["identity_residual"]))
    spot_target = 5 * math.exp(4.0) - 4.0
    spot_value = -monotonicity_bound(1.0, 2.0, 1.0)
    spot_ok = abs(spot_value - spot_target) <= 1e-6 * spot_target
    ok = worst <= 1e-9 and spot_ok
    elapsed = time.perf_counter() - t0
    _report(
        10, ok, elapsed, 1.0,
        f"worst lattice residual {worst:.2e}, spot value {spot_value:.2f}",
    )


def test_criterion_11_flow_reduction_and_monotonicity():
    t0 = time.perf_counter()
    Mc = wl.circle(256, potential={"family": "cosine", "params": {"a": 0.3, "k": 1}})

    # static reduction
    static = wl.make_flow(Mc, "static", horizon=1.0)
    s = well_ranged_state(Mc, 4)
    base = wl.evolve(s, [0.2, 0.6])
    on_flow = wl.evolve_heat_on_flow(static, s, [0.2, 0.6])
    reduction_gap = max(
        float(np.abs(a.u - b.u).max()) for a, b in zip(base, on_flow)
    )
    s_mid = base[0]
    dec_gap = 0.0
    a = wl.w_decomposition_on_flow(static, s_mid, 3.0, 0.5)
    b = wl.w_derivative_decomposition(s_mid, 3.0, 0.5)
    dec_gap = max(abs(a.T1 - b.T1), abs(a.T2 - b.T2), abs(a.T3 - b.T3), abs(a.T4 - b.T4))

    # measure invariance and monotonicity on a shrinking flow at fitted K
    flow = wl.make_flow(Mc, "constant_rate", {"rate": -0.4}, horizon=2.0)
    w0 = flow.measure_weights(0.0)
    mu_gap = max(
        float(np.abs(flow.measure_weights(float(t)) - w0).max()) for t in np.linspace(0, 2, 9)
    )
    m = 3.0
    K = wl.fit_super_flow_constant(flow, m)
    s0 = wl.initial_delta(Mc, 0, t0=0.05)
    snaps = wl.evolve_heat_on_flow(flow, s0, [0.1, 0.5, 1.0, 1.8])
    monotone = True
    for snap in snaps:
        dec = wl.w_decomposition_on_flow(flow, snap, m, K)
        monotone = monotone and dec.dW_dt_formula <= dec.T4 + 1e-9 * (1 + abs(dec.T4))

    # time change equivalence on the flat circle
    Mf = wl.circle(256)
    tflow = wl.make_flow(Mf, "constant_rate", {"rate": -0.5}, horizon=1.0)
    x = Mf.axis_coordinates(0)
    u0 = (1.0 + 0.9 * np.cos(x)) / Mf.mu_total
    state0 = wl.make_state(Mf, u0, 0.0)
    T = 0.8
    flowed = wl.evolve_heat_on_flow(tflow, state0, [T], local_error=1e-10)[0]
    s_of_T = math.exp(T) - 1.0
    exact = (1.0 + 0.9 * math.exp(-s_of_T) * np.cos(x)) / Mf.mu_total
    timechange_err = float(np.abs(flowed.u - exact).max())

    ok = (
        reduction_gap <= 1e-12
        and dec_gap <= 1e-12
        and mu_gap <= 1e-14 * float(w0.max())
        and monotone
        and timechange_err <= 1e-6
    )
    elapsed = time.perf_counter() - t0
    _report(
        11, ok, elapsed, 60.0,
        f"static gap {reduction_gap:.1e}, measure gap {mu_gap:.1e}, "
        f"time-change error {timechange_err:.1e}, fitted K {K:.3f}",
    )


def test_criterion_12_convergence_order_and_grid_stability():
    t0 = time.perf_counter()
    M = wl.circle(256)
    x = M.axis_coordinates(0)
    T = 0.4

    def error(n_steps):
        u = (1.0 + 0.9 * np.cos(x)) / M.mu_total
        s = wl.make_state(M, u, 0.0)
        for _ in range(n_steps):
            s = wl.step(s, T / n_steps)
        exact = (1.0 + 0.9 * math.exp(-T) * np.cos(x)) / M.mu_total
        return float(np.abs(s.u - exact).max())

    ratio = error(20) / error(40)
    order_ok = 3.6 < ratio < 4.4

    # inequality flags unchanged under grid doubling
    def flags(n):
        out = []
        for a in (0.0, 1.0):
            pot = {"family": "zero"} if a == 0.0 else {
                "family": "cosine", "params": {"a": a, "k": 1}
            }
            Mn = wl.circle(n, potential=pot)
            m = 3.0
            K = wl.ricci_bakry_emery(Mn, m).admissible_K
            s0 = wl.initial_delta(Mn, 0, t0=0.05) if a else well_ranged_state(Mn, 9)
            snaps = wl.evolve(s0, [0.1, 0.5])
            A = max(float(s.u.max()) for s in snaps) * (1 + 1e-12)
            for s in snaps:
                out.append(wl.hamilton_harnack_defect(s, m, K).ok)
                out.append(wl.sup_bound_defect(s, m, max(K, 0.1), A).ok)
            series = wl.build_series(snaps, m, K)
            out.append(wl.w_monotonicity_check(series))
            out.append(
                wl.integrated_harnack_check(snaps, (0,), (n // 2,), 0.1, 0.5, m, K).ok
            )
        return out

    flags_match = flags(256) == flags(512)
    ok = order_ok and flags_match and all(flags(256))
    elapsed = time.perf_counter() - t0
    _report(
        12, ok, elapsed, 120.0,
        f"dt-halving ratio {ratio:.2f}, flags stable under doubling: {flags_match}",
    )
