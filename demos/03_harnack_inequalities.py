#!/usr/bin/env python3
"""Differential Harnack inequalities as nonnegative defect fields.

Every inequality is evaluated pointwise as RHS - LHS, so a nonnegative
minimum certifies it on the grid.  The sharp-constant bound saturates
in the small-time Gaussian regime; the curvature-corrected bound holds
with room to spare under the admissible constant.
"""

import wittenlab as wl

print(__doc__)

# Sharp regime: the flat-circle kernel at t = 1e-3.  The defect of the
# closed-form kernel equals an image-weight variance over Gaussian
# images, hence is nonnegative; its minimum sits on the diagonal.
M = wl.circle(256)
s = wl.kernel_state(M, (0,), 1e-3)
rep = wl.li_yau_defect(s, 1.0)
print(f"sharp-constant defect at t=1e-3: min = {rep.min_defect:.3e} "
      f"(scale 1/(2t) = {1 / 2e-3:.0f}) -> near-equality")

# Curvature-corrected bound under the admissible constant.
Mc = wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})
m = 3.0
K = wl.ricci_bakry_emery(Mc, m).admissible_K
print(f"\ncosine circle, m={m}: admissible K = {K:.6f}")
s0 = wl.initial_delta(Mc, 0, t0=0.05)
snaps = wl.evolve(s0, [0.1, 0.5, 1.0, 2.0])
for s in snaps:
    rep = wl.hamilton_harnack_defect(s, m, K)
    print(f"  t = {s.t:4.1f}: min defect = {rep.min_defect:10.4f}  ok = {rep.ok}")

# Integrated two-point bound: u(x, tau)/u(y, T) against the explicit
# Gaussian-type right-hand side.
rep = wl.integrated_harnack_check(snaps, 0, 128, 0.1, 0.5, m, K)
print(f"\nintegrated bound x=0, y=antipode: lhs = {rep.lhs:.4f} <= rhs = {rep.rhs:.4f}")

# Sup-normalized bound for bounded solutions, plus its looser (K + 1/t)
# variant, which dominates node-wise.
A = max(float(x.u.max()) for x in snaps) * (1 + 1e-12)
rep = wl.sup_bound_defect(snaps[1], m, 1.0, A)
variant = rep.extra["defect_variant"]
print(f"\nsup-normalized defect at t=0.5: min = {rep.min_defect:.4f}, "
      f"variant-minus-main >= {float((variant - rep.defect).min()):.3e} node-wise")

# Kernel runs obey two-sided bounds on d/dt log u; the upper-shape
# constant is a stable diagnostic under grid refinement.
rep = wl.kernel_dt_log_bounds(snaps, m, K)
print(f"\nkernel d/dt log u: min margin above the lower bound = {rep.min_margin:.3f}, "
      f"fitted upper-shape constant = {rep.fitted_upper_constant:.4f}")
