#!/usr/bin/env python3
"""Heat flow of the drift Laplacian: kernels, conservation, equilibration.

Starts a unit-mass near-delta state, evolves it (exactly in Fourier
space on a flat model, with the conservative implicit scheme otherwise),
and compares against closed forms where they exist.
"""

import math

import numpy as np

import wittenlab as wl

print(__doc__)

# Flat circle: the kernel is the wrapped Gaussian, sampled exactly.
M = wl.circle(256)
s = wl.initial_delta(M, 0, t0=0.01)
print(f"kernel at t0=0.01: u(x0) = {s.u[0]:.12f}  vs (4 pi t)^(-1/2) = "
      f"{(4 * math.pi * 0.01) ** -0.5:.12f}")
print(f"mass = {s.mass:.15f}")

# Evolve by the exact Fourier propagator of the zero-potential operator;
# mass stays pinned and the state relaxes to the uniform density.
snaps = wl.evolve(M, s, [0.1, 0.5, 2.0, 10.0])
for out in snaps:
    sup = np.abs(out.u - 1.0 / M.mu_total).max()
    err = np.abs(out.u - wl.kernel_state(M, (0,), out.t).u).max()
    print(f"t = {out.t:5.2f}: mass-1 = {out.mass - 1:+.2e}   sup|u - uniform| = {sup:.3e}"
          f"   |u - kernel| = {err:.1e}")

# Second-order convergence: halving dt divides the error by about 4.
x = M.axis_coordinates(0)


def mode_error(n_steps, T=0.4):
    u = (1.0 + 0.9 * np.cos(x)) / M.mu_total
    state = wl.make_state(M, u, 0.0)
    for _ in range(n_steps):
        state = wl.step(M, state, T / n_steps)
    exact = (1.0 + 0.9 * math.exp(-T) * np.cos(x)) / M.mu_total
    return np.abs(state.u - exact).max()


e20, e40 = mode_error(20), mode_error(40)
print(f"\nsingle-mode decay error: dt=T/20 -> {e20:.3e}, dt=T/40 -> {e40:.3e}, "
      f"ratio {e20 / e40:.2f} (second order)")

# With a potential there is no closed kernel; a positive band-limited
# bump is warmed up by a damped implicit ramp instead.
Mc = wl.circle(256, potential={"family": "cosine", "params": {"a": 1.0, "k": 1}})
sc = wl.initial_delta(Mc, 0, t0=0.05)
print(f"\ncosine potential: warm-started kernel at t0=0.05 has min u = {sc.u.min():.3e} > 0")
rate = wl.dt_log_u(Mc, sc)
print(f"d/dt log u on the diagonal: {rate[0]:+.3f} (negative: the peak is spreading)")
