"""Correctness of one benchmark repetition, judged from its output files.

:func:`check_outputs` reads ``summary.json``, ``snapshots.csv`` and
``evolution_manifest.csv``; :class:`Reference` gives the exact solution
that ``kernel_rel_err`` compares the solver snapshots against.  Import
it after ``run.import_wittenlab``.
"""

from __future__ import annotations

import json

import numpy as np
from wittenlab.heatflow import initial_delta, kernel_state

MASS_DRIFT_MAX = 1e-10


class Reference:
    """Exact solution at each snapshot time, for ``kernel_rel_err``.

    Constant potential: the closed-form kernel ``heatflow.kernel_state``.
    Separable potential ``phi(x) + psi(y)``: the exact propagator of the
    discrete divergence-form operator, which is the Kronecker sum of one
    symmetrizable matrix per axis, applied to the solver's start state.
    """

    def __init__(self, manifold, solver):
        self.manifold = manifold
        self.x0 = tuple(solver.x0)
        self.t0 = solver.t0
        phi = manifold.potential
        if float(np.ptp(phi)) == 0.0:
            self.axes = None
            return
        if manifold.dim_n == 1:
            parts = [phi]
        else:
            parts = [phi[:, 0], phi[0, :] - phi[0, 0]]
            if np.abs(parts[0][:, None] + parts[1][None, :] - phi).max() > 1e-12:
                raise ValueError("exact reference needs a separable potential")
        self.u0 = initial_delta(manifold, self.x0, t0=self.t0).u
        self.axes = [self._axis(a, p) for a, p in enumerate(parts)]

    def _axis(self, axis, phi):
        n = self.manifold.grid_sizes[axis]
        k = self.manifold.wavenumbers(axis)
        sym = 1j * k
        sym[n // 2] = 0.0
        D = np.real(np.fft.ifft(sym[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0))
        # exp(-phi/2) L exp(phi/2) = -B^T B with B = exp(-phi/2) D exp(phi/2)
        B = np.exp(-0.5 * phi)[:, None] * D * np.exp(0.5 * phi)[None, :]
        lam, V = np.linalg.eigh(-(B.T @ B))
        return lam, V, np.exp(0.5 * phi), np.exp(-0.5 * phi)

    def _propagate(self, u, tau, axis):
        lam, V, left, right = self.axes[axis]
        E = (left[:, None] * V * np.exp(tau * lam)[None, :]) @ (V.T * right[None, :])
        return np.moveaxis(np.tensordot(E, u, axes=([1], [axis])), 0, axis)

    def exact(self, t):
        if self.axes is None:
            return kernel_state(self.manifold, self.x0, t).u
        u = self.u0
        for axis in range(self.manifold.dim_n):
            u = self._propagate(u, t - self.t0, axis)
        return u

    def rel_err(self, times, states):
        worst = 0.0
        for t, u in zip(times, states):
            exact = self.exact(t)
            worst = max(worst, float(np.abs(u - exact).max() / exact.max()))
        return worst


def read_snapshots(path, shape):
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    size = int(np.prod(shape))
    rows = table.reshape(-1, size, table.shape[1])
    return rows[:, 0, 0], rows[:, :, -1].reshape((-1, *shape))


def count_rows(path):
    with open(path) as handle:
        return sum(1 for _ in handle) - 2  # comment line and column header


def check_outputs(out_dir, exit_code, manifold, reference, ceiling):
    """Per-repetition correctness check; returns (ok, reasons, details).

    A repetition passes only if the exit code is 0, every summary.json
    entry is ok, the largest mass drift of the solver snapshots is at most
    1e-10 and ``kernel_rel_err`` is below the workload's ceiling.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    summary = json.loads((out_dir / "summary.json").read_text())
    failed = sorted(name for name, entry in summary.items() if not entry["ok"])
    if failed:
        reasons.append(f"checks failed: {failed}")
    times, states = read_snapshots(out_dir / "snapshots.csv", manifold.shape)
    masses = (states * manifold.measure_weights).reshape(len(states), -1).sum(axis=1)
    drift = float(np.abs(masses - 1.0).max())
    if drift > MASS_DRIFT_MAX:
        reasons.append(f"mass drift {drift:.3g} > {MASS_DRIFT_MAX:g}")
    err = reference.rel_err(times, states)
    if not err < ceiling:
        reasons.append(f"kernel_rel_err {err:.3g} >= ceiling {ceiling:g}")
    details = {
        "kernel_rel_err": err,
        "accepted_steps": count_rows(out_dir / "evolution_manifest.csv"),
    }
    return not reasons, reasons, details
