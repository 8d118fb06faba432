"""Numerical laboratory for drift Laplacians on flat periodic models.

Builds weighted circles and tori, evolves the heat flow of the drift
Laplacian with exact propagators (constant potentials and separable
tori) or, on weighted circles and non-separable tori, a conservative
Crank-Nicolson scheme, and checks differential Harnack inequalities,
W-entropy identities, and super-Ricci-flow monotonicity quantitatively
on the grid.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 where the environment leaves them unset.
"""

import os

# One BLAS thread: on the small per-axis eigh of the exact propagators thread
# start-up costs more than the arithmetic.  numpy, imported below, reads these.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .geometry import (  # noqa: E402
    BallRatioReport,
    CurvatureField,
    WeightedManifold,
    ball_volume_ratio_check,
    build_manifold,
    circle,
    flat_torus,
    geodesic_distance,
    ricci_bakry_emery,
)
from .harnack import (  # noqa: E402
    DefectColumns,
    DefectReport,
    defect_columns,
    hamilton_harnack_defect,
    integrated_harnack_check,
    integrated_harnack_checks,
    kernel_bounds,
    kernel_dt_log_bounds,
    li_yau_defect,
    sup_bound_defect,
)
from .heatflow import (  # noqa: E402
    HeatState,
    PositivityError,
    SolverConvergenceError,
    evolve,
    initial_delta,
    kernel_state,
    make_state,
    stack_states,
    step,
    uniform_state,
)
from .entropy import (  # noqa: E402
    EntropySeries,
    WDecomposition,
    build_series,
    build_series_per_m,
    entropy_H,
    entropy_second_derivative,
    phi_mK,
    phi_mK_prime,
    tilde_w_comparison,
    tilde_w_entropy,
    w_derivative_decomposition,
    w_entropy,
    w_monotonicity_check,
)
from .operators import (  # noqa: E402
    bochner_residual,
    gamma2,
    gradient,
    hessian,
    integrate_mu,
    laplacian,
    mu_inner,
    witten_laplacian,
)
from .ricciflow import (  # noqa: E402
    FlowSpec,
    entropy_dissipation_on_flow,
    evolve_heat_on_flow,
    fit_super_flow_constant,
    make_flow,
    margin_columns,
    super_ricci_flow_margin,
    w_decomposition_on_flow,
    w_entropy_on_flow,
)

__version__ = "0.1.0"
