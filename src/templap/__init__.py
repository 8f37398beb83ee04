"""templap: finite-difference solver for the 1-D tempered fractional Laplacian.

Discretizes the Dirichlet problem

    -(Delta + lam)^{beta/2} u = f   on (a, b),
    u = g                           on R \\ (a, b),

for every order beta in (0, 2) and tempering rate lam >= 0, on a uniform
grid.  The stiffness matrix is diagonal-plus-symmetric-Toeplitz, stored in
2M floats, with O(M log M) products by FFT; systems are solved by conjugate
gradients with either a diagonally compensated banded Cholesky
preconditioner or the closest-circulant (T. Chan) preconditioner.

The names below are the public API; the building blocks behind them
(closed-form coefficients, quadrature rules, special functions) stay
importable from their own modules.
"""

from .assembly import (
    BoundarySpec,
    OperatorMatrix,
    assemble_operator,
    assemble_rhs,
    materialize_dense,
    offdiag_row_sums,
)
from .convergence import (
    ConvergenceReport,
    ExperimentConfig,
    compute_rates,
    error_norms,
    format_report,
    run_convergence_study,
)
from .core import Grid, SchemeParams
from .preconditioners import (
    BandedCholPrecond,
    CirculantPrecond,
    build_band_compensated_ichol,
    build_tchan_precond,
)
from .problems import (
    example1_exact,
    example1_f,
    example2_setup,
    example3_exact,
    example3_setup,
)
from .reference import reference_apply_operator
from .solvers import SolveReport, pcg_solve
from .tails import tail_profile

__version__ = "0.1.0"

__all__ = [
    "BandedCholPrecond",
    "BoundarySpec",
    "CirculantPrecond",
    "ConvergenceReport",
    "ExperimentConfig",
    "Grid",
    "OperatorMatrix",
    "SchemeParams",
    "SolveReport",
    "assemble_operator",
    "assemble_rhs",
    "build_band_compensated_ichol",
    "build_tchan_precond",
    "compute_rates",
    "error_norms",
    "example1_exact",
    "example1_f",
    "example2_setup",
    "example3_exact",
    "example3_setup",
    "format_report",
    "materialize_dense",
    "offdiag_row_sums",
    "pcg_solve",
    "reference_apply_operator",
    "run_convergence_study",
    "tail_profile",
]
