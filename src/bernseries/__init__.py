"""Blending operators between endpoint interpolation and sampling,
their eigenstructure, summed operator series, the limit inverse, and
quantitative convergence bounds on the pinned space."""

from .polyfun import (
    DEGREE_CAP,
    DEFAULT_SUP_GRID,
    C0Function,
    FunctionHandle,
    GridSpec,
    Polynomial,
    PSI,
    deflate_by_psi,
    jacobi11,
    limit_eigenpoly,
    omega,
    poly_calculus,
    poly_eval,
    psi_values,
    sup_norm,
)
from .operators import (
    QUAD_TOL,
    QuadratureRule,
    UOperatorMatrix,
    apply_U,
    apply_U_poly,
    bernstein_basis,
    build_u_matrix,
    central_moment,
    functional_moment,
    u_matrix_leading_block,
    u_norm0,
)
from .eigen import (
    EIGEN_N_CAP,
    AsymptoticRecord,
    EigenSystem,
    asymptotic_report,
    compute_eigensystem,
    dual_coefficients,
    eigenvalue,
    limit_dual,
    limit_eigenvalue,
)
from .series import (
    SeriesResult,
    apply_series,
    apply_series_bernstein,
    apply_series_poly,
    poly_limit,
)
from .voronovskaya import (
    apply_A_rho,
    f_infty,
    f_infty_polynomial,
    inverse_neg,
    inverse_neg_polynomial,
    inverse_norm_check,
    residual_H,
)
from .bounds import (
    DEFAULT_BOUND_GRID,
    BoundReport,
    ConvergenceRecord,
    admissible_n,
    bernstein_limit_rhs,
    check_bound,
    convergence_table,
    epsilon_step,
    theorem52_rhs,
)
from .corpus import CORPUS_VERSION, corpus_entry, standard_corpus

__version__ = "0.1.0"

__all__ = [
    "DEGREE_CAP", "DEFAULT_SUP_GRID", "C0Function", "FunctionHandle",
    "GridSpec", "Polynomial", "PSI", "deflate_by_psi", "jacobi11",
    "limit_eigenpoly", "omega", "poly_calculus", "poly_eval",
    "psi_values", "sup_norm",
    "QUAD_TOL", "QuadratureRule", "UOperatorMatrix", "apply_U",
    "apply_U_poly", "bernstein_basis", "build_u_matrix",
    "central_moment", "functional_moment", "u_matrix_leading_block",
    "u_norm0",
    "EIGEN_N_CAP", "AsymptoticRecord", "EigenSystem",
    "asymptotic_report", "compute_eigensystem", "dual_coefficients",
    "eigenvalue", "limit_dual", "limit_eigenvalue",
    "SeriesResult", "apply_series",
    "apply_series_bernstein", "apply_series_poly", "poly_limit",
    "apply_A_rho", "f_infty", "f_infty_polynomial", "inverse_neg",
    "inverse_neg_polynomial", "inverse_norm_check", "residual_H",
    "DEFAULT_BOUND_GRID", "BoundReport", "ConvergenceRecord",
    "admissible_n", "bernstein_limit_rhs", "check_bound",
    "convergence_table", "epsilon_step", "theorem52_rhs",
    "CORPUS_VERSION", "corpus_entry", "standard_corpus",
    "__version__",
]
