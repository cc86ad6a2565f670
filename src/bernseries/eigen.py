"""Eigenstructure of the blending operators and its large-n limit.

The operator restricted to Pi_n is upper triangular on monomials with
distinct positive diagonal entries beyond index one, so each eigenvalue
carries a unique monic eigenpolynomial obtained by back-substitution.
Dual functionals on polynomials are coefficient solves against the
triangular change of basis from eigenpolynomials to monomials.

The limiting objects are the scaled eigenvalue slopes, the monic limit
eigenpolynomials built from Jacobi(1,1) polynomials, and the limit dual
functionals combining endpoint values with one weighted integral. The
report helper quantifies how fast the finite-n eigensystem approaches
these limits; for degrees two and three, and for every degree when rho
equals one, the finite-n eigenpolynomials already coincide with their
limits, so the reported distances sit at rounding level there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .polyfun import (
    DEFAULT_SUP_GRID,
    GridSpec,
    Polynomial,
    _as_handle,
    _solve_upper,
    jacobi11,
    limit_eigenpoly,
    poly_eval,
)
from .operators import (
    UOperatorMatrix,
    _cached_beta_rule,
    _checked_legendre,
    _homogeneous,
    _require_rho,
    u_matrix_leading_block,
)

__all__ = [
    "EIGEN_N_CAP",
    "EigenSystem",
    "AsymptoticRecord",
    "eigenvalue",
    "compute_eigensystem",
    "dual_coefficients",
    "limit_eigenvalue",
    "limit_dual",
    "asymptotic_report",
]

# Monomial-basis eigen solves stay well conditioned only up to about
# this n; beyond it the change of basis has entries large enough that
# dual reconstructions drop under ten significant digits.
EIGEN_N_CAP = 30


def eigenvalue(n: int, rho: float, j: int) -> float:
    """Eigenvalue of index j: product of rho (n-i) / (n rho + i).

    Indices 0 and 1 give exactly one; the sequence is strictly
    decreasing from index one on and stays in (0, 1]. At rho = inf the
    factors are (n-i)/n, the eigenvalues of the Bernstein operator.
    """
    _require_rho(rho)
    if not 0 <= j <= n:
        raise ValueError(f"index {j} outside 0..{n}")
    r, w = _homogeneous(rho)
    v = 1.0
    for i in range(j):
        v *= r * (n - i) / (n * r + i * w)
    return v


def _triangular_eigenbasis(M: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Monic eigenvectors of an upper-triangular operator matrix.

    Column j solves (M - lambda_j I) v = 0 with v_j pinned to one by
    back-substitution over rows j-1 .. 0. Indices 0 and 1 are the known
    exact eigenvectors of the constant and of x - 1/2, bypassing the
    0/0 the shared unit eigenvalue would produce.
    """
    d = M.shape[0] - 1
    basis = np.zeros((d + 1, d + 1))
    basis[0, 0] = 1.0
    if d >= 1:
        basis[0, 1] = -0.5
        basis[1, 1] = 1.0
    for j in range(2, d + 1):
        v = np.zeros(d + 1)
        v[j] = 1.0
        for i in range(j - 1, -1, -1):
            v[i] = (M[i, i + 1:j + 1] @ v[i + 1:j + 1]) / (lambdas[j] - M[i, i])
        basis[:, j] = v
    return basis


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues, monic eigenpolynomials, and the dual solve data.

    ``basis`` is the upper-triangular change of basis whose column j
    holds the coefficients of the j-th eigenpolynomial; its unit
    diagonal makes the triangular dual solve stable without any
    factorization beyond the matrix itself.
    """

    n: int
    rho: float
    lambdas: np.ndarray
    eigenpolys: Tuple[Polynomial, ...]
    basis: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).copy()
        basis = np.asarray(self.basis, dtype=float).copy()
        lam.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "basis", basis)


def compute_eigensystem(mat: UOperatorMatrix) -> EigenSystem:
    """Solve the full eigenstructure of a materialized operator matrix.

    Raises if the matrix diagonal drifts from the closed-form
    eigenvalues beyond 1e-10, or if consecutive eigenvalues come closer
    than a relative 1e-12 gap, which would poison the back-substitution
    (neither can occur for positive rho and n within the cap).
    """
    n, rho, M = mat.n, mat.rho, mat.M
    if n > EIGEN_N_CAP:
        raise ValueError(
            f"eigen solves are limited to n <= {EIGEN_N_CAP}; got n={n}"
        )
    lam = np.array([eigenvalue(n, rho, j) for j in range(n + 1)])
    drift = float(np.max(np.abs(np.diag(M) - lam)))
    if drift > 1e-10:
        raise RuntimeError(
            f"matrix diagonal disagrees with the eigenvalue formula "
            f"by {drift:.3e}"
        )
    for j in range(2, n + 1):
        if lam[j - 1] - lam[j] <= 1e-12 * lam[j - 1]:
            raise RuntimeError(
                f"near-degenerate eigenvalue gap between indices "
                f"{j - 1} and {j}"
            )
    basis = _triangular_eigenbasis(M, lam)
    polys = tuple(Polynomial(basis[: j + 1, j]) for j in range(n + 1))
    return EigenSystem(n, rho, lam, polys, basis)


def dual_coefficients(sys: EigenSystem, p: Polynomial) -> np.ndarray:
    """Expansion coefficients of p in the eigenpolynomial basis.

    Triangular solve against the change of basis; entry j is the value
    of the j-th dual functional at p.
    """
    if p.degree > sys.n:
        raise ValueError(
            f"degree {p.degree} exceeds the eigensystem span {sys.n}"
        )
    c = p.padded(sys.n + 1)
    return _solve_upper(sys.basis, c)


def limit_eigenvalue(rho: float, j: int) -> float:
    """Scaled eigenvalue slope in the limit: -(rho+1)/(2 rho) (j-1) j.

    At rho = inf the factor is 1/2.
    """
    _require_rho(rho)
    if j < 0:
        raise ValueError("index must be nonnegative")
    r, w = _homogeneous(rho)
    return -((r + w) / (2.0 * r)) * (j - 1.0) * j


def limit_dual(j: int, f) -> float:
    """Limit dual of index j applied to f, a handle, Polynomial or callable.

    Index 0 averages the endpoint values, index 1 takes their
    difference. Higher indices combine the endpoint values with the
    integral of f against the degree-(j-2) Jacobi(1,1) polynomial
    rescaled to [0, 1], weighted by a central binomial factor. The
    integral uses a Legendre rule, sized to be exact when f carries
    polynomial coefficients and of 64 nodes otherwise, checked against
    128 nodes: when the two differ by more than QUAD_TOL (relative above
    magnitude one) a ValueError names the index.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    f = _as_handle(f)
    if j == 0:
        return 0.5 * (f(0.0) + f(1.0))
    if j == 1:
        return f(1.0) - f(0.0)
    core = jacobi11(j - 2)

    def integrate(rule):
        return rule.integrate(
            lambda t: np.asarray(f(t)) * poly_eval(core, 2.0 * t - 1.0))

    if f.poly is not None:
        size = max(20, (f.poly.degree + j - 2) // 2 + 1)
        integral = integrate(_cached_beta_rule(0.0, 0.0, size))
    else:
        integral = float(_checked_legendre(
            integrate, 64, lambda i: f"limit dual of index {j}"))
    return 0.5 * math.comb(2 * j, j) * (
        (-1.0) ** j * f(0.0) + f(1.0) - j * integral
    )


@dataclass(frozen=True)
class AsymptoticRecord:
    """Per-n distances of the finite eigensystem from its limit."""

    n: int
    eigenvalue_gap: float
    poly_distance: float
    dual_gaps: Tuple[float, ...]


def asymptotic_report(rho: float, j: int, n_list: Iterable[int],
                      test_polys: Sequence[Polynomial] = (),
                      grid: Optional[GridSpec] = None,
                      ) -> Tuple[AsymptoticRecord, ...]:
    """Quantify convergence of the eigensystem of index j to its limit.

    For each n the record holds |n (lambda - 1) - limit slope|, the
    sup-grid distance between the monic eigenpolynomial and its limit,
    and, for each supplied test polynomial, the gap between its
    finite-n dual coefficient of index j and the limit dual value.
    Leading blocks of the operator matrix keep this cheap for n far
    beyond the full-matrix cap.
    """
    _require_rho(rho)
    if j < 0:
        raise ValueError("index must be nonnegative")
    if grid is None:
        grid = DEFAULT_SUP_GRID
    max_deg = max((p.degree for p in test_polys), default=0)
    d = max(j, max_deg)
    lam_star = limit_eigenvalue(rho, j)
    p_star = limit_eigenpoly(j)
    star_vals = poly_eval(p_star, grid.points)
    dual_stars = [limit_dual(j, p) for p in test_polys]
    records = []
    for n in n_list:
        if n < d:
            raise ValueError(
                f"n={n} is too small for index {j} with test polynomials "
                f"of degree up to {max_deg}"
            )
        gap = abs(n * (eigenvalue(n, rho, j) - 1.0) - lam_star)
        block = u_matrix_leading_block(n, rho, d)
        lam = np.array([eigenvalue(n, rho, jj) for jj in range(d + 1)])
        basis = _triangular_eigenbasis(block, lam)
        pj = Polynomial(basis[: j + 1, j])
        dist = float(np.max(np.abs(poly_eval(pj, grid.points) - star_vals)))
        gaps = []
        for p, mu_star in zip(test_polys, dual_stars):
            mu = _solve_upper(basis, p.padded(d + 1))
            gaps.append(abs(float(mu[j]) - mu_star))
        records.append(AsymptoticRecord(int(n), gap, dist, tuple(gaps)))
    return tuple(records)
