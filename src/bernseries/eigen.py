"""Eigenstructure of the blending operators and its large-n limit.

The operator restricted to Pi_n is upper triangular on monomials with
distinct positive diagonal entries beyond index one, so each eigenvalue
carries a unique monic eigenpolynomial obtained by back-substitution;
the leading block of size d + 1 holds those of index 0..d at any n >= d.
Every entry point takes (n, rho), never a matrix. ``_eigenbasis(n,
rho, d)`` is the one assembly: it builds its own block and is the one
place that limits d to min(n, EIGEN_N_CAP), for the full system
(``compute_eigensystem``), the report below and
``series.apply_series_poly`` at every n >= deg p. Dual functionals on
polynomials are coefficient solves against the triangular change of
basis from eigenpolynomials to monomials.

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
    _finite,
    _solve_upper,
    jacobi11,
    limit_eigenpoly,
    poly_eval,
)
from .operators import (
    _ENDS,
    _cached_beta_rule,
    _homogeneous,
    _n_rho,
    _settle,
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
# this block size: n for ``compute_eigensystem``, the degree for
# ``series.apply_series_poly`` and max(j, test degree) for
# ``asymptotic_report``. Beyond it the change of basis has entries
# large enough that dual reconstructions drop under ten significant
# digits.
EIGEN_N_CAP = 30


def eigenvalue(n: int, rho: float, j: int) -> float:
    """Eigenvalue of index j: product of rho (n-i) / (n rho + i).

    Indices 0 and 1 give exactly one; the sequence is strictly
    decreasing from index one on and stays in (0, 1]. At rho = inf the
    factors are (n-i)/n, the eigenvalues of the Bernstein operator.
    """
    r, w = _n_rho(n, rho)
    if not 0 <= j <= n:
        raise ValueError(f"index {j} outside 0..{n}")
    v = 1.0
    for i in range(j):
        v *= r * (n - i) / (n * r + i * w)
    return v


def _eigenbasis(n: int, rho: float, d: int) -> tuple:
    """Closed-form eigenvalues and monic eigenbasis of the leading block
    of size d + 1 at (n, rho), built by ``u_matrix_leading_block``.

    The package's one eigen assembly and its one size check: a block
    past d <= min(n, EIGEN_N_CAP) raises a ValueError naming d, n and
    the cap. The eigenvalues are one running product of the factors
    r (n-i) / (n r + i w), to the bit those of ``eigenvalue``. Raises
    if the block's diagonal drifts from them beyond 1e-10, or if
    consecutive ones come closer than a relative 1e-12 gap, which would
    poison the back-substitution. Column j solves
    (M - lambda_j I) v = 0 with v_j = 1 over rows j-1 .. 0; indices 0
    and 1 are the exact 1 and x - 1/2, bypassing the 0/0 of the shared
    unit eigenvalue.
    """
    r, w = _n_rho(n, rho)
    if d > min(n, EIGEN_N_CAP):
        raise ValueError(f"eigen block size {d} exceeds n={n} or the "
                         f"eigen cap {EIGEN_N_CAP}")
    M = u_matrix_leading_block(n, rho, d)
    k = np.arange(d, dtype=float)
    lam = np.ones(d + 1)
    np.cumprod(r * (n - k) / (n * r + k * w), out=lam[1:])
    drift = float(np.max(np.abs(np.diag(M) - lam)))
    if drift > 1e-10:
        raise RuntimeError(
            f"matrix diagonal disagrees with the eigenvalue formula "
            f"by {drift:.3e}"
        )
    for j in range(2, d + 1):
        if lam[j - 1] - lam[j] <= 1e-12 * lam[j - 1]:
            raise RuntimeError(
                f"near-degenerate eigenvalue gap between indices "
                f"{j - 1} and {j}"
            )
    vecs = np.eye(d + 1)
    vecs[1:2, 0] = -0.5
    for j in range(2, d + 1):
        v = vecs[j]
        for i in range(j - 1, -1, -1):
            v[i] = (M[i, i + 1:j + 1] @ v[i + 1:j + 1]) / (lam[j] - M[i, i])
    return lam, np.ascontiguousarray(vecs.T)


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


def compute_eigensystem(n: int, rho: float) -> EigenSystem:
    """The full eigenstructure of the operator on Pi_n: ``_eigenbasis``
    on the block of size n + 1, with its checks; n is limited to
    EIGEN_N_CAP."""
    lam, basis = _eigenbasis(n, rho, n)
    polys = tuple(Polynomial(basis[: j + 1, j]) for j in range(n + 1))
    return EigenSystem(n, float(rho), lam, polys, basis)


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
    r, w = _homogeneous(rho)
    if j < 0:
        raise ValueError("index must be nonnegative")
    return -((r + w) / (2.0 * r)) * (j - 1.0) * j


def limit_dual(j: int, f) -> float:
    """Limit dual of index j applied to f, a handle, Polynomial or callable.

    Index 0 averages the endpoint values, index 1 takes their
    difference. Higher indices combine the endpoint values with the
    integral of f against the degree-(j-2) Jacobi(1,1) polynomial
    rescaled to [0, 1], weighted by a central binomial factor. The
    integral takes Legendre rules on the rungs of 64 and 128 nodes
    (``operators._settle``) for every kind of f, and returns the
    128-node value once it agrees with the 64-node one to QUAD_TOL
    (relative above magnitude one); when they differ by more, a
    ValueError names the index, as does a value of f that is not
    finite at a node or an endpoint. A polynomial f is integrated
    exactly on both rungs while f.poly.degree + j - 2 <= 127.

    The endpoint terms and j times the integral nearly cancel, and the
    factor j C(2j, j) / 2 multiplies the rounding of the integral into
    the value, so the accuracy falls as j grows: on cos the value at
    j = 8 is off by 6.6e-11 absolute and at j = 10 by 0.4% relative.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    f = _as_handle(f)
    where = f"limit dual of index {j}"
    f0, f1 = _finite(where, _ENDS, [f(0.0), f(1.0)])
    if j == 0:
        return float(0.5 * (f0 + f1))
    if j == 1:
        return float(f1 - f0)
    core = jacobi11(j - 2)

    def rung(size, idx):
        return _cached_beta_rule(0.0, 0.0, size).integrate(
            lambda t: _finite(where, t, f(t))
            * poly_eval(core, 2.0 * t - 1.0))

    integral = float(_settle(rung, (64, 128), lambda i: where,
                             "Legendre")[0])
    return float(0.5 * math.comb(2 * j, j) * (
        (-1.0) ** j * f0 + f1 - j * integral
    ))


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
    Leading blocks of the operator matrix (``_eigenbasis``) keep this
    cheap for n far beyond the full-matrix cap. ``_eigenbasis`` limits
    the block size max(j, test degree) to each n and to EIGEN_N_CAP:
    past the cap the dual gaps are rounding, not convergence.
    """
    _homogeneous(rho)
    if j < 0:
        raise ValueError("index must be nonnegative")
    if grid is None:
        grid = DEFAULT_SUP_GRID
    d = max(j, max((p.degree for p in test_polys), default=0))
    lam_star = limit_eigenvalue(rho, j)
    p_star = limit_eigenpoly(j)
    star_vals = poly_eval(p_star, grid.points)
    dual_stars = [limit_dual(j, p) for p in test_polys]
    records = []
    for n in n_list:
        lam, basis = _eigenbasis(n, rho, d)
        gap = abs(n * (lam[j] - 1.0) - lam_star)
        pj = Polynomial(basis[: j + 1, j])
        dist = float(np.max(np.abs(poly_eval(pj, grid.points) - star_vals)))
        gaps = []
        for p, mu_star in zip(test_polys, dual_stars):
            mu = _solve_upper(basis, p.padded(d + 1))
            gaps.append(abs(float(mu[j]) - mu_star))
        records.append(AsymptoticRecord(int(n), gap, dist, tuple(gaps)))
    return tuple(records)
