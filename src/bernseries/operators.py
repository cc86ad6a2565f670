"""The blending operator family and the Bernstein operator.

The family interpolates at the endpoints and, at the interior Bernstein
nodes, replaces point evaluation by averages against Beta densities
whose concentration is controlled by a positive parameter rho. Large
rho recovers the Bernstein operator, rho equal to one the boundary
interpolating Durrmeyer variant, and small rho the chord through the
endpoint values.

Two evaluation paths are provided. On polynomials the operator is
materialized as an upper-triangular matrix in the monomial basis,
assembled column by column from the exact derivative recurrence

    T(e_{m+1}) = [rho * x(1-x) * T(e_m)' + (rho n x + m) T(e_m)] / (n rho + m)

which keeps every entry at working precision for all matrix sizes the
degree cap allows. On generic functions the operator is evaluated
pointwise with Gauss quadrature built for the exact Beta weight, so
integrable endpoint singularities at small rho are absorbed by the
rule instead of being sampled. The rules come from the Golub-Welsch
method with a dense symmetric eigensolve, so the module needs numpy
only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .polyfun import (
    DEGREE_CAP,
    FunctionHandle,
    Polynomial,
)

__all__ = [
    "QUAD_TOL",
    "QuadratureRule",
    "UOperatorMatrix",
    "functional_moment",
    "apply_F",
    "u_matrix_leading_block",
    "build_u_matrix",
    "apply_U_poly",
    "apply_U",
    "bernstein_basis",
    "bernstein",
    "central_moment",
    "u_norm0",
]

# Accuracy floor claimed for quadrature-exact paths throughout the
# package; slack computations elsewhere reference this constant.
QUAD_TOL = 1e-10


def _require_rho(rho) -> None:
    """Reject rho outside (0, inf), NaN included, naming the parameter."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")


def _beta_raw_moment(alpha: float, beta: float, m: int) -> float:
    """m-th raw moment of the normalized weight t^alpha (1-t)^beta."""
    i = np.arange(m, dtype=float)
    return float(np.prod((alpha + 1.0 + i) / (alpha + beta + 2.0 + i)))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight t^alpha (1-t)^beta on (0, 1).

    Weights are stored normalized to unit sum, so the rule computes
    expectations against the corresponding Beta probability measure.
    The raw weight mass, the Beta function value at (alpha+1, beta+1),
    underflows or overflows float64 for the extreme exponents the
    operator family needs, which is why it is kept out of the stored
    weights.
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie strictly inside (0, 1)")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("normalized weights must sum to one")
        if self.size >= 2:
            m1 = float(weights @ nodes)
            if abs(m1 - _beta_raw_moment(self.alpha, self.beta, 1)) > QUAD_TOL:
                raise ValueError("rule fails the first-moment check")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, f) -> float:
        """Expectation of f against the normalized weight."""
        vals = np.asarray(f(self.nodes), dtype=float)
        return float(self.weights @ vals)

    @classmethod
    def beta_rule(cls, alpha: float, beta: float, size: int) -> "QuadratureRule":
        """Golub-Welsch construction on the probability-normalized weight.

        The Jacobi matrix of the weight (1-u)^A (1+u)^B on [-1, 1] with
        A = beta and B = alpha is assembled from the monic recurrence
        coefficients as a dense lower triangle and diagonalized with
        numpy's symmetric eigensolver (LAPACK's divide and conquer);
        squared first components of the eigenvectors give the
        normalized weights directly, so no Beta function value is ever
        formed.
        """
        if size < 1:
            raise ValueError("size must be at least 1")
        if alpha <= -1.0 or beta <= -1.0:
            raise ValueError("exponents must exceed -1")
        A = float(beta)
        B = float(alpha)
        diag = np.empty(size)
        diag[0] = (B - A) / (A + B + 2.0)
        if size == 1:
            node = (diag[0] + 1.0) / 2.0
            return cls(np.array([node]), np.array([1.0]), alpha, beta)
        k = np.arange(1, size, dtype=float)
        s = 2.0 * k + A + B
        diag[1:] = (B * B - A * A) / (s * (s + 2.0))
        off = np.empty(size - 1)
        # The k = 1 coefficient is written in reduced form: the factor
        # (1 + A + B) cancels against (s - 1), and the unreduced
        # quotient is 0/0 exactly when A + B = -1.
        off[0] = (4.0 * (1.0 + A) * (1.0 + B)
                  / ((A + B + 2.0) ** 2 * (A + B + 3.0)))
        if size > 2:
            kk = k[1:]
            sk = s[1:]
            off[1:] = (4.0 * kk * (kk + A) * (kk + B) * (kk + A + B)
                       / (sk * sk * (sk + 1.0) * (sk - 1.0)))
        J = np.diag(diag) + np.diag(np.sqrt(off), -1)
        nodes_u, vecs = np.linalg.eigh(J, UPLO="L")
        weights = vecs[0, :] ** 2
        nodes = (nodes_u + 1.0) / 2.0
        order = np.argsort(nodes)
        return cls(nodes[order], weights[order], alpha, beta)


@functools.lru_cache(maxsize=4096)
def _cached_beta_rule(alpha: float, beta: float, size: int) -> QuadratureRule:
    if alpha > beta:
        # t -> 1 - t swaps the exponents, so the rule for (alpha, beta)
        # is the mirror of the cached (beta, alpha) rule: the interior
        # functionals at k and n - k share one eigensolve.
        m = _cached_beta_rule(beta, alpha, size)
        return QuadratureRule(1.0 - m.nodes[::-1], m.weights[::-1],
                              alpha, beta)
    return QuadratureRule.beta_rule(alpha, beta, size)


def functional_moment(n: int, k: int, rho: float, m: int) -> float:
    """m-th raw moment of the interior averaging functional at node k.

    Equals the product over i < m of (k rho + i) / (n rho + i), the
    moment of the Beta density with parameters (k rho, (n-k) rho).
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"node index {k} outside 1..{n - 1}")
    _require_rho(rho)
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    i = np.arange(m, dtype=float)
    return float(np.prod((k * rho + i) / (n * rho + i)))


def apply_F(n: int, k: int, rho: float, f: FunctionHandle,
            q: QuadratureRule) -> float:
    """Quadrature value of the interior averaging functional at node k.

    The rule must have been built for exponents (k rho - 1,
    (n-k) rho - 1); mismatched rules are rejected rather than silently
    integrating against the wrong density.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"node index {k} outside 1..{n - 1}")
    _require_rho(rho)
    want_alpha = k * rho - 1.0
    want_beta = (n - k) * rho - 1.0
    tol_a = 1e-12 * max(1.0, abs(want_alpha))
    tol_b = 1e-12 * max(1.0, abs(want_beta))
    if abs(q.alpha - want_alpha) > tol_a or abs(q.beta - want_beta) > tol_b:
        raise ValueError(
            f"quadrature exponents ({q.alpha}, {q.beta}) do not match the "
            f"functional's ({want_alpha}, {want_beta})"
        )
    return q.integrate(f)


def u_matrix_leading_block(n: int, rho: float, d: int) -> np.ndarray:
    """Columns 0..d of the operator's monomial matrix, rows 0..d.

    Valid for any n >= d; only the block size is limited by the degree
    cap. Column m + 1 is produced from column m by the derivative
    recurrence, which keeps the diagonal (the eigenvalues) accurate to
    working precision and the constant coefficient of every column
    beyond the first at exactly zero.
    """
    _require_rho(rho)
    if d < 0 or d > n:
        raise ValueError("block size must satisfy 0 <= d <= n")
    if d > DEGREE_CAP:
        raise ValueError(f"block size {d} exceeds the degree cap {DEGREE_CAP}")
    M = np.zeros((d + 1, d + 1))
    M[0, 0] = 1.0
    if d == 0:
        return M
    M[1, 1] = 1.0
    col = np.zeros(d + 2)
    col[1] = 1.0
    idx = np.arange(1.0, d + 2.0)
    for m in range(1, d):
        deriv = col[1:] * idx
        nxt = np.zeros(d + 2)
        # rho * x(1-x) * col'
        nxt[1:] += rho * deriv
        nxt[2:] -= rho * deriv[:-1]
        # rho * n * x * col
        nxt[1:] += rho * n * col[:-1]
        # m * col
        nxt += m * col
        nxt /= n * rho + m
        M[:, m + 1] = nxt[: d + 1]
        col = nxt
    return M


@dataclass(frozen=True)
class UOperatorMatrix:
    """Monomial-basis matrix of the operator restricted to Pi_n.

    Column m holds the coefficients of the image of the m-th monomial.
    The matrix is upper triangular with positive diagonal; columns 0
    and 1 reproduce the constant and the identity exactly.
    """

    n: int
    rho: float
    M: np.ndarray

    def __post_init__(self):
        _require_rho(self.rho)
        M = np.asarray(self.M, dtype=float)
        if M.shape != (self.n + 1, self.n + 1):
            raise ValueError("matrix shape must be (n+1, n+1)")
        e0 = np.zeros(self.n + 1)
        e0[0] = 1.0
        if np.max(np.abs(M[:, 0] - e0)) > 1e-12:
            raise ValueError("column 0 must reproduce the constant")
        if self.n >= 1:
            e1 = np.zeros(self.n + 1)
            e1[1] = 1.0
            if np.max(np.abs(M[:, 1] - e1)) > 1e-12:
                raise ValueError("column 1 must reproduce the identity")
        M = M.copy()
        M.flags.writeable = False
        object.__setattr__(self, "M", M)


def build_u_matrix(n: int, rho: float) -> UOperatorMatrix:
    """Materialize the operator on Pi_n in the monomial basis."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEGREE_CAP:
        raise ValueError(f"n={n} exceeds the degree cap {DEGREE_CAP}")
    _require_rho(rho)
    return UOperatorMatrix(n, float(rho), u_matrix_leading_block(n, rho, n))


def apply_U_poly(mat: UOperatorMatrix, p: Polynomial) -> Polynomial:
    """Exact image of a polynomial of degree at most n."""
    if p.degree > mat.n:
        raise ValueError(
            f"degree {p.degree} exceeds the matrix span {mat.n}"
        )
    return Polynomial(mat.M @ p.padded(mat.n + 1))


def bernstein_basis(n: int, x) -> np.ndarray:
    """All n+1 Bernstein basis values at x, stacked along axis 0.

    Uses the stable degree-raising recurrence, one slice update per
    degree: every value of degree m is formed from the degree m-1
    values at once, so the loop runs n times rather than n^2/2. Works
    for scalar or array x.
    """
    x = np.asarray(x, dtype=float)
    one_minus = 1.0 - x
    b = np.zeros((n + 1,) + x.shape)
    b[0] = 1.0
    for m in range(1, n + 1):
        b[1:m + 1] = x * b[:m] + one_minus * b[1:m + 1]
        b[0] = one_minus * b[0]
    return b


def _interior_values(n: int, rho: float, f: FunctionHandle) -> np.ndarray:
    """The n - 1 interior functional values F_1 f .. F_{n-1} f.

    Node k averages against the Beta weight with exponents
    (k rho - 1, (n-k) rho - 1), by a Gauss rule of max(20, n + 5)
    nodes: exact on every polynomial of degree the matrices span.
    """
    size = max(20, n + 5)
    vals = np.empty(n - 1)
    for k in range(1, n):
        rule = _cached_beta_rule(k * rho - 1.0, (n - k) * rho - 1.0, size)
        vals[k - 1] = apply_F(n, k, rho, f, rule)
    return vals


def apply_U(n: int, rho: float, f: FunctionHandle, x):
    """Pointwise operator value on a generic function.

    Interior functionals are evaluated by Beta-weight Gauss rules sized
    to be exact on every polynomial of degree the matrices span, then
    blended with the Bernstein basis at x together with the endpoint
    interpolation terms.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_rho(rho)
    basis = bernstein_basis(n, x)
    val = f(0.0) * basis[0] + f(1.0) * basis[n]
    for k, fk in enumerate(_interior_values(n, rho, f), start=1):
        val = val + fk * basis[k]
    val = np.asarray(val, dtype=float)
    return float(val) if val.ndim == 0 else val


def _bernstein_columns(n: int, d: int) -> np.ndarray:
    """Monomial coefficients of the Bernstein images of e_0 .. e_d.

    The analogous derivative recurrence
        B(e_{m+1}) = x(1-x)/n * B(e_m)' + x * B(e_m)
    holds for every m; image degrees never exceed min(n, m)."""
    rows = min(n, d) + 1
    cols = np.zeros((rows, d + 1))
    cols[0, 0] = 1.0
    if d == 0:
        return cols
    cols[1, 1] = 1.0
    buf = np.zeros(rows + 1)
    buf[1] = 1.0
    idx = np.arange(1.0, rows + 1.0)
    for m in range(1, d):
        deriv = buf[1:] * idx
        nxt = np.zeros(rows + 1)
        nxt[1:] += deriv / n
        nxt[2:] -= deriv[:-1] / n
        nxt[1:] += buf[:-1]
        cols[:, m + 1] = nxt[:rows]
        buf = nxt.copy()
        buf[rows:] = 0.0
    return cols


def bernstein(n: int, f: FunctionHandle) -> Polynomial:
    """The Bernstein polynomial of f of order n, in monomial form.

    Polynomial inputs go through the exact column recurrence. Generic
    inputs use the forward-difference coefficients
        c_m = C(n, m) * diff^m f(0),
    accurate for moderate n and smooth f; n is capped with the shared
    degree cap either way.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEGREE_CAP:
        raise ValueError(f"n={n} exceeds the degree cap {DEGREE_CAP}")
    if f.poly is not None:
        cols = _bernstein_columns(n, f.poly.degree)
        return Polynomial(cols @ f.poly.coeffs)
    vals = np.asarray(f(np.arange(n + 1) / n), dtype=float)
    out = np.empty(n + 1)
    cur = vals
    out[0] = cur[0]
    for m in range(1, n + 1):
        cur = np.diff(cur)
        out[m] = math.comb(n, m) * cur[0]
    return Polynomial(out)


def central_moment(n: int, rho: float, y: float, r: int) -> float:
    """Closed forms of the centered operator moments up to order four."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_rho(rho)
    if not -1e-12 <= y <= 1.0 + 1e-12:
        raise ValueError("y must lie in [0, 1]")
    if not 0 <= r <= 4:
        raise ValueError("order must be between 0 and 4")
    psi = y * (1.0 - y)
    if r == 0:
        return 1.0
    if r == 1:
        return 0.0
    if r == 2:
        return (rho + 1.0) * psi / (n * rho + 1.0)
    if r == 3:
        dpsi = 1.0 - 2.0 * y
        return ((rho + 1.0) * (rho + 2.0) * psi * dpsi
                / ((n * rho + 1.0) * (n * rho + 2.0)))
    num = (3.0 * rho * (rho + 1.0) ** 2 * psi * psi * n
           - 6.0 * (rho + 1.0) * (rho * rho + 3.0 * rho + 3.0) * psi * psi
           + (rho + 1.0) * (rho + 2.0) * (rho + 3.0) * psi)
    return num / ((n * rho + 1.0) * (n * rho + 2.0) * (n * rho + 3.0))


def u_norm0(n: int, rho: float) -> float:
    """Operator norm on the pinned space: (n-1) rho / (n rho + 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_rho(rho)
    return (n - 1.0) * rho / (n * rho + 1.0)
