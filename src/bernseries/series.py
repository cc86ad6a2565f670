"""Geometric series of the blending operators on the pinned space.

On functions vanishing at both endpoints the operator is a contraction.
With rho = r / w, where the sampling (Bernstein) operator is the member
rho = inf, (r, w) = (1, 0), its norm is q = ``operators.u_norm0``, so
the scaled Neumann series r/(n r + w) * sum of operator powers
converges geometrically. One engine sums the series of every member
with one linear solve against I minus the operator on a finite space;
nothing is iterated or truncated:

* a monomial solve for inputs carrying polynomial coefficients, at
  every n and every degree up to the cap: the operator is upper
  triangular on the cofactor monomials x(1-x) x^m, so the sum is one
  back-substitution;
* a transfer solve for callables: the operator maps the pinned space
  into the weight times a degree n-2 Bernstein span, and a dense
  nonnegative transfer matrix with row sums q < 1 reproduces it on
  Bernstein coefficients without any basis conversion, so I minus that
  matrix is a well conditioned M-matrix at any n. Its rows are pmfs
  from ``_binomial_pmf``, the one pmf kernel, which also forms the
  basis of the blend; the upper half of the rows is built and mirrored
  onto the lower half, so the matrix is exactly centrosymmetric. Its
  first vector takes the interior Beta rules of ``apply_U``, which
  sample the input at k/n at rho = inf; the result blends the solved
  coefficients as ``apply_U`` does, through ``_bernstein_sum`` at O(n)
  per point, elementwise on any shape of x in [0, 1].

An eigen-expansion route sums the series in closed form through the
one eigen assembly, on polynomials up to the eigen cap at every n >=
their degree, and is kept as an independent check on the engine. The
engine computes the sum and nothing else: a result's ``iterations``,
the a priori truncation count for the fixed tolerance ``_TOL``, is
built from the input's ``norm0`` on first read and changes no value.

This module sums series at a given n and computes no limits. Their
large-n limit is the negated inverse of the limit differential
operator, ``voronovskaya.inverse_neg`` (exact coefficients from
``inverse_neg_polynomial``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .polyfun import (
    C0Function,
    Polynomial,
    _finite,
    _require_unit_interval,
    _solve_upper,
    require_pinned,
)
from .operators import (
    _bernstein_sum,
    _binomial_pmf,
    _homogeneous,
    _interior_values,
    _leading_block,
    _n_rho,
    u_norm0,
)
from .eigen import _eigenbasis

__all__ = [
    "SeriesResult",
    "apply_series",
    "apply_series_poly",
]

# Tolerance behind the reported truncation count. The series is summed
# exactly, so it shapes no computed value.
_TOL = 1e-9


class SeriesResult(C0Function):
    """Summed series of the input ``f`` at contraction factor q and
    scale r / (n r + w). ``iterations``, the a priori truncation count
    for the fixed tolerance 1e-9, and the result's own ``norm0`` are
    built on first read; the count from the input's ``norm0``.
    """

    def __init__(self, h, f: C0Function, q: float, scale: float):
        super().__init__(h)
        self._f, self._q, self._scale = f, q, scale

    @functools.cached_property
    def iterations(self) -> int:
        if self._q == 0.0:
            return 0
        return _truncation_count(self._q, self._scale, self._f.norm0)


def _truncation_count(q: float, scale: float, norm0: float) -> int:
    """Smallest K with scale * norm0 * q^(K+1) / (1-q) <= _TOL.

    K counts operator applications of the truncated sum, which then
    holds K + 1 terms; it is reported, not iterated.
    """
    # scale * norm0 also underflows to zero on a subnormal norm0
    if q == 0.0 or scale * norm0 == 0.0:
        return 0
    t = _TOL * (1.0 - q) / (scale * norm0)
    if t >= 1.0:
        return 0
    return max(0, math.ceil(math.log(t) / math.log(q)) - 1)


@functools.lru_cache(maxsize=1)
def _cofactor_transfer(n: int, rho: float) -> np.ndarray:
    """Matrix sending cofactor Bernstein coefficients through the operator.

    Entry (k-1, j) expands the image of the weight times the degree
    n-2 Bernstein basis polynomial j in the same weighted basis. With
    rho = r / w from ``_homogeneous``, row k-1 is the contraction factor
    ``u_norm0(n, rho)`` times the Beta-binomial pmf with n-2 trials and
    parameters (k rho + 1, (n-k) rho + 1), whose consecutive ratios are
    (k r + (j+1) w) (n-2-j) / (((n-k) r + (n-2-j) w) (j+1)). At rho =
    inf (w = 0) the rows are the binomial pmfs with success probability
    k/n: the transfer matrix of the sampling operator. Every rho the
    entry points accept, inf included, gives a matrix.

    Row n-k is row k reversed, so only the rows k <= n/2, whose modes
    lie at j <= (n-2)/2, are built, by the pmf kernel of
    ``_bernstein_sum``, ``_binomial_pmf``, which sums from j = 0. They
    are mirrored onto the rows n-k, and the middle row of an even n is
    averaged with its reverse, so the matrix is exactly centrosymmetric.
    It holds (n-1)^2 floats, 134 MB at n = 4096, and is built in place,
    so the build peaks near one matrix; only the last one is kept.
    """
    if n < 2:
        raise ValueError("the transfer matrix needs n >= 2")
    r, w = _homogeneous(rho)
    k = np.arange(1, n, dtype=float)[:, None]
    j = np.arange(n - 2, dtype=float)
    W = np.zeros((n - 1, n - 1))
    # The log-odds step of row k at j is L[k-1, j] - L[n-k-1, n-3-j]
    # with L = log(k r + w (j+1)). L fills W, and the rows k < n/2
    # subtract the reversed rows n-k below them. The middle row of an
    # even n subtracts its own reverse on its own: in the block its
    # overlap would make numpy copy the whole reversed block.
    L = W[:, 1:]
    np.add(k * r, w * (j + 1.0), out=L)
    np.log(L, out=L)
    h = (n - 1) // 2
    L[:h] -= L[::-1, ::-1][:h]
    even = n % 2 == 0
    if even:
        L[h] -= L[h, ::-1].copy()
    upper = _binomial_pmf(W[:n // 2], 1)
    upper *= u_norm0(n, rho)
    if even:
        W[h] = 0.5 * (W[h] + W[h, ::-1])
    W[n // 2:] = W[:h][::-1, ::-1]
    W.flags.writeable = False
    return W


def _first_vector_generic(n: int, rho: float, f: C0Function) -> np.ndarray:
    """Quadrature form of the first vector for inputs without coefficients.

    The interior functional values are the ones ``apply_U`` blends, so
    both share the Beta rules of one (n, rho); at rho = inf they are
    samples at the nodes.
    """
    k = np.arange(1, n)
    return n * (n - 1.0) / (k * (n - k)) * _interior_values(n, rho, f.value)


def _sum_monomial(n: int, rho: float, h: Polynomial,
                  scale: float) -> Polynomial:
    """Cofactor of the series sum by one triangular solve.

    Column m of P is the image of x(1-x) x^m; dropping its constant row
    and taking running sums down the rest divides x(1-x) back out and
    gives column m of C. C is upper triangular with the eigenvalues of
    index m + 2 on its diagonal, zero past index n, so the sum
    scale * (I - C)^(-1) h is exact at every n and degree.
    """
    e = h.degree
    M = _leading_block(n, rho, e + 2)
    P = M[:, 1:-1] - M[:, 2:]
    require_pinned(P)
    C = np.zeros((e + 1, e + 1))
    # The last running sum is P(1) - P(0), which vanishes; so do the
    # sums below the diagonal, past the degree of each image.
    C[: P.shape[0] - 2] = np.triu(np.cumsum(P[1:], axis=0)[:-1])
    return Polynomial(_solve_upper(np.eye(e + 1) - C, scale * h.coeffs))


def _sum_series(n: int, rho: float, f: C0Function) -> SeriesResult:
    """Series engine of every member rho in (0, inf]; checks n, rho, f."""
    r, w = _n_rho(n, rho)
    if not isinstance(f, C0Function):
        raise TypeError("f must be a C0Function")
    scale = r / (n * r + w)
    q = u_norm0(n, rho)
    hp = f.h.poly
    if hp is not None:
        return SeriesResult(_sum_monomial(n, rho, hp, scale), f, q, scale)
    where = f"series input (n={n}, rho={rho})"
    if n > 1:  # else the operator annihilates the pinned space
        g0 = _first_vector_generic(n, rho, f)
        acc = np.linalg.solve(np.eye(n - 1) - _cofactor_transfer(n, rho), g0)

    def h_sum(x):
        hx = _finite(where, _require_unit_interval(x), f.h(x))
        return scale * (hx + _bernstein_sum(acc, x) if n > 1 else hx)

    return SeriesResult(h_sum, f, q, scale)


def apply_series(n: int, rho: float, f: C0Function) -> SeriesResult:
    """Sum the scaled operator series applied to a pinned function.

    rho ranges over (0, inf]; rho = inf sums the series of the sampling
    (Bernstein) operator. The result is again pinned; its cofactor is
    polynomial exactly when the input's is (the monomial solve, at
    every n), a ``Polynomial`` defined at every x, and otherwise a
    closure over Bernstein coefficients after the transfer solve on a
    callable, which takes points in [0, 1] only: one outside, NaN among
    them, raises the ValueError of ``_require_unit_interval``, and a
    value of the input that is not finite raises one naming its point.
    The sum is exact up to rounding; ``iterations`` is the a priori
    truncation count for the fixed tolerance 1e-9, built on first read.
    """
    return _sum_series(n, rho, f)


def apply_series_poly(n: int, rho: float, p: Polynomial) -> Polynomial:
    """Closed-form series sum of a pinned polynomial via the eigensystem.

    Expands p over the eigenpolynomials, scales each coefficient by
    1 / (1 - eigenvalue), and reassembles. The eigenpairs come from
    ``_eigenbasis`` on the leading block of size deg p + 1 (at least 2),
    so any n >= deg p works; it also limits the degree to EIGEN_N_CAP.
    An input that does not vanish at both endpoints is rejected by
    ``require_pinned``; the two leading dual coefficients, which belong
    to the unit eigenvalue, are then dropped. No truncation is
    involved; the triangular dual solve sets the accuracy, which falls
    with the degree. At degree 30 three pinned inputs measured 4.8e-9
    to 2.2e-8 off the monomial solve of ``apply_series``, relative to
    max(1, its sup); relative to the sup itself that is up to 4.8e-6
    (x^29 - x^30 at n = 256, sup 9.9e-4), while the monomial solve
    stays within 6e-15 of an 80-digit replay.
    """
    r, w = _n_rho(n, rho)
    d = max(p.degree, 1)
    lam, basis = _eigenbasis(n, rho, d)
    require_pinned(p)
    scale = r / (n * r + w)
    mu = _solve_upper(basis, p.padded(d + 1))
    out = np.zeros(d + 1)
    for j in range(2, d + 1):
        out[: j + 1] += scale * mu[j] / (1.0 - lam[j]) * basis[: j + 1, j]
    return Polynomial(out)


def apply_series_bernstein(n: int, f: C0Function) -> SeriesResult:
    """``apply_series(n, inf, f)``; not public, ``bench/`` calls it."""
    return _sum_series(n, math.inf, f)
