"""Limit differential operator, its explicit inverse, and the residual.

The limiting object of the scaled operator series acts on pinned
functions as y -> (rho+1)/(2 rho) * x(1-x) y'', with the factor 1/2 at
rho = inf: every formula here reads rho = r / w through
``operators._homogeneous``. On an input x(1-x) h its negated inverse
is 2 rho / (rho+1) times the pinned solution of y'' = -h, the
Green's-function integral (1-x) I0(x) + x I1(x), with I0 the integral
of t h(t) over [0, x] and I1 that of (1-t) h(t) over [x, 1]. For a
polynomial cofactor it is the double antiderivative H(1) x - H(x),
with H'' = h and H(0) = H'(0) = 0, formed coefficient by coefficient.
The residual operator measures how far the finite-n series sum is from
this limit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .polyfun import (
    DEGREE_CAP,
    C0Function,
    FunctionHandle,
    GridSpec,
    Polynomial,
    _as_handle,
    psi_values,
    require_pinned,
    sup_norm,
)
from .operators import _checked_legendre, _homogeneous, _require_rho
from .series import apply_series

__all__ = [
    "apply_A_rho",
    "f_infty",
    "f_infty_polynomial",
    "inverse_neg",
    "inverse_neg_polynomial",
    "inverse_norm_check",
    "residual_H",
]


def apply_A_rho(rho: float, y: Polynomial) -> C0Function:
    """Image of a pinned polynomial under the limit operator.

    The result carries the polynomial cofactor (rho+1)/(2 rho) * y''.
    Inputs that fail to vanish at both endpoints are rejected; the
    image would not be pinned otherwise.
    """
    _require_rho(rho)
    require_pinned(y)
    second = y.derivative().derivative()
    r, w = _homogeneous(rho)
    c = (r + w) / (2.0 * r)
    return C0Function(second * c)


def _green_coeffs(h: Polynomial) -> np.ndarray:
    """Coefficients of H(1) x - H(x), H = sum of h_i x^(i+2) / ((i+1)(i+2)).

    H(1) sums the terms from the top down, as Horner's scheme does, so
    the value at 1 is exactly 0.
    """
    i = np.arange(h.coeffs.size, dtype=float)
    a = h.coeffs / ((i + 1.0) * (i + 2.0))
    return np.concatenate(([0.0, npoly.polyval(1.0, a)], -a))


def f_infty_polynomial(h: Polynomial) -> Polynomial:
    """``f_infty`` of a polynomial cofactor as a Polynomial, of degree
    h.degree + 2; above DEGREE_CAP - 2 a ValueError names both."""
    if h.degree > DEGREE_CAP - 2:
        raise ValueError(f"cofactor degree {h.degree}: its inverse would "
                         f"exceed DEGREE_CAP = {DEGREE_CAP}")
    return Polynomial(_green_coeffs(h))


def f_infty(h, x):
    """Value of the inverse integral kernel at x (scalar or array).

    ``h`` is the cofactor (a FunctionHandle, Polynomial or callable).
    Polynomial cofactors evaluate the coefficients of H(1) x - H(x)
    (see ``f_infty_polynomial``) at every degree up to DEGREE_CAP.
    Generic cofactors use two affinely mapped copies of a 32-node
    Legendre rule, checked against 64 nodes: a point where the two
    differ by more than QUAD_TOL (relative above magnitude one) raises
    a ValueError that names it.
    """
    h = _as_handle(h)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    if h.poly is not None:
        out = npoly.polyval(xs, _green_coeffs(h.poly))
    else:
        def kernel(rule):
            u, w = rule.nodes, rule.weights
            left = xs[:, None] * u[None, :]
            right = xs[:, None] + (1.0 - xs)[:, None] * u[None, :]
            i0 = xs ** 2 * (np.asarray(h(left)) @ (w * u))
            i1 = (1.0 - xs) ** 2 * (np.asarray(h(right)) @ (w * (1.0 - u)))
            return (1.0 - xs) * i0 + xs * i1

        out = _checked_legendre(
            kernel, 32, lambda i: f"inverse integral at x={xs[i]:.6g}")
    return float(out[0]) if np.ndim(x) == 0 else out


def inverse_neg(rho: float, f: C0Function, x):
    """Negated inverse image of a pinned function at x."""
    _require_rho(rho)
    if not isinstance(f, C0Function):
        raise TypeError("f must be a C0Function")
    r, w = _homogeneous(rho)
    c = 2.0 * r / (r + w)
    return c * f_infty(f.h, x)


def inverse_neg_polynomial(rho: float, f: C0Function) -> Polynomial:
    """Negated inverse image with exact coefficients.

    Available only when the cofactor carries polynomial coefficients,
    of degree up to DEGREE_CAP - 2 (see ``f_infty_polynomial``).
    """
    _require_rho(rho)
    if not isinstance(f, C0Function):
        raise TypeError("f must be a C0Function")
    if f.h.poly is None:
        raise ValueError("cofactor carries no exact coefficients")
    r, w = _homogeneous(rho)
    c = 2.0 * r / (r + w)
    return f_infty_polynomial(f.h.poly) * c


def inverse_norm_check(rho: float, f: C0Function,
                       grid: Optional[GridSpec] = None
                       ) -> Tuple[float, float]:
    """Observed versus guaranteed sup bound on the inverse image.

    Returns (lhs, rhs): the grid sup of the inverse image against
    rho / (4 (rho+1)) times the pinned norm of f. Equality is attained
    by the weight function itself at the midpoint. The sup is that of
    ``inverse_neg`` for every kind of cofactor.
    """
    _require_rho(rho)
    handle = FunctionHandle.from_callable(
        lambda x, _r=rho, _f=f: inverse_neg(_r, _f, x))
    lhs = sup_norm(handle, grid)
    r, w = _homogeneous(rho)
    rhs = r / (4.0 * (r + w)) * f.norm0
    return lhs, rhs


def _residual_profile(n: int, rho: float, h, x):
    """Series-minus-limit values, the limit inverse values they subtract,
    and the iteration count behind them."""
    f = h if isinstance(h, C0Function) else C0Function(h)
    summed = apply_series(n, rho, f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    inv = inverse_neg(rho, f, xs)
    vals = psi_values(xs) * np.asarray(summed.h(xs)) - inv
    return vals, inv, summed.iterations


def residual_H(n: int, rho: float, h, x):
    """Residual between the series sum and the limit inverse at x.

    ``h`` is the cofactor (a FunctionHandle, Polynomial, callable, or
    an already wrapped pinned function). Vanishes identically on
    constant cofactors for every n and rho, since both sides act on
    the weight through the same factor.
    """
    vals, _, _ = _residual_profile(n, rho, h, x)
    return float(vals[0]) if np.ndim(x) == 0 else vals
