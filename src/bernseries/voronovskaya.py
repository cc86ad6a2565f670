"""Limit differential operator, its explicit inverse, and the residual.

The limiting object of the scaled operator series acts on pinned
functions as y -> (rho+1)/(2 rho) * x(1-x) y'', with the factor 1/2 at
rho = inf: every formula here reads rho = r / w through
``operators._homogeneous``. On an input x(1-x) h its negated inverse
is 2 rho / (rho+1) times the pinned solution of y'' = -h, the
Green's-function integral (1-x) I0(x) + x I1(x), with I0 the integral
of t h(t) over [0, x] and I1 that of (1-t) h(t) over [x, 1]. For a
polynomial cofactor the kernel is the double antiderivative
H(1) x - H(x), with H'' = h and H(0) = H'(0) = 0, formed coefficient by
coefficient; for any other cofactor both integrals take Legendre rules
on the rungs of 32 and 64 nodes. ``inverse_neg`` is the one entry point
for the values, by either route, and ``inverse_neg_polynomial`` the one
for exact coefficients. At rho = 1 the factor 2 rho / (rho+1) is
exactly 1, so there both return the kernel itself. The residual
operator measures how far the finite-n series sum is from this limit.
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
    _finite,
    _require_unit_interval,
    psi_values,
    require_pinned,
    sup_norm,
)
from .operators import _cached_beta_rule, _homogeneous, _settle
from .series import apply_series

__all__ = [
    "apply_A_rho",
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
    r, w = _homogeneous(rho)
    require_pinned(y)
    second = y.derivative().derivative()
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


def inverse_neg(rho: float, f: C0Function, x):
    """Negated inverse image of a pinned function at x (scalar or array).

    It is 2 rho / (rho+1), exactly 1 at rho = 1, times the kernel of the
    cofactor h of f: for a polynomial h the coefficients of H(1) x - H(x)
    evaluated, at every degree up to DEGREE_CAP; for any other h two
    affinely mapped copies of a Legendre rule on the rungs of 32 and 64
    nodes (``operators._settle``). Each point returns its 64-node value
    once that agrees with the 32-node one to QUAD_TOL (relative above
    magnitude one); a point where the two differ by more, or where h is
    not finite at a node, raises a ValueError that names it.
    """
    r, w = _homogeneous(rho)
    if not isinstance(f, C0Function):
        raise TypeError("f must be a C0Function")
    c = 2.0 * r / (r + w)
    h, xs = f.h, _require_unit_interval(x)
    if h.poly is not None:
        out = npoly.polyval(xs, _green_coeffs(h.poly))
    else:
        flat = xs.reshape(-1)

        def at(pts):
            return _finite("inverse integral", pts, h(pts))

        def kernel(size, idx):
            rule = _cached_beta_rule(0.0, 0.0, size)
            u, wts, t = rule.nodes, rule.weights, flat[idx]
            i0 = t ** 2 * (at(t[:, None] * u) @ (wts * u))
            right = t[:, None] + (1.0 - t)[:, None] * u
            i1 = (1.0 - t) ** 2 * (at(right) @ (wts * (1.0 - u)))
            return (1.0 - t) * i0 + t * i1

        out = _settle(kernel, (32, 64),
                      lambda i: f"inverse integral at x={flat[i]:.6g}",
                      "Legendre").reshape(xs.shape)
    return c * float(out[0]) if np.ndim(x) == 0 else c * out


def inverse_neg_polynomial(rho: float, f: C0Function) -> Polynomial:
    """Negated inverse image with exact coefficients.

    Available only when the cofactor carries polynomial coefficients,
    of degree up to DEGREE_CAP - 2 (the image has degree h.degree + 2;
    above that a ValueError names both). This is the large-n limit of
    ``apply_series(n, rho, f)``: the series sum on x(1-x) h tends to
    this polynomial as n grows, for every such h.
    """
    r, w = _homogeneous(rho)
    if not isinstance(f, C0Function):
        raise TypeError("f must be a C0Function")
    h = f.h.poly
    if h is None:
        raise ValueError("cofactor carries no exact coefficients")
    if h.degree > DEGREE_CAP - 2:
        raise ValueError(f"cofactor degree {h.degree}: its inverse would "
                         f"exceed DEGREE_CAP = {DEGREE_CAP}")
    c = 2.0 * r / (r + w)
    return Polynomial(_green_coeffs(h)) * c


def inverse_norm_check(rho: float, f: C0Function,
                       grid: Optional[GridSpec] = None
                       ) -> Tuple[float, float]:
    """Observed versus guaranteed sup bound on the inverse image.

    Returns (lhs, rhs): the grid sup of the inverse image against
    rho / (4 (rho+1)) times the pinned norm of f. Equality is attained
    by the weight function itself at the midpoint. The sup is that of
    ``inverse_neg`` for every kind of cofactor.
    """
    r, w = _homogeneous(rho)
    handle = FunctionHandle.from_callable(
        lambda x, _r=rho, _f=f: inverse_neg(_r, _f, x))
    lhs = sup_norm(handle, grid)
    rhs = r / (4.0 * (r + w)) * f.norm0
    return lhs, rhs


def _residual_profile(n: int, rho: float, h, x):
    """Series-minus-limit values, the limit inverse values they subtract,
    and the summed series behind them."""
    f = h if isinstance(h, C0Function) else C0Function(h)
    summed = apply_series(n, rho, f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    inv = inverse_neg(rho, f, xs)
    vals = psi_values(xs) * np.asarray(summed.h(xs)) - inv
    return vals, inv, summed


def residual_H(n: int, rho: float, h, x):
    """Residual between the series sum and the limit inverse at x.

    ``h`` is the cofactor (a FunctionHandle, Polynomial, callable, or
    an already wrapped pinned function). Vanishes identically on
    constant cofactors for every n and rho, since both sides act on
    the weight through the same factor.
    """
    vals, _, _ = _residual_profile(n, rho, h, x)
    return float(vals[0]) if np.ndim(x) == 0 else vals
