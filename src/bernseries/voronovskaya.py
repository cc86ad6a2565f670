"""Limit differential operator, its explicit inverse, and the residual.

The limiting object of the scaled operator series acts on pinned
functions as y -> (rho+1)/(2 rho) * x(1-x) y'', with the factor 1/2 at
rho = inf: every formula here reads rho = r / w through
``operators._homogeneous``. It is bijective on pinned polynomials, and
its negated inverse has the closed integral representation

    (2 rho / (rho+1)) * [ (1-x) I0(x) + x I1(x) ],
    I0(x) = integral of t h(t) over [0, x],
    I1(x) = integral of (1-t) h(t) over [x, 1],

for an input given through its cofactor h. For polynomial cofactors
the two pieces are exact antiderivatives and collapse into one global
polynomial; both forms are evaluated and cross-checked. The residual
operator measures how far the finite-n series sum is from this limit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .polyfun import (
    C0Function,
    FunctionHandle,
    GridSpec,
    Polynomial,
    poly_eval,
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

# Relative agreement demanded between the piecewise and the expanded
# global form of the inverse integral kernel.
_PIECE_TOL = 1e-12


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


def _antiderivative_pieces(h: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """(P, Q) with P' = t h and Q' = (1-t) h, both zero at the origin."""
    th = Polynomial(np.concatenate(([0.0], h.coeffs)))
    P = th.antiderivative()
    Q = (h - th).antiderivative()
    return P, Q


def f_infty_polynomial(h: Polynomial) -> Polynomial:
    """Global polynomial form of the inverse integral kernel.

    Expanding both pieces gives P - x P + Q(1) x - x Q; the top
    coefficients of x P and x Q cancel exactly, so the degree is that
    of the pinned input x(1-x) h.
    """
    return _expand_pieces(*_antiderivative_pieces(h))


def _expand_pieces(P: Polynomial, Q: Polynomial) -> Polynomial:
    """P - x P + Q(1) x - x Q, the global form of the pieces (P, Q)."""
    e1 = Polynomial([0.0, 1.0])
    q1 = float(np.sum(Q.coeffs))
    return P - e1 * P + Polynomial([0.0, q1]) - e1 * Q


def f_infty(h: FunctionHandle, x):
    """Value of the inverse integral kernel at x (scalar or array).

    Polynomial cofactors go through exact antiderivatives; the
    piecewise and the expanded global form are compared at every
    requested point as a guard on the expansion. Generic cofactors use
    two affinely mapped copies of a 32-node Legendre rule, checked
    against 64 nodes: a point where the two differ by more than
    QUAD_TOL (relative above magnitude one) raises a ValueError that
    names it.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    if h.poly is not None:
        P, Q = _antiderivative_pieces(h.poly)
        q1 = float(np.sum(Q.coeffs))
        piece = ((1.0 - xs) * poly_eval(P, xs)
                 + xs * (q1 - poly_eval(Q, xs)))
        glob = poly_eval(_expand_pieces(P, Q), xs)
        scale = max(1.0, float(np.max(np.abs(piece))))
        if np.max(np.abs(piece - glob)) > _PIECE_TOL * scale:
            raise RuntimeError(
                "piecewise and expanded inverse integrals disagree"
            )
        out = glob
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
    r, w = _homogeneous(rho)
    c = 2.0 * r / (r + w)
    return c * f_infty(f.h, x)


def inverse_neg_polynomial(rho: float, f: C0Function) -> Polynomial:
    """Negated inverse image with exact coefficients.

    Available only when the cofactor carries polynomial coefficients.
    """
    _require_rho(rho)
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
    by the weight function itself at the midpoint.
    """
    _require_rho(rho)
    if f.h.poly is not None:
        handle = FunctionHandle.from_polynomial(inverse_neg_polynomial(rho, f))
    else:
        handle = FunctionHandle.from_callable(
            lambda x, _r=rho, _f=f: inverse_neg(_r, _f, x)
        )
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
