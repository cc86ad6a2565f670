"""Polynomial substrate for the operator library.

Monomial-basis polynomials with exact coefficient calculus, Jacobi
polynomials with parameters (1, 1), the limit eigenpolynomials they
generate, and grid-based estimators for sup norms and moduli of
smoothness. Everything else in the package is built on these types.

Coefficient arithmetic is double precision. Degrees are capped at
DEGREE_CAP because the monomial basis loses accuracy well before
degree 100; the cap is enforced at construction time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "DEGREE_CAP",
    "Polynomial",
    "FunctionHandle",
    "C0Function",
    "GridSpec",
    "DEFAULT_SUP_GRID",
    "PSI",
    "psi_values",
    "poly_eval",
    "poly_calculus",
    "deflate_by_psi",
    "jacobi11",
    "limit_eigenpoly",
    "sup_norm",
    "omega",
]

DEGREE_CAP = 60

# Absolute-per-unit-coefficient tolerance for "vanishes at the endpoint"
# preconditions. Scaled by the coefficient magnitude of the polynomial
# under test, so that cancellation noise in large-coefficient inputs is
# not mistaken for a genuine nonzero boundary value.
ENDPOINT_TOL = 1e-12


class Polynomial:
    """Real polynomial on [0, 1] stored by monomial coefficients.

    ``coeffs[i]`` is the coefficient of ``x**i``. Trailing exact zeros
    are trimmed at construction, so the leading stored coefficient is
    nonzero unless the polynomial is identically zero. Instances are
    immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Sequence[float], np.ndarray]):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        nz = np.nonzero(arr)[0]
        arr = arr[: nz[-1] + 1].copy() if nz.size else np.zeros(1)
        if arr.size - 1 > DEGREE_CAP:
            raise ValueError(
                f"degree {arr.size - 1} exceeds the cap {DEGREE_CAP}"
            )
        arr.flags.writeable = False
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs.size == 1 and self._coeffs[0] == 0.0

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([0.0])

    def padded(self, length: int) -> np.ndarray:
        """Coefficients zero-padded (or rejected) to the given length."""
        if length < self._coeffs.size:
            raise ValueError("padded length is smaller than the coefficient count")
        out = np.zeros(length)
        out[: self._coeffs.size] = self._coeffs
        return out

    def __call__(self, x):
        return poly_eval(self, x)

    def derivative(self) -> "Polynomial":
        return poly_calculus(self)[0]

    def antiderivative(self) -> "Polynomial":
        return poly_calculus(self)[1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(npoly.polyadd(self._coeffs, other._coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(npoly.polysub(self._coeffs, other._coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self._coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(npoly.polymul(self._coeffs, other._coeffs))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Polynomial(self._coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ", ".join(f"{c:.6g}" for c in self._coeffs)
        return f"Polynomial([{body}])"


PSI = Polynomial([0.0, 1.0, -1.0])


def psi_values(x):
    """The weight x(1-x), vectorized."""
    x = np.asarray(x, dtype=float)
    out = x * (1.0 - x)
    return float(out) if out.ndim == 0 else out


class FunctionHandle:
    """Evaluation oracle on [0, 1], optionally carrying exact coefficients.

    A handle built from a Polynomial keeps it in ``poly``, which makes
    the exact code paths downstream available; a handle built from a
    callable has ``poly`` None. Callables must accept numpy arrays and
    evaluate elementwise.
    """

    __slots__ = ("_fn", "poly")

    def __init__(self, fn: Optional[Callable] = None,
                 poly: Optional[Polynomial] = None):
        if (fn is None) == (poly is None):
            raise ValueError("give exactly one of a callable and a Polynomial")
        if poly is not None and not isinstance(poly, Polynomial):
            raise TypeError("poly must be a Polynomial")
        self.poly = poly
        if fn is None:
            fn = lambda x, _p=poly: poly_eval(_p, x)
        self._fn = fn

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "FunctionHandle":
        return cls(poly=p)

    @classmethod
    def from_callable(cls, fn: Callable) -> "FunctionHandle":
        return cls(fn=fn)

    def __call__(self, x):
        out = np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing evaluation points on [0, 1] with both endpoints."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least the two endpoints")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, count: int) -> "GridSpec":
        if count < 2:
            raise ValueError("count must be at least 2")
        return cls(np.linspace(0.0, 1.0, count))

    @classmethod
    def chebyshev(cls, count: int = 257) -> "GridSpec":
        """Chebyshev-spaced points, denser near the endpoints."""
        if count < 2:
            raise ValueError("count must be at least 2")
        i = np.arange(count)
        pts = 0.5 * (1.0 - np.cos(np.pi * i / (count - 1)))
        pts[0], pts[-1] = 0.0, 1.0
        return cls(pts)


DEFAULT_SUP_GRID = GridSpec.chebyshev(257)


def _as_handle(h) -> FunctionHandle:
    """The cofactor h as a FunctionHandle.

    A C0Function is callable but stands for x(1-x) h, not for h, so it
    is rejected rather than wrapped.
    """
    if isinstance(h, FunctionHandle):
        return h
    if isinstance(h, Polynomial):
        return FunctionHandle.from_polynomial(h)
    if isinstance(h, C0Function):
        raise TypeError(
            "pass the cofactor itself, not the wrapped pinned function"
        )
    if callable(h):
        return FunctionHandle.from_callable(h)
    raise TypeError("h must be a FunctionHandle, Polynomial, or callable")


class C0Function:
    """A function f = x(1-x) h stored through its cofactor h.

    The represented function vanishes at both endpoints by construction.
    ``norm0`` caches the sup of |h|, the natural norm of the pinned
    space, estimated on the default sup grid on first read.
    """

    def __init__(self, h):
        self.h = _as_handle(h)

    @functools.cached_property
    def norm0(self) -> float:
        return float(sup_norm(self.h))

    def value(self, x):
        return psi_values(x) * self.h(x)

    __call__ = value


def poly_eval(p: Polynomial, x):
    """Horner-scheme value of p at x (scalar or array)."""
    out = npoly.polyval(np.asarray(x, dtype=float), p.coeffs)
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def poly_calculus(p: Polynomial):
    """Exact coefficient-level (derivative, antiderivative) pair.

    The antiderivative takes zero constant term.
    """
    if p.degree == 0:
        deriv = Polynomial.zero()
    else:
        deriv = Polynomial(npoly.polyder(p.coeffs))
    anti = Polynomial(npoly.polyint(p.coeffs))
    return deriv, anti


def require_pinned(p) -> None:
    """Reject a polynomial that does not vanish at both endpoints.

    ``p`` is a Polynomial or an array whose columns are monomial
    coefficients of one polynomial each, of any length. Both endpoint
    values of each must stay within ENDPOINT_TOL times its coefficient
    magnitude.
    """
    c = p.coeffs if isinstance(p, Polynomial) else np.asarray(p)
    c = c.reshape(c.shape[0], -1)
    tol = ENDPOINT_TOL * np.maximum(1.0, np.max(np.abs(c), axis=0))
    v0 = c[0]
    v1 = np.sum(c, axis=0)
    bad = ~((np.abs(v0) <= tol) & (np.abs(v1) <= tol))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"polynomial does not vanish at the endpoints "
            f"(p(0)={v0[i]:.3e}, p(1)={v1[i]:.3e})"
        )


def deflate_by_psi(p: Polynomial) -> Polynomial:
    """Divide out the weight x(1-x) from a polynomial vanishing at 0 and 1.

    Synthetic division by x and then by (1-x); inputs that fail
    ``require_pinned`` are rejected.
    """
    require_pinned(p)
    if p.degree < 2:
        # Only the zero polynomial vanishes at both endpoints below degree 2.
        return Polynomial.zero()
    a = p.coeffs[1:]
    q = np.cumsum(a)[:-1]
    return Polynomial(q)


def _solve_upper(U: np.ndarray, b) -> np.ndarray:
    """Solve U x = b for upper-triangular U by row back-substitution.

    Row j takes its off-diagonal sum as one dot product with the
    already solved tail, from the last row up. On the package's
    matrices (at most DEGREE_CAP + 1 rows) this gives the same bits
    as LAPACK's triangular solve.
    """
    x = np.array(b, dtype=float)
    for j in range(x.size - 1, -1, -1):
        x[j] = (x[j] - U[j, j + 1:] @ x[j + 1:]) / U[j, j]
    return x


@functools.lru_cache(maxsize=None)
def _jacobi11_exact(k: int) -> tuple:
    """Rational monomial coefficients of jacobi11(k), built from k-1 and k-2."""
    # Imported here: fractions pulls in decimal, which import time
    # would otherwise pay for.
    from fractions import Fraction

    if k < 2:
        return (Fraction(1),) if k == 0 else (Fraction(0), Fraction(2))
    zero = Fraction(0)
    shifted = (zero,) + _jacobi11_exact(k - 1)
    prev = _jacobi11_exact(k - 2) + (zero, zero)
    return tuple(((2 * k + 1) * (k + 1) * c - k * (k + 1) * p) / (k * (k + 2))
                 for c, p in zip(shifted, prev))


@functools.lru_cache(maxsize=None)
def jacobi11(k: int) -> Polynomial:
    """Jacobi polynomial with both parameters 1, degree k, on [-1, 1].

    Standard normalization, generated by the three-term recurrence in
    exact rational arithmetic and rounded to double precision once. The
    endpoint identity value(1) = k + 1 is checked exactly on the
    rational coefficients, as a guard on the recurrence coefficients;
    from degree 23 their absolute sum exceeds 1e8, too much for a
    floating-point sum to confirm.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    exact = _jacobi11_exact(k)
    if sum(exact) != k + 1:
        raise RuntimeError(
            f"recurrence check failed at degree {k}: value(1)={sum(exact)}"
        )
    return Polynomial([float(c) for c in exact])


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    out = np.array([0.0])
    for c in outer[::-1]:
        out = npoly.polyadd(npoly.polymul(out, inner), np.array([c]))
    return out


@functools.lru_cache(maxsize=None)
def limit_eigenpoly(j: int) -> Polynomial:
    """Monic limit eigenpolynomial of degree j.

    Degree 0 gives 1 and degree 1 gives x - 1/2. For j >= 2 the result
    is the monic multiple of x(x-1) times the degree-(j-2) Jacobi(1,1)
    polynomial evaluated at 2x - 1; it vanishes at both endpoints.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j == 0:
        return Polynomial([1.0])
    if j == 1:
        return Polynomial([-0.5, 1.0])
    inner = np.array([-1.0, 2.0])
    core = _compose(jacobi11(j - 2).coeffs, inner)
    full = npoly.polymul(np.array([0.0, -1.0, 1.0]), core)
    monic = full / full[-1]
    monic[-1] = 1.0
    return Polynomial(monic)


def _finite(caller: str, x: np.ndarray, vals) -> np.ndarray:
    """The values of f at x, after checking that every one is finite."""
    vals = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(
            f"{caller}: the function is not finite at x={np.min(x[bad]):.17g}"
        )
    return vals


def sup_norm(f: FunctionHandle, g: Optional[GridSpec] = None) -> float:
    """Grid maximum of |f| with one golden-section refinement pass.

    This is a lower estimate of the true sup: the refinement only
    sharpens the value near the discrete maximizer. It makes one array
    evaluation of f on the grid and 62 scalar ones, in O(grid) memory.
    A non-finite value raises a ValueError that names the least grid
    point, or the refinement point, where f is not finite.
    """
    if g is None:
        g = DEFAULT_SUP_GRID
    pts = g.points
    vals = np.abs(_finite("sup_norm", pts, f(pts)))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = pts[i - 1] if i > 0 else pts[i]
    b = pts[i + 1] if i + 1 < pts.size else pts[i]

    def at(t):
        v = abs(float(f(t)))
        if not math.isfinite(v):
            _finite("sup_norm", np.array([t]), v)
        return v

    if b > a:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = at(c), at(d)
        best = max(best, fc, fd)
        for _ in range(60):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = at(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = at(d)
            best = max(best, fc, fd)
    return best


# The order-2 modulus takes its 32 steps through f in blocks of whole
# steps, at most this many (grid point, step) pairs to a block and at
# least one step: one call on grids up to 1024 points, O(grid) memory
# on any grid.
_OMEGA_BLOCK = 1 << 15


def omega(f: FunctionHandle, order: int, delta: float,
          g: Optional[GridSpec] = None) -> float:
    """Grid estimate of the modulus of smoothness of the given order.

    Order 1 scans all grid pairs within distance delta. Order 2 scans
    symmetric second differences with 32 step sizes up to and including
    delta, keeping both offset points inside [0, 1]. Both are lower
    estimates of the true moduli.

    Order 1 evaluates f once, on the grid, and takes each point's
    window extremes in one pass. Order 2 evaluates f once on the grid
    and then once per block of steps on the offset points x + t and
    x - t: two calls in all on grids up to 1024 points, and at most 33
    on larger ones. Neither builds a grid-by-grid array: besides what f
    allocates, memory is O(grid), with a peak of 2.3 MB at order 2 for
    a cubic on a 20001-point grid. A non-finite value of f raises a
    ValueError that names the least point where it was found.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if order == 1:
        if delta > 1.0:
            raise ValueError("order-1 modulus needs delta <= 1")
    elif order == 2:
        if delta > 0.5:
            raise ValueError("order-2 modulus needs delta <= 1/2")
    else:
        raise ValueError("order must be 1 or 2")
    if g is None:
        g = DEFAULT_SUP_GRID
    pts = g.points
    vals = _finite("omega", pts, f(pts))
    if order == 1:
        reach = delta * (1.0 + 1e-12) + 1e-15
        # Point i reaches the points i..end_i - 1. The window extremes
        # come from one reduceat over (i, end_i) index pairs; the pad
        # gives the last end index (the grid size) a slot, and the
        # results at the end indices are discarded. Rounded
        # subtraction is monotone, so max(hi - v, v - lo) is the
        # largest |v_j - v_i| bit for bit.
        ends = np.searchsorted(pts, pts + reach, side="right")
        idx = np.empty(2 * pts.size, dtype=np.intp)
        idx[0::2] = np.arange(pts.size)
        idx[1::2] = ends
        padded = np.append(vals, 0.0)
        hi = np.maximum.reduceat(padded, idx)[0::2]
        lo = np.minimum.reduceat(padded, idx)[0::2]
        return float(np.max(np.maximum(hi - vals, vals - lo)))
    steps = delta * np.arange(1, 33) / 32.0
    per_block = max(1, _OMEGA_BLOCK // pts.size)
    best = 0.0
    for k in range(0, steps.size, per_block):
        t = steps[k:k + per_block, None]
        mask = (pts >= t - 1e-15) & (pts <= 1.0 - t + 1e-15)
        xp = np.clip(pts + t, 0.0, 1.0)[mask]
        xm = np.clip(pts - t, 0.0, 1.0)[mask]
        if xp.size == 0:
            continue
        x = np.concatenate((xp, xm))
        fpm = _finite("omega", x, f(x))
        fp, fm = fpm[:xp.size], fpm[xp.size:]
        fx = np.broadcast_to(vals, mask.shape)[mask]
        d2 = np.abs(fp - 2.0 * fx + fm)
        best = max(best, float(d2.max()))
    return best
