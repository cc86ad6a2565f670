"""Polynomial substrate for the operator library.

Monomial-basis polynomials with exact coefficient calculus, Jacobi
polynomials with parameters (1, 1), the limit eigenpolynomials they
generate, and grid-based estimators for sup norms and moduli of
smoothness. Everything else in the package is built on these types.

Coefficient arithmetic is double precision; the Jacobi(1,1) family
comes from one integer closed form, rounded once. DEGREE_CAP caps
degrees on construction: the monomial basis loses accuracy before 100.
"""

from __future__ import annotations

import functools
import math
import operator
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
        """Exact coefficient-level derivative."""
        if self.degree == 0:
            return Polynomial.zero()
        return Polynomial(npoly.polyder(self._coeffs))

    def antiderivative(self) -> "Polynomial":
        """Exact coefficient-level antiderivative, zero at x = 0."""
        return Polynomial(npoly.polyint(self._coeffs))

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
    evaluate elementwise. One value for every point, as from
    ``lambda x: 1.0``, is broadcast to the points' shape in a new
    array; any other shape raises a ValueError that names both shapes.
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
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._fn(x), dtype=float)
        if out.shape != x.shape:
            try:
                out = np.broadcast_to(out, x.shape).copy()
            except ValueError:
                raise ValueError(
                    f"the function returned shape {out.shape} for points "
                    f"of shape {x.shape}; it must evaluate elementwise"
                ) from None
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
    space, estimated on the default sup grid on first read. ``value``
    takes points in [0, 1] only: one outside, NaN among them, raises
    the ValueError of ``_require_unit_interval``.
    """

    def __init__(self, h):
        self.h = _as_handle(h)

    @functools.cached_property
    def norm0(self) -> float:
        return float(sup_norm(self.h))

    def value(self, x):
        _require_unit_interval(x)
        return psi_values(x) * self.h(x)

    __call__ = value


def _horner(c: list, t: float) -> float:
    """Value at t of the polynomial with ascending coefficients c, in
    ``npoly.polyval``'s operation order on plain floats: c[-1] + t * 0,
    then c[i] + acc * t from the top down. Each step is one IEEE
    multiply and one add in both, with no fused multiply-add, so the
    bits agree (signed zeros and NaN included)."""
    acc = c[-1] + t * 0.0
    for ci in c[-2::-1]:
        acc = ci + acc * t
    return acc


def poly_eval(p: Polynomial, x):
    """Horner-scheme value of p at x: a float for a scalar x, else an array.

    An array x goes through ``npoly.polyval``. A scalar x (a Python or
    numpy number, or a 0-d array) takes ``_horner``, the float loop in
    ``polyval``'s operation order, with the same bits; it skips one
    numpy call per coefficient.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim:
        return npoly.polyval(x, p.coeffs)
    return _horner(p.coeffs.tolist(), float(x))


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


def _require_index(j, name: str = "index", cap=math.inf) -> int:
    """The one check of a family index or degree: an integer (Python or
    numpy, not a bool) from 0 to ``cap``, or a ValueError names it. It
    is returned as a Python int, on which integer arithmetic is exact."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 0:
        raise ValueError(f"{name} must be an integer of at least 0, got {j}")
    j = operator.index(j)
    if j > cap:
        raise ValueError(f"degree {j} exceeds the cap {cap}")
    return j


def _jacobi11_terms(k: int) -> list:
    """The integers A_m = C(k+1, k-m) C(k+m+2, m), m = 0..k, of the
    hypergeometric sum for the degree-k Jacobi(1,1) polynomial (DLMF
    18.5), P_k(z) = sum_m A_m ((z - 1)/2)^m; by P_k(-z) = (-1)^k P_k(z)
    also P_k(2x - 1) = sum_m (-1)^(k+m) A_m x^m."""
    return [math.comb(k + 1, k - m) * math.comb(k + m + 2, m)
            for m in range(k + 1)]


# typed, here and below: a bool or float equal to a cached key must be checked
@functools.lru_cache(maxsize=None, typed=True)
def jacobi11(k: int) -> Polynomial:
    """Jacobi polynomial with both parameters 1, degree k, on [-1, 1].

    Standard normalization, from ``_jacobi11_terms``: coefficient i is
    N_i / 2^k, rounded once by int true division, with the integers
    N_i = sum over m >= i of (-1)^(m-i) A_m C(m, i) 2^(k-m). The guard
    value(-1) = (-1)^k (k + 1), which weighs every A_m, is checked on
    the integers; a degree above DEGREE_CAP fails before the work.
    """
    k = _require_index(k, "degree", DEGREE_CAP)
    a = _jacobi11_terms(k)
    num = [sum((-1) ** (m - i) * a[m] * math.comb(m, i) * 2 ** (k - m)
               for m in range(i, k + 1))
           for i in range(k + 1)]
    if sum(num[::2]) - sum(num[1::2]) != (-1) ** k * (k + 1) * 2 ** k:
        raise RuntimeError(f"closed-form check failed at degree {k}")
    return Polynomial([c / 2 ** k for c in num])


@functools.lru_cache(maxsize=None, typed=True)
def limit_eigenpoly(j: int) -> Polynomial:
    """Monic limit eigenpolynomial of degree j.

    Degree 0 gives 1 and degree 1 gives x - 1/2. For j >= 2 the result
    is the monic multiple of x(x-1) times the degree-(j-2) Jacobi(1,1)
    polynomial evaluated at 2x - 1; it vanishes at both endpoints. The
    product is formed in integers from ``_jacobi11_terms``, and each
    coefficient is divided by the leading one and rounded once. An
    index above DEGREE_CAP fails before the work.
    """
    j = _require_index(j, cap=DEGREE_CAP)
    if j < 2:
        return Polynomial([1.0] if j == 0 else [-0.5, 1.0])
    a = [(-1) ** (j + m) * t for m, t in enumerate(_jacobi11_terms(j - 2))]
    # (x^2 - x) P_{j-2}(2x - 1): coefficient i is a[i-2] - a[i-1]
    full = [hi - lo for hi, lo in zip([0, 0] + a, [0] + a + [0])]
    return Polynomial([c / full[-1] for c in full])


def _finite(caller: str, x: np.ndarray, vals) -> np.ndarray:
    """The values of f at x, after checking that every one is finite."""
    vals = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(
            f"{caller}: the function is not finite at x={np.min(x[bad]):.17g}"
        )
    return vals


def _require_unit_interval(x) -> np.ndarray:
    """x as an array of at least one dimension, after checking that
    every point lies in [0, 1]; NaN does not, and the error names the
    first point that fails."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~((xs >= 0.0) & (xs <= 1.0))
    if bad.any():
        raise ValueError("evaluation points must lie in [0, 1], "
                         f"x={xs.flat[np.argmax(bad)]:.17g}")
    return xs


def sup_norm(f: FunctionHandle, g: Optional[GridSpec] = None) -> float:
    """Grid maximum of |f| with one golden-section refinement pass.

    This is a lower estimate of the true sup: the refinement only
    sharpens the value near the discrete maximizer. It makes one array
    evaluation of f on the grid and 62 scalar ones, in O(grid) memory.
    On a ``Polynomial``, bare or in a handle, the scalar ones skip the
    handle: they take ``_horner`` on plain floats, with the same bits
    as the handle, so a corpus polynomial costs 0.04-0.07 ms on the
    default grid, against 0.11-0.15 ms through the handle and 0.09 ms
    for ``np.cos`` (best of repeats, a 2-vCPU Xeon host). A non-finite
    value raises a ValueError that names the least grid point, or the
    refinement point, where f is not finite.
    """
    if g is None:
        g = DEFAULT_SUP_GRID
    if isinstance(f, Polynomial):
        f = FunctionHandle.from_polynomial(f)
    pts = g.points
    vals = np.abs(_finite("sup_norm", pts, f(pts)))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = pts[i - 1] if i > 0 else pts[i]
    b = pts[i + 1] if i + 1 < pts.size else pts[i]
    if isinstance(f, FunctionHandle) and f.poly is not None:
        # the refinement skips the handle: one Horner closure over the
        # coefficients, and the bracket as plain floats (the same bits)
        f = functools.partial(_horner, f.poly.coeffs.tolist())
        a, b = float(a), float(b)

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
    ValueError that names the least point where it was found, and a
    delta outside (0, 1] at order 1 or (0, 1/2] at order 2, NaN
    included, raises one too.
    """
    if not delta > 0:
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
