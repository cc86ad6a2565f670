"""High-precision references that share no code with the library.

Every quantity here is built in mpmath (40 digits) from the defining
derivative recurrence of the operator family,

    T(e_{m+1}) = [rho x(1-x) T(e_m)' + (rho n x + m) T(e_m)] / (n rho + m),

whose rho -> infinity limit x(1-x) T(e_m)' / n + x T(e_m) is the
Bernstein (sampling) operator. The recurrence holds for every m, so
polynomials of degree above n are covered too. On the pinned space
x(1-x) * (polynomials of degree <= e) the operator is upper triangular
in the basis x(1-x) x^m; the summed series is one exact triangular
solve there, with no truncation and no iteration.

Polynomials are plain lists of mpf coefficients, lowest degree first.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

mp.mp.dps = 40

# Taylor degree for the non-polynomial cofactor exp(x); the remainder is
# below e / 25! ~ 2e-25 on [0, 1], far under every accuracy checked.
EXP_TAYLOR_DEGREE = 24


def cofactor_coeffs(spec) -> tuple:
    """Exact (mpf) cofactor coefficients of a workload cofactor spec."""
    if spec["kind"] == "exp":
        return tuple(mp.mpf(1) / mp.factorial(k)
                     for k in range(EXP_TAYLOR_DEGREE + 1))
    return tuple(mp.mpf(c) for c in spec["coeffs"])


def _horner(p, x):
    acc = mp.mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def evaluate(p, xs) -> list:
    return [float(_horner(p, mp.mpf(x))) for x in xs]


def _mul_psi(h):
    """Coefficients of x(1-x) h."""
    out = [mp.mpf(0)] * (len(h) + 2)
    for i, c in enumerate(h):
        out[i + 1] += c
        out[i + 2] -= c
    return out


def _antiderivative(p):
    return [mp.mpf(0)] + [c / (i + 1) for i, c in enumerate(p)]


@lru_cache(maxsize=None)
def _images(n: int, rho, top: int) -> tuple:
    """Images of x^0 .. x^top; ``rho`` None selects the sampling operator."""
    cols = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    nn = mp.mpf(n)
    for m in range(1, top):
        col = cols[-1]
        nxt = [mp.mpf(0)] * (len(col) + 1)
        for k in range(1, len(col)):
            d = k * col[k]          # coefficient of x^(k-1) in col'
            if rho is None:
                nxt[k] += d / nn
                nxt[k + 1] -= d / nn
            else:
                nxt[k] += rho * d
                nxt[k + 1] -= rho * d
        for k, c in enumerate(col):
            if rho is None:
                nxt[k + 1] += c
            else:
                nxt[k + 1] += rho * nn * c
                nxt[k] += m * c
        if rho is not None:
            nxt = [c / (nn * rho + m) for c in nxt]
        cols.append(nxt)
    return tuple(tuple(c) for c in cols[: top + 1])


def _rho_key(rho):
    return None if rho is None else mp.mpf(rho)


def apply_operator(n: int, rho, f) -> list:
    """Coefficients of U_{n,rho} f (sampling operator when rho is None)."""
    cols = _images(n, _rho_key(rho), len(f) - 1)
    out = [mp.mpf(0)] * max(len(c) for c in cols)
    for fm, col in zip(f, cols):
        for k, c in enumerate(col):
            out[k] += fm * c
    return out


def _deflate(p):
    """Cofactor q with p = x(1-x) q, for p vanishing at 0 and 1."""
    q = p[1:]
    out, acc = [], mp.mpf(0)
    for c in q[:-1]:
        acc += c
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def series_cofactor(n: int, rho, h: tuple) -> tuple:
    """Cofactor of the exactly summed series scale * sum_k U^k (x(1-x) h).

    ``rho`` None gives the sampling series with scale 1/n.
    """
    e = len(h) - 1
    cols = _images(n, _rho_key(rho), e + 2)
    # Column m: the image of x(1-x) x^m = x^(m+1) - x^(m+2), deflated.
    C = mp.zeros(e + 1, e + 1)
    for m in range(e + 1):
        a, b = cols[m + 1], cols[m + 2]
        img = [(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
               for k in range(max(len(a), len(b)))]
        q = _deflate(img)
        for k in range(min(len(q), e + 1)):
            C[k, m] = q[k]
    if rho is None:
        scale = mp.mpf(1) / n
    else:
        r = mp.mpf(rho)
        scale = r / (n * r + 1)
    A = mp.eye(e + 1) - C
    c = mp.lu_solve(A, mp.matrix([scale * v for v in h]))
    return tuple(c[k] for k in range(e + 1))


def _inverse(rho, h, x):
    """Negated limit inverse of x(1-x) h at x, from its integral form."""
    r, x = mp.mpf(rho), mp.mpf(x)
    th = [mp.mpf(0)] + list(h)
    A = _antiderivative(th)                                  # int_0^x t h
    B = _antiderivative([c - d for c, d in zip(list(h) + [0], th)])
    # (1-x) int_0^x t h + x int_x^1 (1-t) h
    val = (1 - x) * _horner(A, x) + x * (sum(B) - _horner(B, x))
    return 2 * r / (r + 1) * val


def inverse_values(rho, h, xs) -> list:
    return [float(_inverse(rho, h, x)) for x in xs]


def residual_values(n: int, rho, h, xs) -> list:
    """Series-minus-limit values x(1-x) S(x) - inverse(x)."""
    s = series_cofactor(n, rho, h)
    return [float(mp.mpf(x) * (1 - mp.mpf(x)) * _horner(s, mp.mpf(x))
                  - _inverse(rho, h, x)) for x in xs]


def operator_values(n: int, rho, h, xs) -> list:
    """Values of U_{n,rho} applied to x(1-x) h."""
    return evaluate(apply_operator(n, rho, _mul_psi(h)), xs)


def eigenvalues(n: int, rho) -> list:
    """Closed-form eigenvalues prod_{i<j} rho (n-i) / (n rho + i)."""
    r = mp.mpf(rho)
    out, v = [], mp.mpf(1)
    for j in range(n + 1):
        out.append(float(v))
        v *= r * (n - j) / (n * r + j)
    return out


def admissible(n: int, rho: float) -> bool:
    """Whether the residual bound applies: n >= (4 rho + 6) / rho."""
    return n + 1e-9 >= (4.0 * rho + 6.0) / rho


def sup_abs(values) -> float:
    return max((abs(v) for v in values if not math.isnan(v)), default=0.0)
