"""The blending operator family, the Bernstein operator included.

The family interpolates at the endpoints and, at the interior Bernstein
nodes, replaces point evaluation by averages against Beta densities
whose concentration is controlled by a parameter rho in (0, inf].
rho = inf is the Bernstein operator, which samples at the nodes, rho
equal to one the boundary interpolating Durrmeyer variant, and small
rho the chord through the endpoint values.

Two evaluation paths are provided. On polynomials the operator is
an upper-triangular matrix in the monomial basis, assembled column by
column from the exact derivative recurrence

    T(e_{m+1}) = [rho * x(1-x) * T(e_m)' + (rho n x + m) T(e_m)] / (n rho + m)

which keeps every entry at working precision for every block the degree
cap allows; at rho = inf the same recurrence gives the Bernstein
operator. Every quantity takes (n, rho): ``u_matrix_leading_block``
gives the images of e_0 .. e_d at any n >= d, and ``apply_U_poly`` the
image of a polynomial of any degree. Pointwise, ``apply_U`` blends
Bernstein coefficients, and the input picks how they are formed. A
polynomial, bare or in a handle, takes the closed Beta moments of its
monomials, nested over its coefficients at O(n d) with no quadrature.
On generic functions the interior functionals are Gauss quadratures
built for the exact Beta weight, so integrable endpoint singularities
at small rho are absorbed by the rule instead of being sampled. The
rules follow Golub and Welsch: the interior rules of one (n, rho)
and size are stacked, batched symmetric eigenvalue solves give the
nodes, and one pass of the three-term recurrence refines each node by
a Newton step and gives its weight. ``_settle`` is the package's one
ladder of rule sizes (these rules and the Legendre rules of
``inverse_neg`` and ``limit_dual``), ``_bernstein_sum`` its one
Bernstein blend (``apply_U`` and the series), which forms the basis at
a point as a binomial pmf in log space at O(n) cost. The module needs
numpy only.
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
    _finite,
    _require_index,
    _require_unit_interval,
)

__all__ = [
    "QUAD_TOL",
    "QuadratureRule",
    "functional_moment",
    "u_matrix_leading_block",
    "apply_U_poly",
    "apply_U",
    "central_moment",
    "u_norm0",
]

# Accuracy floor claimed for quadrature-exact paths throughout the
# package; slack computations elsewhere reference this constant.
QUAD_TOL = 1e-10


def _homogeneous(rho) -> tuple:
    """rho in (0, inf] as a ratio r / w: (rho, 1), or (1, 0) at rho = inf.

    Every formula of the family is unchanged when r and w are scaled
    together, so (rho, 1) keeps the finite-rho arithmetic and (1, 0)
    gives the sampling (Bernstein) operator. This is the package's one
    rho check: a rho outside (0, inf], NaN included, raises a
    ValueError naming the parameter.
    """
    if not 0.0 < rho <= math.inf:
        raise ValueError(f"rho must be positive (inf included), got {rho}")
    if rho == math.inf:
        return 1.0, 0.0
    return rho, 1.0


def _n_rho(n, rho) -> tuple:
    """``_homogeneous(rho)`` after the package's one n check: n must be
    an integer (Python or numpy, not a bool) of at least 1, or a
    ValueError names it."""
    if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
            or n < 1):
        raise ValueError(f"n must be at least 1 and an integer, got {n}")
    return _homogeneous(rho)


# The endpoints, where every member of the family interpolates.
_ENDS = np.array([0.0, 1.0])
# The rungs of the interior Beta rules, climbed by ``_settle``.
_RULE_SIZES = (20, 40, 80)
# Floats per block of stacked Jacobi matrices handed to one eigensolve.
# With the complex slopes and values of its recurrence pass a block
# holds 1.3 MB; a whole 40-node stack at n = 4096 would hold 130 MB.
# Twice this is 7-10% faster on the 80-node stack at n = 4096 but
# 6-24% slower on the 80-node stacks at n = 32 to 128.
_EIGH_BLOCK = 1 << 15
# Floats of binomial pmf values per block of ``_bernstein_sum``, n + 1
# per point: a whole 40-node stack at n = 1024 would need 0.3 GB, a
# block 2 MB.
_BERNSTEIN_BLOCK = 1 << 18
# The complex step h of the recurrence pass: p(x + ih) = p(x) + ih p'(x)
# up to terms in h^2 p'', far below the rounding of p, while h p' stays
# a normal float.
_COMPLEX_STEP = 1e-100


def _golub_welsch(alpha, beta, size: int) -> tuple:
    """Nodes and normalized weights of a stack of Gauss rules.

    One rule of ``size`` nodes per exponent pair (alpha_i, beta_i) of
    the weight t^alpha_i (1-t)^beta_i on (0, 1), as arrays of shape
    (rows, size) with the nodes ascending. Each row is built with its
    smaller exponent at t = 0, where a skewed weight's mass and nodes
    cluster and t keeps relative precision; a row with alpha_i > beta_i
    is then mirrored by t -> 1 - t.

    The nodes are the eigenvalues of the Jacobi matrices on (0, 1),
    from numpy's batched symmetric eigensolver a block of rows at a
    time. One pass of the orthonormal three-term recurrence over every
    row and node then gives p_0 .. p_size there. It runs at x + ih (the
    complex step), so the imaginary parts carry h p'. One Newton step
    -p_size / p_size' refines each node, and the weights are 1 / S,
    normalized, where the Christoffel sum S = p_0^2 + ... +
    p_{size-1}^2 is moved to the refined node to first order by S'. No
    eigenvector and no Beta function value is formed.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lo = np.minimum(alpha, beta)[:, None]
    hi = np.maximum(alpha, beta)[:, None]
    total = lo + hi
    mass = total + 2.0
    k = np.arange(1.0, size + 1.0)
    s = 2.0 * k + total
    # The diagonal c_0 .. c_{size-1}: the mean of the weight, then the
    # coefficients (1 + (lo^2 - hi^2) / (s_k s_{k+1})) / 2 of u = 2t - 1
    # moved to t over one denominator, so no 1 - x cancels near t = 0.
    diag = np.empty((lo.shape[0], size))
    diag[:, :1] = (lo + 1.0) / mass
    diag[:, 1:] = ((k[:-1] * (s[:, :-1] + mass) + total * (lo + 1.0))
                   / (s[:, :-1] * s[:, 1:]))
    # The squared off-diagonals b_1^2 .. b_size^2. The k = 1 coefficient
    # is written in reduced form: the factor (1 + lo + hi) cancels
    # against (s - 1), and the unreduced quotient is 0/0 exactly when
    # lo + hi = -1.
    off = np.empty_like(diag)
    off[:, :1] = (lo + 1.0) * (hi + 1.0) / (mass * mass * (mass + 1.0))
    kk, sq = k[1:], s[:, 1:] ** 2
    off[:, 1:] = (kk * (kk + total) * (kk + lo) * (kk + hi)
                  / (sq * (sq - 1.0)))
    sub = np.sqrt(off)
    # The recurrence b_{j+1} p_{j+1} = (x - c_j) p_j - b_j p_{j-1} runs on
    # q_j = p_j / lam_j with lam_0 = lam_1 = 1 and lam_{j+1} =
    # lam_{j-1} b_j / b_{j+1}, where it reads q_{j+1} = (x - c_j)
    # scale_j q_j - q_{j-1}: one product and one difference per step.
    lam = np.ones((lo.shape[0], size + 1))
    ratio = sub[:, :-1] / sub[:, 1:]
    np.cumprod(ratio[:, 0::2], axis=1, out=lam[:, 2::2])
    np.cumprod(ratio[:, 1::2], axis=1, out=lam[:, 3::2])
    scale = lam[:, :-1] / (lam[:, 1:] * sub)
    nodes = np.empty_like(diag)
    weights = np.empty_like(diag)
    step = max(1, min(diag.shape[0], _EIGH_BLOCK // (size * size)))
    J = np.zeros((step, size * size))
    slopes = np.empty((size, step, size), dtype=complex)
    values = np.empty((size + 2, step, size), dtype=complex)
    for first in range(0, diag.shape[0], step):
        block = slice(first, first + step)
        rows = diag[block].shape[0]
        J[:rows, ::size + 1] = diag[block]
        J[:rows, size::size + 1] = sub[block, :-1]
        x = np.linalg.eigvalsh(J[:rows].reshape(rows, size, size), UPLO="L")
        # slopes[j] = (x + ih - c_j) scale_j; values[j + 1] = q_j
        slope = slopes[:, :rows]
        parts = slope.view(float)
        np.subtract(x, diag[block].T[:, :, None], out=parts[..., 0::2])
        parts[..., 0::2] *= scale[block].T[:, :, None]
        np.multiply(_COMPLEX_STEP, scale[block].T[:, :, None],
                    out=parts[..., 1::2])
        q = values[:, :rows]
        q[0] = 0.0
        q[1] = 1.0
        seq = list(q)
        for slope_j, prev, cur, nxt in zip(slope, seq, seq[1:], seq[2:]):
            np.multiply(slope_j, cur, nxt)
            np.subtract(nxt, prev, nxt)
        # newton = p_size / (h p_size'), and the Newton step is -h newton
        newton = q[-1].real / q[-1].imag
        # christoffel = S + ih S' from (p_j + ih p_j')^2
        p = q[1:-1]
        p *= lam[block, :-1].T[:, :, None]
        np.square(p, out=p)
        christoffel = p.sum(axis=0)
        w = 1.0 / (christoffel.real - newton * christoffel.imag)
        nodes[block] = x - _COMPLEX_STEP * newton
        weights[block] = w / w.sum(axis=1, keepdims=True)
    _mirror(nodes, weights, alpha > beta)
    return nodes, weights


def _mirror(nodes, weights, flip) -> None:
    """Reflect the rules of the rows ``flip`` by t -> 1 - t, in place:
    the rule of t^a (1-t)^b becomes the rule of t^b (1-t)^a."""
    if flip.any():
        nodes[flip] = 1.0 - nodes[flip, ::-1]
        weights[flip] = weights[flip, ::-1]


def _rule_defect(nodes, weights, alpha, beta):
    """The first failed check of a stack of rules, as (row, message).

    Row i is a rule with normalized weights for t^alpha_i (1-t)^beta_i.
    Its nodes must lie strictly inside (0, 1), its weights be positive
    and sum to one and, from two nodes on, its first moment match
    (alpha_i + 1) / (alpha_i + beta_i + 2) to QUAD_TOL, which also
    rejects a rule built for other exponents. Returns None when every
    row passes.
    """
    failed = [
        (~np.all((nodes > 0.0) & (nodes < 1.0), axis=1),
         "nodes must lie strictly inside (0, 1)"),
        (~np.all(weights > 0.0, axis=1), "weights must be positive"),
        (~(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12),
         "normalized weights must sum to one"),
    ]
    if nodes.shape[1] >= 2:
        m1 = np.sum(weights * nodes, axis=1)
        want = (alpha + 1.0) / (alpha + beta + 2.0)
        failed.append((~(np.abs(m1 - want) <= QUAD_TOL),
                       "rule fails the first-moment check"))
    for bad, message in failed:
        if bad.any():
            return int(np.argmax(bad)), message
    return None


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
        defect = _rule_defect(nodes[None], weights[None],
                              np.array([self.alpha], dtype=float),
                              np.array([self.beta], dtype=float))
        if defect is not None:
            raise ValueError(defect[1])
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

        The one-row case of the stacked construction the interior
        rules use.
        """
        if size < 1:
            raise ValueError("size must be at least 1")
        if alpha <= -1.0 or beta <= -1.0:
            raise ValueError("exponents must exceed -1")
        nodes, weights = _golub_welsch([alpha], [beta], size)
        return cls(nodes[0], weights[0], alpha, beta)


@functools.lru_cache(maxsize=64)
def _cached_beta_rule(alpha: float, beta: float, size: int) -> QuadratureRule:
    """``QuadratureRule.beta_rule``, kept for the Legendre rungs of
    ``inverse_neg`` and ``limit_dual``."""
    return QuadratureRule.beta_rule(alpha, beta, size)


def _settle(values, sizes, where, family: str) -> np.ndarray:
    """Quadrature values climbing a ladder of rule sizes.

    ``values(size, idx)`` gives the values of the items ``idx`` (an
    index array, or ``slice(None)`` for all) by the rules of ``size``
    nodes, for each rung of ``sizes`` in order. An item keeps the value
    of the first rung that agrees with the one before it to QUAD_TOL
    (relative above magnitude one); only open items climb on. An item
    open at the last rung raises a ValueError naming ``where(i)``, the
    last two sizes and the ``family`` of the rules.
    """
    last = np.atleast_1d(values(sizes[0], slice(None)))
    out = np.empty_like(last)
    todo = np.arange(last.size)
    for size in sizes[1:]:
        cur = np.atleast_1d(values(size, todo))
        gap = np.abs(cur - last)
        ok = gap <= QUAD_TOL * np.maximum(1.0, np.abs(cur))
        out[todo[ok]] = cur[ok]
        todo, last, gap = todo[~ok], cur[~ok], gap[~ok]
        if todo.size == 0:
            return out
    raise ValueError(
        f"{where(int(todo[0]))}: the {sizes[-2]}- and {sizes[-1]}-node "
        f"{family} rules differ by {gap[0]:.3g}, more than QUAD_TOL"
    )


def functional_moment(n: int, k: int, rho: float, m: int) -> float:
    """m-th raw moment of the interior averaging functional at node k.

    Equals the product over i < m of (k rho + i) / (n rho + i), the
    moment of the Beta density with parameters (k rho, (n-k) rho); at
    rho = inf it is (k/n)^m, the moment of the point mass at k/n. k and
    m are integers (Python or numpy, not a bool): k from 1 to n - 1 and
    m from 0; anything else raises a ValueError.
    """
    r, w = _n_rho(n, rho)
    if not 1 <= k <= n - 1:
        raise ValueError(f"node index {k} outside 1..{n - 1}")
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    k = _require_index(k, "node index")
    m = _require_index(m, "moment order")
    i = np.arange(m, dtype=float)
    return float(np.prod((k * r + i * w) / (n * r + i * w)))


def _leading_block(n: int, rho: float, d: int) -> np.ndarray:
    """Images of e_0 .. e_d in monomial form, rows 0..min(n, d).

    Column m + 1 comes from column m by the derivative recurrence, with
    rho = r / w from ``_homogeneous``:

        T(e_{m+1}) = [r x(1-x) T(e_m)' + (r n x + m w) T(e_m)] / (n r + m w)

    At rho = inf this is x(1-x)/n B(e_m)' + x B(e_m), the Bernstein
    operator. Every image has degree at most n, so the rows stop there
    and any d >= 0 is allowed; callers check n, rho and d.
    """
    r, w = _homogeneous(rho)
    rows = min(n, d) + 1
    M = np.zeros((rows, d + 1))
    M[0, 0] = 1.0
    if d == 0:
        return M
    M[1, 1] = 1.0
    col = np.zeros(rows + 1)
    col[1] = 1.0
    idx = np.arange(1.0, rows + 1.0)
    for m in range(1, d):
        deriv = col[1:] * idx
        nxt = np.zeros(rows + 1)
        # r * x(1-x) * col'
        nxt[1:] += r * deriv
        nxt[2:] -= r * deriv[:-1]
        # r * n * x * col
        nxt[1:] += r * n * col[:-1]
        # m * w * col
        nxt += m * w * col
        nxt /= n * r + m * w
        M[:, m + 1] = nxt[:rows]
        # Degree n + 1 vanishes in exact arithmetic.
        nxt[rows:] = 0.0
        col = nxt
    return M


def u_matrix_leading_block(n: int, rho: float, d: int) -> np.ndarray:
    """Columns 0..d of the operator's monomial matrix, rows 0..d.

    The package's one public matrix entry point: d = n gives the whole
    matrix on Pi_n. Valid for any n >= d; only the block size is
    limited by the degree cap. d is an integer (Python or numpy, not a
    bool). The derivative recurrence behind it keeps the diagonal (the
    eigenvalues) accurate to working precision and the constant
    coefficient of every column beyond the first at exactly zero.
    """
    _n_rho(n, rho)
    if d < 0 or d > n:
        raise ValueError("block size must satisfy 0 <= d <= n")
    if d > DEGREE_CAP:
        raise ValueError(f"block size {d} exceeds the degree cap {DEGREE_CAP}")
    d = _require_index(d, "block size")
    return _leading_block(n, rho, d)


def apply_U_poly(n: int, rho: float, p: Polynomial) -> Polynomial:
    """Exact image of a polynomial of any degree up to the cap.

    Every image has degree at most n: the operator maps all
    polynomials into Pi_n, so the result is the leading block of size
    deg p + 1 (rows 0..min(n, deg p)) applied to the coefficients.
    """
    _n_rho(n, rho)
    return Polynomial(_leading_block(n, rho, p.degree) @ p.coeffs)


def bernstein_basis(n: int, x) -> np.ndarray:
    """All n+1 Bernstein basis values at x, stacked along axis 0.

    Uses the stable degree-raising recurrence, one slice update per
    degree: every value of degree m is formed from the degree m-1
    values at once, so the loop runs n times rather than n^2/2. Works
    for scalar or array x. It costs O(n^2) per point and is on no
    library path: it is the oracle the tests hold ``_bernstein_sum``
    to.
    """
    x = np.asarray(x, dtype=float)
    one_minus = 1.0 - x
    b = np.zeros((n + 1,) + x.shape)
    b[0] = 1.0
    for m in range(1, n + 1):
        b[1:m + 1] = x * b[:m] + one_minus * b[1:m + 1]
        b[0] = one_minus * b[0]
    return b


def _bernstein_sum(c, x):
    """Sum of c times the degree n = len(c) - 1 Bernstein basis at x.

    The basis at x is the binomial pmf with n trials and success
    probability x, formed in O(n) per point as ``_cofactor_transfer``
    forms its rho = inf rows: with t = min(x, 1 - x), the log ratios
    log((n-j)/(j+1)) + log t - log1p(-t) are summed cumulatively over
    j, shifted by their maximum, exponentiated and normalized, and a
    point above 1/2 takes the coefficients reversed. No binomial
    coefficient or power is formed, and the ends interpolate exactly:
    x = 0 gives c[0] and x = 1 gives c[-1]. Elementwise on x of any
    shape; x is taken in flattened blocks, so the pmf never holds more
    than ``_BERNSTEIN_BLOCK`` floats.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    n = c.size - 1
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    j = np.arange(n, dtype=float)[:, None]
    ratios = np.log((n - j) / (j + 1.0))
    step = max(1, _BERNSTEIN_BLOCK // c.size)
    for lo in range(0, flat.size, step):
        xb = flat[lo:lo + step]
        t = np.minimum(xb, 1.0 - xb)
        pmf = np.zeros((n + 1, t.size))
        # t = 0 gives log t = -inf: the pmf is the unit mass at j = 0
        with np.errstate(divide="ignore"):
            np.add(ratios, np.log(t) - np.log1p(-t), out=pmf[1:])
        np.cumsum(pmf, axis=0, out=pmf)
        pmf -= pmf.max(axis=0)
        np.exp(pmf, out=pmf)
        pmf /= pmf.sum(axis=0)
        out[lo:lo + step] = np.where(xb > 0.5, c[::-1] @ pmf, c @ pmf)
    return out.reshape(x.shape)


def _interior_rules(n: int, rho: float, size: int, ks) -> tuple:
    """Stacked Gauss rules of ``size`` nodes for the functionals at ks.

    Row i is the rule for the Beta weight of node k = ks[i], with
    exponents (k rho - 1, (n-k) rho - 1). t -> 1 - t swaps the
    exponents, so a node k > n/2 takes the mirror of the rule of n - k
    and only the distinct nodes min(k, n - k) go through the
    eigensolve. Every row passes the checks of ``QuadratureRule``; a
    failure raises a ValueError naming the node and the size.
    """
    ks = np.asarray(ks)
    low, row = np.unique(np.minimum(ks, n - ks), return_inverse=True)
    nodes, weights = _golub_welsch(low * rho - 1.0, (n - low) * rho - 1.0,
                                   size)
    nodes, weights = nodes[row], weights[row]
    _mirror(nodes, weights, ks > n - ks)
    defect = _rule_defect(nodes, weights, ks * rho - 1.0,
                          (n - ks) * rho - 1.0)
    if defect is not None:
        i, message = defect
        raise ValueError(f"Beta rule of {size} nodes at interior node "
                         f"k={ks[i]} (n={n}, rho={rho}): {message}")
    return nodes, weights


@functools.lru_cache(maxsize=4)
def _interior_stack(n: int, rho: float, size: int) -> tuple:
    """The rules of ``_interior_rules`` for every interior node, kept.

    ``apply_U`` and the series of one (n, rho) share them.
    """
    nodes, weights = _interior_rules(n, rho, size, np.arange(1, n))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _interior_values(n: int, rho: float, f) -> np.ndarray:
    """The n - 1 interior functional values F_1 f .. F_{n-1} f.

    ``f`` is any elementwise callable (``apply_U`` sends a handle that
    carries a polynomial to ``_moment_coefficients`` instead). Node k
    averages f against the Beta weight with exponents (k rho - 1,
    (n-k) rho - 1) on the rungs 20, 40 and 80 of ``_settle``: 20 and 40
    are one stack over all nodes each, with one evaluation of f, and
    only the nodes still open take 80. So polynomials of degree below
    80 are integrated exactly, and a node open at 80 raises a
    ValueError naming it and the size, as does a value of f that is
    not finite. At rho = inf the functionals are point evaluations at
    k/n.
    """
    def at(x):
        return _finite(f"interior functionals (n={n}, rho={rho})", x, f(x))

    if _homogeneous(rho)[1] == 0.0:
        return at(np.arange(1, n) / n)
    if n < 2:
        return np.empty(0)
    ks = np.arange(1, n)

    def values(size, idx):
        if ks[idx].size == n - 1:
            nodes, weights = _interior_stack(n, rho, size)
        else:
            nodes, weights = _interior_rules(n, rho, size, ks[idx])
        return np.sum(weights * at(nodes), axis=1)

    return _settle(
        values, _RULE_SIZES,
        lambda i: (f"Beta quadrature at interior node k={ks[i]} (n={n}, "
                   f"rho={rho}) does not settle by {_RULE_SIZES[-1]} nodes"),
        "Beta")


def _moment_coefficients(n: int, rho: float, a) -> np.ndarray:
    """All n + 1 Bernstein coefficients F_0 p .. F_n p of a polynomial.

    ``a`` holds the monomial coefficients a_0 .. a_d. Node k takes x^m
    to the Beta moment prod_{i<m} (k r + i w) / (n r + i w) (see
    ``functional_moment``), so the sum over m nests like Horner's
    scheme on the array k = 0..n, at O(n d) cost:

        acc = a_m + acc * (k r + m w) / (n r + m w),  m = d-1 .. 0

    Every ratio lies in [0, 1], so the error stays a few ulp of
    sum |a_m|. k = 0 gives a_0 and k = n the Horner value at 1, and at
    rho = inf each ratio is k/n: the bits of sampling p, up to the sign
    of a zero. A coefficient that is not finite raises a ValueError
    naming the layer, n, rho and the node.
    """
    r, w = _homogeneous(rho)
    kr = np.arange(n + 1) * r
    acc = np.full(n + 1, a[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(a.size - 2, -1, -1):
            acc = a[m] + acc * ((kr + m * w) / (n * r + m * w))
    bad = ~np.isfinite(acc)
    if bad.any():
        k = int(np.argmax(bad))
        layer = ("endpoint values" if k in (0, n)
                 else "interior functionals")
        raise ValueError(f"{layer} (n={n}, rho={rho}): the Beta moments "
                         f"of the polynomial are not finite at node k={k}")
    return acc


def apply_U(n: int, rho: float, f: FunctionHandle, x):
    """Pointwise operator value on a generic function.

    The Bernstein coefficients of the result are the endpoint values
    and the n - 1 interior functionals, summed at x by
    ``_bernstein_sum`` in O(n) per point. A ``Polynomial``, bare or in
    a handle, takes them from the closed Beta moments in one O(n d)
    pass (``_moment_coefficients``), with no quadrature. Any other
    function has its interior functionals evaluated by Beta-weight
    Gauss rules grown from 20 nodes until two sizes agree to QUAD_TOL
    (see ``_interior_values``, which raises a ValueError naming the
    node and the size where they do not by 80 nodes). At rho = inf the
    functionals are samples at k/n and the value is that of the
    Bernstein polynomial of f.
    Points outside [0, 1], NaN among them, raise a ValueError that
    names the first, and so does a value of f that is not finite, at
    the endpoints as at the interior nodes.
    """
    _n_rho(n, rho)
    _require_unit_interval(x)
    if isinstance(f, Polynomial):
        f = FunctionHandle.from_polynomial(f)
    if isinstance(f, FunctionHandle) and f.poly is not None:
        c = _moment_coefficients(n, rho, f.poly.coeffs)
    else:
        f0, f1 = _finite(f"endpoint values (n={n}, rho={rho})", _ENDS,
                         [f(0.0), f(1.0)])
        c = np.concatenate(([f0], _interior_values(n, rho, f), [f1]))
    val = _bernstein_sum(c, x)
    return float(val) if val.ndim == 0 else val


def central_moment(n: int, rho: float, y: float, r: int) -> float:
    """Closed forms of the centered operator moments up to order four.

    With rho = a / w from ``_homogeneous`` (r is the order here); at
    rho = inf they are the moments of the Bernstein operator. y is one
    point of [0, 1]; a point outside, NaN among them, or more than one
    point raises a ValueError. The order r is an integer (Python or
    numpy, not a bool) from 0 to 4; anything else raises a ValueError.
    """
    a, w = _n_rho(n, rho)
    ys = _require_unit_interval(y)
    if ys.size != 1:
        raise ValueError(f"y must be one point, got {ys.size}")
    y = float(ys[0])
    if not 0 <= r <= 4:
        raise ValueError("order must be between 0 and 4")
    r = _require_index(r, "order")
    psi = y * (1.0 - y)
    if r == 0:
        return 1.0
    if r == 1:
        return 0.0
    if r == 2:
        return (a + w) * psi / (n * a + w)
    if r == 3:
        dpsi = 1.0 - 2.0 * y
        return ((a + w) * (a + 2.0 * w) * psi * dpsi
                / ((n * a + w) * (n * a + 2.0 * w)))
    num = (3.0 * a * (a + w) ** 2 * psi * psi * n
           - 6.0 * (a + w) * (a * a + 3.0 * a * w + 3.0 * w * w) * psi * psi
           + (a + w) * (a + 2.0 * w) * (a + 3.0 * w) * psi)
    return num / ((n * a + w) * (n * a + 2.0 * w) * (n * a + 3.0 * w))


def u_norm0(n: int, rho: float) -> float:
    """Operator norm on the pinned space: (n-1) rho / (n rho + 1).

    At rho = inf it is (n-1)/n. The package's one definition of this
    contraction factor: the series solves read it.
    """
    r, w = _n_rho(n, rho)
    return (n - 1.0) * r / (n * r + w)
