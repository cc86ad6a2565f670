"""Quadrature rules, operator matrices, pointwise application, moments."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from bernseries import (
    PSI,
    C0Function,
    FunctionHandle,
    Polynomial,
    DEGREE_CAP,
    QuadratureRule,
    apply_U,
    apply_U_poly,
    apply_series,
    central_moment,
    eigenvalue,
    poly_eval,
    standard_corpus,
    u_matrix_leading_block,
    u_norm0,
)
from bernseries import operators
from bernseries.operators import (
    QUAD_TOL,
    _bernstein_sum,
    _interior_rules,
    _interior_stack,
    _leading_block,
    _rule_defect,
    _settle,
    bernstein_basis,
)


class TestQuadratureRule:
    def test_basic_shape_and_weights(self):
        q = QuadratureRule.beta_rule(0.5, 1.5, 12)
        assert q.nodes.size == 12
        assert np.all(q.nodes > 0) and np.all(q.nodes < 1)
        assert np.all(np.diff(q.nodes) > 0)
        assert np.all(q.weights > 0)
        assert abs(np.sum(q.weights) - 1.0) < 1e-12

    def test_moments_match_closed_form(self):
        # normalized Beta measure of the functional at (n, k, rho)
        n, k, rho = 5, 2, 0.7
        q = QuadratureRule.beta_rule(k * rho - 1.0, (n - k) * rho - 1.0, 8)
        for m in range(15):
            want = functional_moment(n, k, rho, m)
            got = q.integrate(lambda t, _m=m: t ** _m)
            assert abs(got - want) < 1e-13

    def test_degenerate_parameter_sum(self):
        # alpha + beta = -1 makes the textbook first recurrence weight
        # a 0/0; the reduced form must survive it
        q = QuadratureRule.beta_rule(-0.5, -0.5, 6)  # n=2, rho=0.5, k=1
        assert abs(q.integrate(lambda t: t) - 0.5) < 1e-13
        q2 = QuadratureRule.beta_rule(-0.7, -0.3, 6)  # n=10, rho=0.1, k=3
        assert abs(q2.integrate(lambda t: t) - 0.3) < 1e-13

    def test_extreme_exponents(self):
        # rho = 1e4 at n = 16: enormous exponents, still a sane rule
        n, k, rho = 16, 7, 1e4
        q = QuadratureRule.beta_rule(k * rho - 1.0, (n - k) * rho - 1.0, 21)
        assert abs(q.integrate(lambda t: t) - k / n) < 1e-10

    def test_single_node(self):
        q = QuadratureRule.beta_rule(1.0, 1.0, 1)
        assert q.nodes.size == 1
        assert abs(q.nodes[0] - 0.5) < 1e-14

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            QuadratureRule.beta_rule(-1.0, 0.0, 4)

    # (alpha, beta, size): small rules, a mirrored pair, a rule whose
    # smallest weights are near 1e-39 and the 80-node rule of node 1 at
    # (256, 10), whose smallest are near 1e-115
    MP_SHAPES = [(-0.5, -0.5, 6), (0.5, 1.5, 12), (-0.9, 11.7, 133),
                 (11.7, -0.9, 133), (0.0, 62.0, 40), (9.0, 2549.0, 80)]

    def test_against_mpmath_reference(self):
        # measured at most 1.4e-16 on the nodes, 2.2e-14 absolute and
        # 2.4e-13 relative on the weights (at (-0.9, 11.7, 133))
        for alpha, beta, size in self.MP_SHAPES:
            q = QuadratureRule.beta_rule(alpha, beta, size)
            nodes, weights = _mp_gauss_jacobi(alpha, beta, q.nodes)
            _assert_rule_close(q.nodes, q.weights, nodes, weights)

    @pytest.mark.parametrize("rho", [1e-4, 1e4])
    def test_extreme_rows_against_mpmath_reference(self, rho):
        # rows k = 1 and n/2 of the 80-node stack at n = 4096: exponents
        # up to 4.1e7, with the mass of row 1 within 1e-5 of t = 2.4e-4
        # at rho = 1e4; measured at most 1.1e-16 on the nodes and 1.5e-13
        # relative on the weights
        n = 4096
        ks = np.array([1, n // 2])
        stack_nodes, stack_weights = _interior_rules(n, rho, 80, ks)
        for row, k in enumerate(ks):
            nodes, weights = _mp_gauss_jacobi(k * rho - 1.0,
                                              (n - k) * rho - 1.0,
                                              stack_nodes[row])
            _assert_rule_close(stack_nodes[row], stack_weights[row], nodes,
                               weights)


def _mp_gauss_jacobi(alpha, beta, guess):
    """The Gauss rule of t^alpha (1-t)^beta from float nodes, in 36 digits.

    Each float node takes two Newton steps on the Jacobi polynomial
    P_N^(beta, alpha)(u), u = 2t - 1, of degree N = len(guess): the
    float nodes are right to about 1e-16, so the first step lands near
    1e-32 and the second at the working precision. The weights are
    1 / ((1 - u^2) P_N'(u)^2), normalized.
    Returns float arrays of the nodes and the normalized weights.
    """
    import mpmath
    size = len(guess)
    with mpmath.workdps(36):
        a, b = mpmath.mpf(beta), mpmath.mpf(alpha)
        steps = []
        for j in range(2, size + 1):
            c = 2 * j + a + b
            den = 2 * j * (j + a + b) * (c - 2)
            steps.append(((c - 1) * c * (c - 2) / den,
                          (c - 1) * (a * a - b * b) / den,
                          2 * (j + a - 1) * (j + b - 1) * c / den))

        def jacobi(u):
            # P_N and P_N' by the three-term recurrence and its
            # derivative
            p0, p1 = mpmath.mpf(1), (a - b) / 2 + (a + b + 2) * u / 2
            d0, d1 = mpmath.mpf(0), (a + b + 2) / 2
            for slope, shift, back in steps:
                lin = slope * u + shift
                p0, p1, d0, d1 = (p1, lin * p1 - back * p0,
                                  d1, lin * d1 + slope * p1 - back * d0)
            return p1, d1

        nodes, weights = [], []
        for t in guess:
            u = 2 * mpmath.mpf(float(t)) - 1
            u -= mpmath.fdiv(*jacobi(u))
            p, dp = jacobi(u)
            # P_N' moves by O(1e-32) relative over this last step
            u -= p / dp
            nodes.append((u + 1) / 2)
            weights.append(1 / ((1 - u * u) * dp ** 2))
        total = mpmath.fsum(weights)
        return (np.array([float(t) for t in nodes]),
                np.array([float(w / total) for w in weights]))


def _assert_rule_close(nodes, weights, ref_nodes, ref_weights):
    """Nodes within 2.5e-16, weights within 5e-14 absolute and 1e-11
    relative, the smallest weights included."""
    assert np.max(np.abs(nodes - ref_nodes)) <= 2.5e-16
    assert np.max(np.abs(weights - ref_weights)) <= 5e-14
    assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-11


class TestMirroredRules:
    # (n, rho, k, size) with k > n/2: the interior rule of node k is the
    # mirror of the rule of node n - k; exponents (11.7, -0.9), (2.5, 0.3),
    # (29, 9) and (599, 19)
    SHAPES = [(128, 0.1, 127, 133), (48, 0.1, 35, 20), (40, 1.0, 30, 69),
              (620, 1.0, 600, 69)]

    def test_reflects_the_swapped_rule(self):
        for n, rho, k, size in self.SHAPES:
            nodes, weights = _interior_rules(n, rho, size, [n - k, k])
            assert np.array_equal(nodes[1], 1.0 - nodes[0, ::-1])
            assert np.array_equal(weights[1], weights[0, ::-1])
            direct = QuadratureRule.beta_rule(k * rho - 1.0,
                                              (n - k) * rho - 1.0, size)
            assert np.max(np.abs(nodes[1] - direct.nodes)) < 1e-12
            assert np.max(np.abs(weights[1] - direct.weights)) < 1e-12

    def test_against_mpmath_reference(self):
        # the row of node 127 of (128, 0.1) is the mirrored rule of
        # exponents (11.7, -0.9); measured 1.1e-16 on the nodes, 1.4e-14
        # absolute and 1.6e-13 relative on the weights
        n, rho, k, size = self.SHAPES[0]
        alpha, beta = k * rho - 1.0, (n - k) * rho - 1.0
        stack_nodes, stack_weights = _interior_rules(n, rho, size, [k])
        q = QuadratureRule(stack_nodes[0], stack_weights[0], alpha, beta)
        nodes, weights = _mp_gauss_jacobi(alpha, beta, q.nodes)
        _assert_rule_close(q.nodes, q.weights, nodes, weights)


class TestStackedRules:
    @pytest.mark.parametrize("rho", [1e-4, 1.0, 10.0, 1e4])
    def test_moments_against_mpmath_reference(self, rho):
        # rows k = 1, n/2 and n - 1 (the mirror of row 1) at n = 4096
        # integrate t^j, j < 2m, against the Beta(k rho, (n-k) rho)
        # moments prod (k rho + i) / (n rho + i) in 30 digits; measured
        # at most 9.7e-15 absolute (rho = 1e-4, k = n - 1, 20 nodes).
        # The absolute error is the one that bounds a quadrature value:
        # the highest moments at k = 1 fall below 1e-100, where the
        # tiny tail weights carry no relative accuracy.
        import mpmath
        n = 4096
        ks = np.array([1, n // 2, n - 1])
        for size in (20, 40):
            nodes, weights = _interior_rules(n, rho, size, ks)
            for row, k in enumerate(ks):
                with mpmath.workdps(30):
                    r = mpmath.mpf(rho)
                    want = [mpmath.mpf(1)]
                    for i in range(2 * size - 1):
                        want.append(want[-1] * (k * r + i) / (n * r + i))
                    want = np.array([float(v) for v in want])
                got = np.array([np.sum(weights[row] * nodes[row] ** j)
                                for j in range(2 * size)])
                assert np.max(np.abs(got - want)) < 2e-14

    @pytest.mark.parametrize("n", [2, 3, 8, 21])
    def test_stack_rows_equal_single_rules(self, n):
        # the batched eigensolve reproduces the one-row rules bit for bit
        rho = 0.3
        nodes, weights = _interior_stack(n, rho, 20)
        for k in range(1, n):
            q = QuadratureRule.beta_rule(min(k, n - k) * rho - 1.0,
                                         max(k, n - k) * rho - 1.0, 20)
            if k > n - k:
                q = QuadratureRule(1.0 - q.nodes[::-1], q.weights[::-1],
                                   k * rho - 1.0, (n - k) * rho - 1.0)
            assert np.array_equal(nodes[k - 1], q.nodes)
            assert np.array_equal(weights[k - 1], q.weights)

    def test_first_moment_check_names_the_row(self):
        # rules handed the exponents of another node fail on that row
        n, rho = 16, 0.7
        ks = np.array([3, 5])
        nodes, weights = _interior_rules(n, rho, 20, ks)
        alpha, beta = ks * rho - 1.0, (n - ks) * rho - 1.0
        assert _rule_defect(nodes, weights, alpha, beta) is None
        wrong = np.array([alpha[0], alpha[0]]), np.array([beta[0], beta[0]])
        assert _rule_defect(nodes, weights, *wrong) == (
            1, "rule fails the first-moment check")

    def test_underflowing_weights_name_the_node_and_size(self, monkeypatch):
        # a row whose smallest weight underflows to 0 fails the row
        # check, and the error names the node and the size; no stack of
        # the documented range underflows now, so the kernel is handed
        # such a row
        real = operators._golub_welsch

        def underflowing(alpha, beta, size):
            nodes, weights = real(alpha, beta, size)
            weights[0, -1] = 0.0
            return nodes, weights

        monkeypatch.setattr(operators, "_golub_welsch", underflowing)
        with pytest.raises(ValueError, match=r"80 nodes at interior node "
                           r"k=1 \(n=256, rho=10.0\): weights must be "
                           r"positive"):
            _interior_rules(256, 10.0, 80, np.arange(1, 256))

    def test_skewed_80_node_row_against_mpmath_reference(self):
        # row 1 of the 80-node stack at (256, 10), exponents (9, 2549),
        # used to lose its smallest weights to underflow; they are
        # 5.3e-115 and match the reference to 2.9e-14 relative (measured)
        nodes, weights = _interior_rules(256, 10.0, 80, np.arange(1, 256))
        ref_nodes, ref_weights = _mp_gauss_jacobi(9.0, 2549.0, nodes[0])
        assert ref_weights.min() < 1e-114
        _assert_rule_close(nodes[0], weights[0], ref_nodes, ref_weights)

    @pytest.mark.parametrize("n", [16, 256, 1024, 4096])
    def test_extreme_rows_build_everywhere(self, n):
        # rows 1, n/2 and n - 1 of every size and rho build with no
        # floating-point error or warning and pass the row checks
        ks = np.array([1, n // 2, n - 1])
        for rho in (1e-4, 0.1, 1.0, 10.0, 1e4):
            for size in (20, 40, 80):
                with np.errstate(divide="raise", over="raise",
                                 invalid="raise"):
                    nodes, weights = _interior_rules(n, rho, size, ks)
                assert np.all(np.diff(nodes, axis=1) > 0)

    def test_nan_nodes_are_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            QuadratureRule(np.array([0.5, np.nan]), np.array([0.5, 0.5]),
                           0.0, 0.0)


def functional_moment(n, k, rho, m):
    """m-th raw moment of the interior functional at node k: the product
    over i < m of (k rho + i) / (n rho + i), the moment of the Beta
    density with parameters (k rho, (n-k) rho); (k/n)^m at rho = inf."""
    if rho == math.inf:
        return (k / n) ** m
    i = np.arange(m, dtype=float)
    return float(np.prod((k * rho + i) / (n * rho + i)))


class TestFunctionalMoment:
    # the library forms the moments of node k as the Bernstein
    # coefficients of a monomial, _moment_coefficients(n, rho, e_m)[k]

    @staticmethod
    def moments(n, rho, m):
        return operators._moment_coefficients(n, rho, np.eye(m + 1)[m])

    def test_trivial_orders(self):
        assert np.all(self.moments(6, 1.3, 0) == 1.0)
        for n in (6, 9):
            got = self.moments(n, 1.0, 1)
            assert np.max(np.abs(got - np.arange(n + 1) / n)) < 1e-15

    def test_oracle(self):
        assert abs(self.moments(2, 1.0, 2)[1] - 1.0 / 3.0) < 1e-15
        for n, k, rho, m in ((5, 2, 0.7, 14), (9, 4, math.inf, 5)):
            got = self.moments(n, rho, m)[k]
            assert abs(got - functional_moment(n, k, rho, m)) < 1e-15


def _u_matrix_from_moments(n, rho):
    """Direct matrix assembly from moments and basis conversion.

    Column m sums functional moments times the monomial expansion of
    the Bernstein basis plus the endpoint terms. The alternating basis
    conversion loses roughly a digit of the diagonal per five rows of
    n, so this route serves as an independent oracle at small n only.
    """
    # Monomial coefficients of each Bernstein basis polynomial:
    # p_{n,k} = C(n,k) x^k (1-x)^{n-k} expanded by the binomial theorem.
    conv = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        base = math.comb(n, k)
        for i in range(n - k + 1):
            conv[k + i, k] = base * math.comb(n - k, i) * (-1) ** i
    M = np.zeros((n + 1, n + 1))
    for m in range(n + 1):
        fvals = np.zeros(n + 1)
        fvals[0] = 1.0 if m == 0 else 0.0
        fvals[n] = 1.0
        for k in range(1, n):
            fvals[k] = functional_moment(n, k, rho, m)
        M[:, m] = conv @ fvals
    return M


class TestOperatorMatrix:
    def test_columns_zero_one_exact(self):
        for n, rho in ((2, 1.0), (12, 0.3), (30, 10.0)):
            M = u_matrix_leading_block(n, rho, n)
            e0 = np.zeros(n + 1)
            e0[0] = 1.0
            e1 = np.zeros(n + 1)
            e1[1] = 1.0
            assert np.array_equal(M[:, 0], e0)
            assert np.array_equal(M[:, 1], e1)

    def test_small_oracle(self):
        # image of the second monomial at n=2, rho=1: (2 e_1 + e_2) / 3
        M = u_matrix_leading_block(2, 1.0, 2)
        assert np.max(np.abs(M[:, 2] - [0.0, 2 / 3, 1 / 3])) < 1e-15

    def test_diagonal_is_eigenvalue_sequence(self):
        for n, rho in ((8, 0.5), (30, 0.1), (25, 10.0)):
            M = u_matrix_leading_block(n, rho, n)
            lam = [eigenvalue(n, rho, j) for j in range(n + 1)]
            assert np.max(np.abs(np.diag(M) - lam)) < 1e-14

    def test_upper_triangular(self):
        M = u_matrix_leading_block(9, 0.7, 9)
        assert np.max(np.abs(np.tril(M, -1))) == 0.0

    def test_leading_block_consistent_with_full(self):
        n, rho, d = 14, 1.7, 6
        full = u_matrix_leading_block(n, rho, n)
        block = u_matrix_leading_block(n, rho, d)
        assert np.max(np.abs(full[: d + 1, : d + 1] - block)) < 1e-14

    def test_two_assembly_routes_agree(self):
        # derivative recurrence vs naive conversion through the node
        # basis; the latter is the independent oracle at small n
        for n in (4, 8, 12):
            for rho in (0.1, 0.5, 1.0, 2.0, 10.0):
                A = u_matrix_leading_block(n, rho, n)
                B = _u_matrix_from_moments(n, rho)
                assert np.max(np.abs(A - B)) < 1e-10

    def test_constructor_validates(self):
        # the one public matrix entry point checks the block size
        # against n and the degree cap; its n check is in the n table of
        # test_rho_range
        with pytest.raises(ValueError, match="block size must satisfy"):
            u_matrix_leading_block(4, 1.0, 5)
        with pytest.raises(ValueError, match="degree cap"):
            u_matrix_leading_block(DEGREE_CAP + 1, 1.0, DEGREE_CAP + 1)


def _bare(p):
    """p as a bare callable, which takes the Beta rules in apply_U."""
    return FunctionHandle.from_callable(lambda x: poly_eval(p, x))


class TestApplyUPoly:
    def test_weight_is_eigenfunction(self):
        img = apply_U_poly(3, 1.0, PSI)
        assert np.max(np.abs((img - PSI * 0.5).padded(3))) < 1e-15

    def test_degree_check(self, rng):
        # U_n maps every polynomial into Pi_n, so an input above degree
        # n is taken, and its image has degree at most n; measured
        # within 8.9e-16 of the quadrature route, which a bare callable
        # takes (a handle that carries the polynomial takes its moments)
        xs = np.linspace(0.0, 1.0, 17)
        for n in (1, 3, 8):
            for rho in (0.5, 1.0, math.inf):
                for deg in (n + 1, n + 4, 12):
                    p = Polynomial(rng.uniform(-1, 1, size=deg + 1))
                    img = apply_U_poly(n, rho, p)
                    assert img.degree <= n
                    want = apply_U(n, rho, _bare(p), xs)
                    assert np.max(np.abs(poly_eval(img, xs) - want)) < 1e-13

    def test_pointwise_oracle(self):
        img = apply_U_poly(2, 1.0, Polynomial([0.0, 0.0, 1.0]))
        assert abs(poly_eval(img, 0.5) - 5.0 / 12.0) < 1e-15

    @pytest.mark.parametrize("n", [256, 4096])
    def test_large_n_matches_quadrature(self, n):
        # no matrix of size n is formed, so n is not capped; against the
        # quadrature route on the pinned corpus functions x(1-x) h,
        # measured within 2.5e-12 on 33 points (the images' coefficients
        # reach 1.3e4)
        xs = np.linspace(0.0, 1.0, 33)
        for h in standard_corpus().values():
            p = PSI * h
            got = poly_eval(apply_U_poly(n, 1.0, p), xs)
            want = apply_U(n, 1.0, _bare(p), xs)
            assert np.max(np.abs(got - want)) < 1e-10


class TestApplyU:
    def test_agrees_with_matrix_route(self, rng):
        n, rho = 6, 0.5
        xs = np.linspace(0, 1, 17)
        for _ in range(10):
            p = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, n + 2))))
            want = poly_eval(apply_U_poly(n, rho, p), xs)
            got = apply_U(n, rho, _bare(p), xs)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_agrees_with_direct_quadrature_at_rho_one(self):
        # independent oracle: raw Gauss-Legendre on the k-th kernel
        # density t^(k-1) (1-t)^(n-k-1) / B(k, n-k)
        n = 7
        fn = lambda x: np.cos(3.0 * x) * x
        u, w = np.polynomial.legendre.leggauss(64)
        t = 0.5 * (u + 1.0)
        wt = 0.5 * w
        xs = np.linspace(0, 1, 33)
        basis = bernstein_basis(n, xs)
        want = fn(0.0) * basis[0] + fn(1.0) * basis[n]
        for k in range(1, n):
            dens = t ** (k - 1) * (1 - t) ** (n - k - 1)
            mass = (math.factorial(k - 1) * math.factorial(n - k - 1)
                    / math.factorial(n - 1))
            want = want + (wt @ (fn(t) * dens)) / mass * basis[k]
        got = apply_U(n, 1.0, FunctionHandle.from_callable(fn), xs)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_endpoint_interpolation(self):
        f = FunctionHandle.from_callable(lambda x: np.exp(x))
        assert abs(apply_U(5, 0.7, f, 0.0) - 1.0) < 1e-14
        assert abs(apply_U(5, 0.7, f, 1.0) - math.e) < 1e-14

    def test_scalar_and_array_consistent(self):
        f = FunctionHandle.from_polynomial(PSI)
        v = apply_U(4, 2.0, f, 0.3)
        vs = apply_U(4, 2.0, f, np.array([0.3]))
        assert isinstance(v, float)
        assert abs(v - vs[0]) == 0.0

    @pytest.mark.parametrize("n", [8, 20, 21])
    def test_cold_call_builds_half_the_rules(self, n, monkeypatch):
        # nodes k and n - k share one rule; rho is used nowhere else,
        # so every rule of the call is cold. A smooth integrand settles
        # at 20 against 40 nodes: one batched eigensolve per size, over
        # the rows k <= n/2.
        built = []
        original = operators._golub_welsch

        def counting(alpha, beta, size):
            built.append((np.asarray(alpha), np.asarray(beta), size))
            return original(alpha, beta, size)

        monkeypatch.setattr(operators, "_golub_welsch", counting)
        apply_U(n, 0.8125 + n / 1024, FunctionHandle.from_callable(np.cos),
                0.3)
        assert [size for _, _, size in built] == [20, 40]
        for alpha, beta, _ in built:
            assert alpha.size == n // 2
            assert np.all(alpha <= beta)

    @pytest.mark.parametrize("n", [80, 128])
    def test_former_weight_underflow_now_succeeds(self, n):
        # the n + 5 node rules of node 1 lost weights to underflow here;
        # the 20- and 40-node rules do not. A bare callable of a
        # polynomial against the exact images of the monomials
        c = np.array([0.3, -1.2, 0.8, 2.0, -1.5, 0.4, 0.9, -0.7, 0.25])
        f = FunctionHandle.from_callable(
            lambda x: npoly.polyval(x, c))
        xs = np.linspace(0.0, 1.0, 17)
        want = poly_eval(Polynomial(
            u_matrix_leading_block(n, 10.0, c.size - 1) @ c), xs)
        got = apply_U(n, 10.0, f, xs)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rows_that_disagree_go_on_to_80_nodes(self, monkeypatch):
        # at n = 2, rho = 1 the one interior weight is uniform; the pole
        # of 1 / (1 + 25 (x - 1/2)^2) at distance 0.2 from [0, 1] leaves
        # the 20-node value 1e-7 off, so the node goes on to 80 nodes,
        # where it settles on the closed form (2/5) atan(5/2)
        sizes = []
        original = operators._golub_welsch

        def recording(alpha, beta, size):
            sizes.append(size)
            return original(alpha, beta, size)

        monkeypatch.setattr(operators, "_golub_welsch", recording)
        _interior_stack.cache_clear()
        runge = FunctionHandle.from_callable(
            lambda x: 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2))
        got = apply_U(2, 1.0, runge, 0.5)
        want = 0.25 * (runge(0.0) + runge(1.0)) + 0.2 * math.atan(2.5)
        assert sizes == [20, 40, 80]
        assert abs(got - want) < 1e-14

    def test_jump_raises_naming_node_and_size(self, monkeypatch):
        # no rule size resolves a jump inside a Beta weight: the nodes
        # whose weight straddles 1/2 stop at 80 nodes with an error.
        # The two shared stacks are built first by a smooth call, so the
        # jump builds one 80-node stack over its open nodes only (416 of
        # the 4095, measured) and neither shared stack again
        n, rho = 4096, 1.0
        apply_U(n, rho, FunctionHandle.from_callable(np.cos), 0.3)
        built = []
        real = operators._interior_rules

        def spy(n, rho, size, ks):
            built.append((size, len(ks)))
            return real(n, rho, size, ks)

        monkeypatch.setattr(operators, "_interior_rules", spy)
        jump = FunctionHandle.from_callable(lambda x: np.sign(x - 0.5))
        with pytest.raises(ValueError, match=r"interior node k=\d+ "
                           r"\(n=4096, rho=1.0\) does not settle by 80 "
                           r"nodes"):
            apply_U(n, rho, jump, 0.3)
        assert [size for size, _ in built] == [80]
        assert 0 < built[0][1] <= n // 8


_RHOS = (1e-4, 0.1, 1.0, 10.0, 1e4, math.inf)


@functools.lru_cache(maxsize=None)
def _mp_monomial_images(n, rho):
    """The images of e_0 .. e_DEGREE_CAP in monomial form, in 40 digits.

    The derivative recurrence of the operator matrix replayed in mpmath
    on the float rho: the image of e_{m+1} is
    [r x(1-x) T' + (r n x + m w) T] / (n r + m w), with (r, w) = (rho, 1)
    or (1, 0) at rho = inf. x^j of T(e_m) feeds x^j with r j + m w and
    x^(j+1) with r (n - j), which vanishes at j = n.
    """
    import mpmath
    with mpmath.workdps(40):
        r, w = ((mpmath.mpf(1), 0) if rho == math.inf
                else (mpmath.mpf(rho), 1))
        cols = [[mpmath.mpf(1)]]
        for m in range(DEGREE_CAP):
            col = cols[-1]
            nxt = [mpmath.mpf(0)] * (len(col) + 1)
            for j, c in enumerate(col):
                nxt[j] += (r * j + m * w) * c
                nxt[j + 1] += r * (n - j) * c
            den = n * r + m * w
            cols.append([v / den for v in nxt[:n + 1]])
        return cols


def _mp_apply_U(n, rho, p, xs):
    """U_n^rho p at xs in 40 digits, from ``_mp_monomial_images``."""
    import mpmath
    cols = _mp_monomial_images(n, rho)
    with mpmath.workdps(40):
        img = [mpmath.mpf(0)] * len(cols[p.degree])
        for a, col in zip(p.coeffs, cols):
            for j, c in enumerate(col):
                img[j] += mpmath.mpf(float(a)) * c
        return np.array([float(mpmath.polyval(img[::-1], mpmath.mpf(x)))
                         for x in xs])


def _cofactors(rng):
    """The corpus pinned by x(1-x), and random coefficients in [-1, 1]
    at degree DEGREE_CAP and at a random lower degree."""
    out = {name: PSI * h for name, h in standard_corpus().items()}
    for deg in (DEGREE_CAP, int(rng.integers(6, DEGREE_CAP))):
        out[f"random{deg}"] = Polynomial(rng.uniform(-1.0, 1.0, deg + 1))
    return out


class TestApplyUMoments:
    # a handle that carries a polynomial takes the closed Beta moments

    @pytest.mark.parametrize("rho", [1e-4, 1.0, 10.0, 1e4, math.inf])
    def test_polynomial_handle_builds_no_rule(self, rho, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a polynomial handle reached the Beta rules")

        monkeypatch.setattr(operators, "_golub_welsch", forbidden)
        monkeypatch.setattr(operators, "_interior_stack", forbidden)
        xs = np.linspace(0.0, 1.0, 9)
        for n in (2, 16, 257):
            for h in standard_corpus().values():
                apply_U(n, rho, FunctionHandle.from_polynomial(PSI * h), xs)

    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_against_mpmath_reference(self, n, rng):
        # the forward error is bounded relative to sum |a_m|, the
        # conditioning floor of any route that reads monomial
        # coefficients: the moments add a few ulp of it and the blend
        # at most its n eps. Measured
        # at most 2.2e-16, 1.5e-16 and 4.2e-16 of sum |a_m| at n = 16,
        # 256 and 4096
        xs = np.array([0.0, 2.0 ** -20, 0.1, 0.37, 0.5, 0.83, 1.0])
        for rho in _RHOS:
            for name, p in _cofactors(rng).items():
                got = apply_U(n, rho, FunctionHandle.from_polynomial(p), xs)
                err = np.max(np.abs(got - _mp_apply_U(n, rho, p, xs)))
                assert err <= 1e-14 * np.sum(np.abs(p.coeffs)), (rho, name)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 4096])
    def test_sampling_and_endpoints_keep_their_bits(self, n, rng):
        # at rho = inf every ratio is k/n, the sampling node, and the
        # pass is Horner's scheme at it; k = 0 and k = n give p(0) and
        # p(1) at every rho. Only the opening c[-1] + x * 0 of Horner's
        # scheme differs, so the bits agree up to the sign of a zero.
        def bits(v):
            return [float(t + 0.0).hex() for t in np.atleast_1d(v)]

        xs = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 9)))
        for p in _cofactors(rng).values():
            got = apply_U(n, math.inf, FunctionHandle.from_polynomial(p), xs)
            assert bits(got) == bits(apply_U(n, math.inf, _bare(p), xs))
            for rho in _RHOS:
                c = operators._moment_coefficients(n, rho, p.coeffs)
                assert bits(c[[0, -1]]) == bits([poly_eval(p, 0.0),
                                                 poly_eval(p, 1.0)])

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_interior_coefficients_are_functional_moments(self, n, rng):
        # the product formula is the oracle of every interior
        # coefficient: sum_m a_m functional_moment(n, k, rho, m); measured
        # at most 1.0e-16 of sum |a_m|
        for rho in _RHOS:
            for name, p in _cofactors(rng).items():
                c = operators._moment_coefficients(n, rho, p.coeffs)
                want = [sum(a * functional_moment(n, k, rho, m)
                            for m, a in enumerate(p.coeffs))
                        for k in range(1, n)]
                err = np.max(np.abs(c[1:-1] - want), initial=0.0)
                assert err <= 1e-15 * np.sum(np.abs(p.coeffs)), (rho, name)

    @settings(max_examples=40)
    @given(n=st.integers(1, 64), rho=st.sampled_from(_RHOS),
           a=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=21))
    def test_moments_agree_with_the_rules(self, n, rho, a):
        # the rules of 20 nodes integrate degree 20 exactly, so the two
        # routes differ by rounding alone
        p = Polynomial(a)
        xs = np.linspace(0.0, 1.0, 9)
        got = apply_U(n, rho, FunctionHandle.from_polynomial(p), xs)
        want = apply_U(n, rho, _bare(p), xs)
        bound = 1e-12 * max(1.0, np.sum(np.abs(p.coeffs)))
        assert np.max(np.abs(got - want)) <= bound

    def test_overflowing_moments_are_named(self):
        # the values at both ends are finite; the moments of node 1
        # overflow
        p = Polynomial([1.7e308, 1.7e308, -1.7e308])
        with pytest.raises(ValueError, match=r"^interior functionals "
                           r"\(n=8, rho=1\.0\): the Beta moments of the "
                           r"polynomial are not finite at node k=1$"):
            apply_U(8, 1.0, FunctionHandle.from_polynomial(p), 0.5)
        # at n = 2 only the value at 1 overflows
        with pytest.raises(ValueError, match=r"^endpoint values "
                           r"\(n=2, rho=inf\): .* not finite at node k=2$"):
            apply_U(2, math.inf,
                    FunctionHandle.from_polynomial(Polynomial([1e308, 1e308])),
                    0.5)

    @pytest.mark.parametrize("rho", _RHOS)
    def test_bare_polynomial_is_read_as_its_handle(self, rho):
        # a bare Polynomial takes its handle's moments, bit for bit. As
        # a callable, cheb6 at (4096, 1) took 0.37 s in the Beta rules,
        # against 0.0034 s through the handle, and P_10 did not settle
        xs = np.linspace(0.0, 1.0, 33)
        for n, p in ((4096, PSI * standard_corpus()["cheb6"]),
                     (256, _psi_legendre10())):
            want = apply_U(n, rho, FunctionHandle.from_polynomial(p), xs)
            assert apply_U(n, rho, p, xs).tobytes() == want.tobytes()

    def test_bare_polynomial_builds_no_rule(self, monkeypatch):
        calls = []
        real = operators._golub_welsch

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(operators, "_golub_welsch", spy)
        for rho in _RHOS:
            apply_U(257, rho, PSI * standard_corpus()["cheb6"], 0.3)
        assert calls == []

    def test_ill_conditioned_input_returns_a_value(self):
        # x(1-x) P_10(2x - 1) in monomial form has sum |a_m| = 1.6e7 and
        # values below 0.25, so its values at the rule nodes carry
        # rounding errors near QUAD_TOL. The moments need no rule:
        # measured 9.2e-11 off the reference, 2.3e-9 of sup|U p|, 5.7e-18
        # of sum |a_m|. As a callable its 40- to 80-node gaps are
        # rounding near QUAD_TOL, so which way it goes turns on the last
        # bits of the rules. With these rules the largest gap over the
        # nodes the 40-node rules leave open is 9.8e-11 (k = 236), below
        # QUAD_TOL, so it settles, 1.8e-11 off the reference.
        p = _psi_legendre10()
        xs = np.linspace(0.0, 1.0, 33)
        want = _mp_apply_U(256, 1.0, p, xs)
        got = apply_U(256, 1.0, FunctionHandle.from_polynomial(p), xs)
        assert np.max(np.abs(got - want)) <= 3e-10
        bare = apply_U(256, 1.0, _bare(p), xs)
        assert np.max(np.abs(bare - want)) <= 3e-10


def _psi_legendre10():
    """x(1-x) P_10(2x - 1) in monomial form."""
    legendre = np.polynomial.Legendre.basis(10, domain=[0.0, 1.0])
    return PSI * Polynomial(legendre.convert(
        kind=np.polynomial.Polynomial).coef)


def _bernstein_basis_scalar_loop(n, x):
    """The degree-raising recurrence one element at a time (the oracle)."""
    x = np.asarray(x, dtype=float)
    one_minus = 1.0 - x
    b = np.zeros((n + 1,) + x.shape)
    b[0] = 1.0
    for m in range(1, n + 1):
        b[m] = x * b[m - 1]
        for k in range(m - 1, 0, -1):
            b[k] = x * b[k - 1] + one_minus * b[k]
        b[0] = one_minus * b[0]
    return b


class TestBernsteinBasis:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 62, 126, 254])
    def test_bit_identical_to_scalar_loop(self, n, rng):
        for x in (0.37, 0.0, 1.0, rng.uniform(0.0, 1.0, 13),
                  np.linspace(0.0, 1.0, 9), rng.uniform(0.0, 1.0, (4, 6))):
            got = bernstein_basis(n, x)
            want = _bernstein_basis_scalar_loop(n, x)
            assert got.shape == want.shape == (n + 1,) + np.shape(x)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_partition_of_unity(self):
        xs = np.linspace(0, 1, 23)
        b = bernstein_basis(9, xs)
        assert np.max(np.abs(b.sum(axis=0) - 1.0)) < 1e-14

    def test_matches_binomial_formula(self):
        n = 10
        xs = np.linspace(0, 1, 11)
        b = bernstein_basis(n, xs)
        for k in range(n + 1):
            want = math.comb(n, k) * xs ** k * (1 - xs) ** (n - k)
            assert np.max(np.abs(b[k] - want)) < 1e-13


def _mp_bernstein_sum(mpmath, c, x):
    """The Bernstein sum of c at x in 30 digits, by the binomial pmf
    ratio recurrence from the nearer end."""
    n = len(c) - 1
    with mpmath.workdps(30):
        t = mpmath.mpf(x)
        if t > 0.5:
            c, t = c[::-1], 1 - t
        term = (1 - t) ** n
        total = 0
        for k in range(n + 1):
            total += c[k] * term
            term *= (n - k) * t / ((k + 1) * (1 - t))
        return float(total)


class TestBernsteinSum:
    @pytest.mark.parametrize("n", [0, 1, 5, 62])
    def test_elementwise_on_any_shape(self, n, rng):
        c = rng.uniform(-1.0, 1.0, n + 1)
        for x in (0.37, rng.uniform(0.0, 1.0, 13),
                  rng.uniform(0.0, 1.0, (max(n - 1, 1), 3)),
                  rng.uniform(0.0, 1.0, (2, 3, 4))):
            got = _bernstein_sum(c, x)
            assert got.shape == np.shape(x)
            want = c @ bernstein_basis(n, np.ravel(x))
            assert np.max(np.abs(np.ravel(got) - want)) < 1e-15

    def test_blocks_agree_with_one_block(self, monkeypatch, rng):
        c = rng.uniform(-1.0, 1.0, 17)
        x = rng.uniform(0.0, 1.0, (7, 5))
        whole = _bernstein_sum(c, x)
        # 100 floats of basis: five points to a block
        monkeypatch.setattr(operators, "_BERNSTEIN_BLOCK", 100)
        assert np.max(np.abs(_bernstein_sum(c, x) - whole)) < 1e-15

    def test_memory_is_bounded_by_the_block(self, rng):
        # the basis of all 400000 points would hold 54 MB; measured
        # peak 9.4 MB, the result array included
        c = rng.uniform(-1.0, 1.0, 17)
        x = rng.uniform(0.0, 1.0, (8000, 50))
        tracemalloc.start()
        try:
            _bernstein_sum(c, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("n", [62, 255, 1024, 4096])
    def test_against_mpmath_reference(self, n, rng):
        # measured 3.1e-16, 4.9e-16, 5.7e-15 and 2.9e-14 of max|c|: the
        # cumulative log sum loses about n eps, where de Casteljau stays
        # near 2e-16
        import mpmath
        c = rng.uniform(-1.0, 1.0, n + 1)
        xs = np.concatenate(([0.0, 1.0, 0.5, 1e-300, 2.0 ** -53,
                              1.0 - 2.0 ** -53], rng.uniform(0.0, 1.0, 6)))
        want = [_mp_bernstein_sum(mpmath, c, x) for x in xs]
        err = np.max(np.abs(_bernstein_sum(c, xs) - want))
        assert err < 1e-13 * np.max(np.abs(c))

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 4096])
    def test_interpolates_the_ends_bit_for_bit(self, n, rng):
        c = rng.uniform(-1.0, 1.0, n + 1)
        got = _bernstein_sum(c, np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(got, [c[0], c[-1], c[0]])
        if n == 0:
            x = rng.uniform(0.0, 1.0, (3, 4))
            assert np.array_equal(_bernstein_sum(c, x), np.full(x.shape, c[0]))

    @settings(max_examples=60)
    @given(n=st.integers(1, 4096),
           a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
           x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_reproduces_linear_functions(self, n, a, b, x):
        # the defining identity of the family: the blend of
        # c_k = a + b k/n is a + b x, and the blend of ones is one;
        # measured below 7.4e-15 (|a| + |b|). The smallest normal float
        # is added to the bound because products below it round to
        # multiples of 5e-324.
        x = np.array(x)
        c = a + b * np.arange(n + 1) / n
        err = np.max(np.abs(_bernstein_sum(c, x) - (a + b * x)))
        assert err <= 1e-13 * (abs(a) + abs(b)) + np.finfo(float).tiny
        unity = np.max(np.abs(_bernstein_sum(np.ones(n + 1), x) - 1.0))
        assert unity <= 1e-13

    def test_library_paths_never_build_the_basis(self, monkeypatch):
        # bernstein_basis is the oracle only: apply_U and a summed
        # transfer series blend through _bernstein_sum alone
        calls = []
        real = operators.bernstein_basis

        def spy(n, x):
            calls.append(n)
            return real(n, x)

        monkeypatch.setattr(operators, "bernstein_basis", spy)
        xs = np.linspace(0.0, 1.0, 17)
        apply_U(64, 1.0, FunctionHandle.from_callable(np.cos), xs)
        apply_U(64, math.inf, FunctionHandle.from_callable(np.cos), xs)
        apply_series(64, 1.0, C0Function(np.cos)).h(xs)
        apply_series(64, math.inf, C0Function(np.cos)).h(xs)
        assert calls == []


class TestSettle:
    def test_items_keep_the_first_agreeing_rung(self):
        # item 0 agrees at the second rung, item 1 at the third; only
        # open items are asked for the next rung
        table = {10: [1.0, 5.0], 20: [1.0 + 1e-12, 4.0], 40: [9.0, 4.0]}
        asked = []

        def values(size, idx):
            asked.append((size, np.arange(2)[idx].tolist()))
            return np.asarray(table[size])[idx]

        got = _settle(values, (10, 20, 40), str, "Test")
        assert got.tolist() == [1.0 + 1e-12, 4.0]
        assert asked == [(10, [0, 1]), (20, [0, 1]), (40, [1])]

    def test_open_item_names_where_and_both_sizes(self):
        with pytest.raises(ValueError, match=r"^item 1: the 20- and 40-node "
                           r"Test rules differ by 0\.5, more than QUAD_TOL"):
            _settle(lambda size, idx: np.array([1.0, size / 40.0])[idx],
                    (20, 40), lambda i: f"item {i}", "Test")


class TestBernstein:
    # the Bernstein operator is the member rho = inf of the family

    def test_small_oracle(self):
        p = apply_U_poly(2, math.inf, Polynomial([0.0, 0.0, 1.0]))
        assert np.max(np.abs(p.padded(3) - [0.0, 0.5, 0.5])) < 1e-15

    def test_reproduces_affine(self):
        affine = Polynomial([2.0, -3.0])
        p = apply_U_poly(8, math.inf, affine)
        assert np.max(np.abs((p - affine).coeffs)) < 1e-13

    def test_polynomial_and_sampling_routes_agree(self, rng):
        # the monomial matrix against the blend of samples at k/n
        n = 9
        xs = np.linspace(0.0, 1.0, 17)
        for _ in range(8):
            p = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 8))))
            via_poly = poly_eval(apply_U_poly(n, math.inf, p), xs)
            via_vals = apply_U(n, math.inf, _bare(p), xs)
            assert np.max(np.abs(via_poly - via_vals)) < 1e-12

    def test_sampling_block_against_mpmath_reference(self):
        # at rho = inf the recurrence gives the Bernstein images of
        # e_0 .. e_d, whose coefficient of x^j is S(m, j) n!/(n-j)! / n^m
        # (S the Stirling numbers of the second kind) for j <= min(n, m);
        # measured at most 5.6e-16, at (5, 60)
        import mpmath
        for n in (5, 60):
            for d in (3, 12, 60):
                got = _leading_block(n, math.inf, d)
                want = np.zeros((min(n, d) + 1, d + 1))
                with mpmath.workdps(30):
                    for m in range(d + 1):
                        for j in range(min(n, m) + 1):
                            want[j, m] = float(mpmath.stirling2(m, j)
                                               * mpmath.ff(n, j)
                                               / mpmath.mpf(n) ** m)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1.2e-15

    def test_interpolates_endpoints(self):
        fn = FunctionHandle.from_callable(lambda x: np.sin(2.5 * x) + 1.0)
        assert abs(apply_U(12, math.inf, fn, 0.0) - 1.0) < 1e-11
        assert abs(apply_U(12, math.inf, fn, 1.0)
                   - (math.sin(2.5) + 1.0)) < 1e-11


class TestCentralMoment:
    def test_orders_zero_one(self):
        assert central_moment(6, 1.2, 0.4, 0) == 1.0
        assert abs(central_moment(6, 1.2, 0.4, 1)) < 1e-16

    def test_frozen_oracles(self):
        assert abs(central_moment(4, 2.0, 0.5, 2) - 1.0 / 12.0) < 1e-16
        assert abs(central_moment(2, 1.0, 0.5, 4) - 3.0 / 80.0) < 1e-16

    def test_matches_matrix_route(self):
        n, rho, y = 6, 0.7, 0.3
        for r in range(5):
            p = Polynomial(npoly.polypow([-y, 1.0], r))
            got = poly_eval(apply_U_poly(n, rho, p), y)
            want = central_moment(n, rho, y, r)
            assert abs(got - want) < 1e-13

    def test_order_validation(self):
        with pytest.raises(ValueError):
            central_moment(6, 1.0, 0.5, 5)

    def test_one_point(self):
        # an array failed in numpy's truth test; points outside [0, 1]
        # are in test_evaluation_points_outside_the_interval_raise
        with pytest.raises(ValueError, match="y must be one point, got 2"):
            central_moment(8, 1.0, np.array([0.2, 0.4]), 2)
        assert central_moment(8, 1.0, 1.0, 2) == 0.0


@pytest.mark.parametrize("j", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call, name", [
    (lambda j: central_moment(8, 1.0, 0.3, j), "order"),
    (lambda j: u_matrix_leading_block(8, 1.0, j), "block size"),
], ids=["central_moment", "u_matrix_leading_block"])
def test_one_message_for_a_bad_operator_index(call, name, j):
    # an order or block size is an integer (Python or numpy, not a
    # bool), checked by the package's one index check; 2.5 used to give
    # another order's value or a TypeError, and True passed as 1
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer of at least 0, "
                             f"got {j}$"):
        call(j)
    assert np.array_equal(call(np.int64(2)), call(2))


class TestNormAndSizes:
    def test_u_norm0_oracle(self):
        assert u_norm0(3, 1.0) == 0.5

    def test_u_norm0_equals_second_eigenvalue(self):
        for n, rho in ((2, 0.5), (17, 3.0), (30, 0.1)):
            assert abs(u_norm0(n, rho) - eigenvalue(n, rho, 2)) < 1e-16
