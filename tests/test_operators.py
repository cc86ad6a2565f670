"""Quadrature rules, operator matrices, pointwise application, moments."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from bernseries import (
    PSI,
    FunctionHandle,
    Polynomial,
    QuadratureRule,
    UOperatorMatrix,
    apply_F,
    apply_U,
    apply_U_poly,
    bernstein,
    bernstein_basis,
    build_u_matrix,
    central_moment,
    eigenvalue,
    functional_moment,
    poly_eval,
    u_matrix_leading_block,
    u_norm0,
)
from bernseries.operators import _cached_beta_rule, _leading_block


class TestQuadratureRule:
    def test_basic_shape_and_weights(self):
        q = QuadratureRule.beta_rule(0.5, 1.5, 12)
        assert q.size == 12
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
        assert q.size == 1
        assert abs(q.nodes[0] - 0.5) < 1e-14

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            QuadratureRule.beta_rule(-1.0, 0.0, 4)

    def test_dense_eigh_matches_tridiagonal_solver(self):
        # the Jacobi matrix handed to scipy's tridiagonal eigensolver
        # gives bit-identical rules for every alpha <= beta shape the
        # operators build
        linalg = pytest.importorskip("scipy.linalg")

        def tridiagonal_rule(alpha, beta, size):
            A, B = float(beta), float(alpha)
            k = np.arange(1, size, dtype=float)
            s = 2.0 * k + A + B
            diag = np.empty(size)
            diag[0] = (B - A) / (A + B + 2.0)
            diag[1:] = (B * B - A * A) / (s * (s + 2.0))
            off = np.empty(size - 1)
            off[0] = (4.0 * (1.0 + A) * (1.0 + B)
                      / ((A + B + 2.0) ** 2 * (A + B + 3.0)))
            kk, sk = k[1:], s[1:]
            off[1:] = (4.0 * kk * (kk + A) * (kk + B) * (kk + A + B)
                       / (sk * sk * (sk + 1.0) * (sk - 1.0)))
            nodes_u, vecs = linalg.eigh_tridiagonal(diag, np.sqrt(off))
            return (nodes_u + 1.0) / 2.0, vecs[0, :] ** 2

        shapes = [(-0.5, -0.5, 6), (0.5, 1.5, 12), (-0.9, 11.7, 133)]
        for n in (5, 16, 33, 64):
            for rho in (0.1, 1.0, 10.0):
                shapes += [(k * rho - 1.0, (n - k) * rho - 1.0,
                            max(20, n + 5)) for k in range(1, n // 2 + 1)]
        for alpha, beta, size in shapes:
            q = QuadratureRule.beta_rule(alpha, beta, size)
            nodes, weights = tridiagonal_rule(alpha, beta, size)
            assert np.array_equal(q.nodes, nodes)
            assert np.array_equal(q.weights, weights)


class TestMirroredRules:
    SHAPES = [(11.7, -0.9, 133), (2.5, 0.3, 20), (29.0, 9.0, 69),
              (599.0, 19.0, 69)]

    def test_reflects_the_swapped_rule(self):
        for alpha, beta, size in self.SHAPES:
            q = _cached_beta_rule(alpha, beta, size)
            m = _cached_beta_rule(beta, alpha, size)
            assert (q.alpha, q.beta) == (alpha, beta)
            assert np.array_equal(q.nodes, 1.0 - m.nodes[::-1])
            assert np.array_equal(q.weights, m.weights[::-1])
            direct = QuadratureRule.beta_rule(alpha, beta, size)
            assert np.max(np.abs(q.nodes - direct.nodes)) < 1e-12
            assert np.max(np.abs(q.weights - direct.weights)) < 1e-12

    def test_against_mpmath_reference(self):
        # Gauss-Jacobi nodes refined by one Newton step on P_N^(a,b) in
        # 30 digits (the float nodes are right to about 1e-16), weights
        # from 1 / ((1 - u^2) P_N'(u)^2) normalized
        mpmath = pytest.importorskip("mpmath")
        alpha, beta, size = 11.7, -0.9, 133
        q = _cached_beta_rule(alpha, beta, size)
        nodes, weights = [], []
        with mpmath.workdps(30):
            a, b = mpmath.mpf(beta), mpmath.mpf(alpha)
            steps = []
            for k in range(2, size + 1):
                c = 2 * k + a + b
                den = 2 * k * (k + a + b) * (c - 2)
                steps.append(((c - 1) * c * (c - 2) / den,
                              (c - 1) * (a * a - b * b) / den,
                              2 * (k + a - 1) * (k + b - 1) * c / den))

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

            for t in q.nodes:
                u = 2 * mpmath.mpf(float(t)) - 1
                p, dp = jacobi(u)
                u -= p / dp
                nodes.append((u + 1) / 2)
                weights.append(1 / ((1 - u * u) * jacobi(u)[1] ** 2))
            total = mpmath.fsum(weights)
            nodes = np.array([float(t) for t in nodes])
            weights = np.array([float(w / total) for w in weights])
        assert np.max(np.abs(q.nodes - nodes)) < 1e-15
        # measured 5.4e-13 at the largest weight (1.8e-13 for the
        # direct rule)
        assert np.max(np.abs(q.weights - weights)) < 1e-12


class TestFunctionalMoment:
    def test_trivial_orders(self):
        assert functional_moment(6, 2, 1.3, 0) == 1.0
        for n, k in ((6, 2), (9, 5)):
            assert abs(functional_moment(n, k, 1.0, 1) - k / n) < 1e-15

    def test_oracle(self):
        assert abs(functional_moment(2, 1, 1.0, 2) - 1.0 / 3.0) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            functional_moment(4, 0, 1.0, 2)
        with pytest.raises(ValueError):
            functional_moment(4, 4, 1.0, 2)
        with pytest.raises(ValueError):
            functional_moment(4, 1, -1.0, 2)


class TestApplyF:
    def test_oracle(self):
        q = QuadratureRule.beta_rule(0.0, 0.0, 6)  # n=2, k=1, rho=1
        f = FunctionHandle.from_polynomial(Polynomial([0.0, 0.0, 1.0]))
        assert abs(apply_F(2, 1, 1.0, f, q) - 1.0 / 3.0) < 1e-14

    def test_rejects_mismatched_rule(self):
        q = QuadratureRule.beta_rule(0.0, 0.0, 6)
        f = FunctionHandle.from_polynomial(PSI)
        with pytest.raises(ValueError):
            apply_F(3, 1, 1.0, f, q)  # wants exponents (0, 1)


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
            M = build_u_matrix(n, rho).M
            e0 = np.zeros(n + 1)
            e0[0] = 1.0
            e1 = np.zeros(n + 1)
            e1[1] = 1.0
            assert np.array_equal(M[:, 0], e0)
            assert np.array_equal(M[:, 1], e1)

    def test_small_oracle(self):
        # image of the second monomial at n=2, rho=1: (2 e_1 + e_2) / 3
        M = build_u_matrix(2, 1.0).M
        assert np.max(np.abs(M[:, 2] - [0.0, 2 / 3, 1 / 3])) < 1e-15

    def test_diagonal_is_eigenvalue_sequence(self):
        for n, rho in ((8, 0.5), (30, 0.1), (25, 10.0)):
            M = build_u_matrix(n, rho).M
            lam = [eigenvalue(n, rho, j) for j in range(n + 1)]
            assert np.max(np.abs(np.diag(M) - lam)) < 1e-14

    def test_upper_triangular(self):
        M = build_u_matrix(9, 0.7).M
        assert np.max(np.abs(np.tril(M, -1))) == 0.0

    def test_leading_block_consistent_with_full(self):
        n, rho, d = 14, 1.7, 6
        full = build_u_matrix(n, rho).M
        block = u_matrix_leading_block(n, rho, d)
        assert np.max(np.abs(full[: d + 1, : d + 1] - block)) < 1e-14

    def test_two_assembly_routes_agree(self):
        # derivative recurrence vs naive conversion through the node
        # basis; the latter is the independent oracle at small n
        for n in (4, 8, 12):
            for rho in (0.1, 0.5, 1.0, 2.0, 10.0):
                A = build_u_matrix(n, rho).M
                B = _u_matrix_from_moments(n, rho)
                assert np.max(np.abs(A - B)) < 1e-10

    def test_constructor_validates(self):
        M = build_u_matrix(4, 1.0).M.copy()
        M[0, 1] = 0.5  # column 1 no longer reproduces the identity
        with pytest.raises(ValueError):
            UOperatorMatrix(4, 1.0, M)
        with pytest.raises(ValueError):
            build_u_matrix(61, 1.0)
        with pytest.raises(ValueError):
            build_u_matrix(0, 1.0)


class TestApplyUPoly:
    def test_weight_is_eigenfunction(self):
        mat = build_u_matrix(3, 1.0)
        img = apply_U_poly(mat, PSI)
        assert np.max(np.abs((img - PSI * 0.5).padded(3))) < 1e-15

    def test_degree_check(self):
        mat = build_u_matrix(3, 1.0)
        with pytest.raises(ValueError):
            apply_U_poly(mat, Polynomial([0.0, 0.0, 0.0, 0.0, 1.0]))

    def test_pointwise_oracle(self):
        mat = build_u_matrix(2, 1.0)
        img = apply_U_poly(mat, Polynomial([0.0, 0.0, 1.0]))
        assert abs(poly_eval(img, 0.5) - 5.0 / 12.0) < 1e-15


class TestApplyU:
    def test_agrees_with_matrix_route(self, rng):
        n, rho = 6, 0.5
        mat = build_u_matrix(n, rho)
        xs = np.linspace(0, 1, 17)
        for _ in range(10):
            p = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, n + 2))))
            f = FunctionHandle.from_polynomial(p)
            want = poly_eval(apply_U_poly(mat, p), xs)
            got = apply_U(n, rho, f, xs)
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
        # so every rule of the call is cold. Rules have n + 5 nodes,
        # and no fewer than 20.
        built = []
        original = QuadratureRule.beta_rule.__func__

        def counting(cls, alpha, beta, size):
            built.append((alpha, beta, size))
            return original(cls, alpha, beta, size)

        monkeypatch.setattr(QuadratureRule, "beta_rule", classmethod(counting))
        apply_U(n, 0.8125 + n / 1024, FunctionHandle.from_callable(np.cos),
                0.3)
        assert len(built) == n // 2
        assert all(alpha <= beta for alpha, beta, _ in built)
        assert {size for _, _, size in built} == {max(20, n + 5)}

    @pytest.mark.parametrize("n", [80, 128])
    def test_weight_underflow_still_raises(self, n):
        f = FunctionHandle.from_callable(np.sin)
        with pytest.raises(ValueError, match="weights must be positive"):
            apply_U(n, 10.0, f, 0.5)


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


class TestBernstein:
    def test_small_oracle(self):
        p = bernstein(2, FunctionHandle.from_polynomial(
            Polynomial([0.0, 0.0, 1.0])))
        assert np.max(np.abs(p.padded(3) - [0.0, 0.5, 0.5])) < 1e-15

    def test_reproduces_affine(self):
        p = bernstein(8, FunctionHandle.from_polynomial(Polynomial([2.0, -3.0])))
        assert np.max(np.abs(p.padded(2) - [2.0, -3.0])) < 1e-13

    def test_polynomial_and_sampling_routes_agree(self, rng):
        n = 9
        for _ in range(8):
            p = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 8))))
            via_poly = bernstein(n, FunctionHandle.from_polynomial(p))
            via_vals = bernstein(
                n, FunctionHandle.from_callable(lambda x, _p=p: poly_eval(_p, x))
            )
            m = max(via_poly.degree, via_vals.degree) + 1
            assert np.max(np.abs(via_poly.padded(m) - via_vals.padded(m))) \
                < 1e-12

    def test_sampling_block_against_mpmath_reference(self):
        # at rho = inf the recurrence gives the Bernstein images of
        # e_0 .. e_d, whose coefficient of x^j is S(m, j) n!/(n-j)! / n^m
        # (S the Stirling numbers of the second kind) for j <= min(n, m);
        # measured at most 5.6e-16, at (5, 60)
        mpmath = pytest.importorskip("mpmath")
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
        p = bernstein(12, fn)
        assert abs(poly_eval(p, 0.0) - 1.0) < 1e-11
        assert abs(poly_eval(p, 1.0) - (math.sin(2.5) + 1.0)) < 1e-11


class TestCentralMoment:
    def test_orders_zero_one(self):
        assert central_moment(6, 1.2, 0.4, 0) == 1.0
        assert abs(central_moment(6, 1.2, 0.4, 1)) < 1e-16

    def test_frozen_oracles(self):
        assert abs(central_moment(4, 2.0, 0.5, 2) - 1.0 / 12.0) < 1e-16
        assert abs(central_moment(2, 1.0, 0.5, 4) - 3.0 / 80.0) < 1e-16

    def test_matches_matrix_route(self):
        n, rho, y = 6, 0.7, 0.3
        mat = build_u_matrix(n, rho)
        for r in range(5):
            p = Polynomial(npoly.polypow([-y, 1.0], r))
            got = poly_eval(apply_U_poly(mat, p), y)
            want = central_moment(n, rho, y, r)
            assert abs(got - want) < 1e-13

    def test_order_validation(self):
        with pytest.raises(ValueError):
            central_moment(6, 1.0, 0.5, 5)


class TestNormAndSizes:
    def test_u_norm0_oracle(self):
        assert u_norm0(3, 1.0) == 0.5

    def test_u_norm0_equals_second_eigenvalue(self):
        for n, rho in ((2, 0.5), (17, 3.0), (30, 0.1)):
            assert abs(u_norm0(n, rho) - eigenvalue(n, rho, 2)) < 1e-16
