"""Limit differential operator, its negated inverse, series residuals."""

import numpy as np
import pytest

from bernseries import (
    DEGREE_CAP,
    PSI,
    C0Function,
    FunctionHandle,
    Polynomial,
    apply_A_rho,
    check_bound,
    convergence_table,
    f_infty,
    f_infty_polynomial,
    inverse_neg,
    inverse_neg_polynomial,
    inverse_norm_check,
    limit_dual,
    poly_eval,
    residual_H,
    standard_corpus,
)

XS = np.linspace(0.0, 1.0, 41)


class TestContext:
    def test_validation(self):
        # rho is the whole context of the limit inverse
        f = C0Function(Polynomial([1.0]))
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError, match="rho"):
                apply_A_rho(rho, PSI)
            with pytest.raises(ValueError, match="rho"):
                inverse_neg(rho, f, XS)
            with pytest.raises(ValueError, match="rho"):
                inverse_neg_polynomial(rho, f)
            with pytest.raises(ValueError, match="rho"):
                inverse_norm_check(rho, f)


class TestApplyARho:
    def test_weight_image(self):
        # second derivative of x - x^2 is -2, so the image cofactor is
        # -(rho + 1) / rho
        for rho in (0.5, 1.0, 3.0):
            img = apply_A_rho(rho, PSI)
            want = -(rho + 1.0) / rho
            assert np.max(np.abs(np.asarray(img.h(XS)) - want)) == 0.0

    def test_limit_eigen_action(self):
        # the degree-4 limit eigenpolynomial is mapped to its limit
        # eigenvalue multiple
        from bernseries import limit_eigenpoly, limit_eigenvalue

        rho, j = 1.7, 4
        p = limit_eigenpoly(j)
        img = apply_A_rho(rho, p)
        want = limit_eigenvalue(rho, j) * poly_eval(p, XS)
        assert np.max(np.abs(img(XS) - want)) < 1e-12

    def test_zero(self):
        img = apply_A_rho(1.0, Polynomial([0.0]))
        assert np.max(np.abs(img(XS))) == 0.0

    def test_rejects_unpinned(self):
        with pytest.raises(ValueError):
            apply_A_rho(1.0, Polynomial([0.0, 0.0, 1.0]))


class TestFInfty:
    def test_constant_cofactor(self):
        # h = 1 integrates to half the weight
        got = f_infty(FunctionHandle.from_polynomial(Polynomial([1.0])), XS)
        want = 0.5 * XS * (1.0 - XS)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_midpoint_oracle(self):
        # h(t) = t gives value 1/16 at x = 1/2
        got = f_infty(FunctionHandle.from_polynomial(
            Polynomial([0.0, 1.0])), 0.5)
        assert abs(got - 1.0 / 16.0) < 1e-15

    def test_vanishes_at_endpoints(self):
        h = FunctionHandle.from_polynomial(Polynomial([1.0, -3.0, 2.0]))
        assert f_infty(h, 0.0) == 0.0
        assert f_infty(h, 1.0) == 0.0

    def test_generic_route_matches_polynomial(self):
        p = Polynomial([0.0, 0.0, 0.0, 0.0, 1.0])
        a = f_infty(FunctionHandle.from_polynomial(p), XS)
        b = f_infty(FunctionHandle.from_callable(
            lambda t: np.asarray(t) ** 4), XS)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_callable_against_mpmath_reference(self):
        # both pieces integrated in 30 digits; measured 7e-17
        import mpmath
        xs = np.linspace(0.0, 1.0, 9)
        got = f_infty(FunctionHandle.from_callable(np.cos), xs)
        with mpmath.workdps(30):
            want = np.array([float(
                (1 - x) * mpmath.quad(lambda t: t * mpmath.cos(t), [0, x])
                + x * mpmath.quad(lambda t: (1 - t) * mpmath.cos(t), [x, 1]))
                for x in map(mpmath.mpf, xs)])
        assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("h", [
        lambda t: np.abs(np.asarray(t) - 0.5),
        lambda t: np.sqrt(np.abs(np.asarray(t) - 0.5)),
    ], ids=["kink", "holder"])
    def test_callable_kink_raises_naming_point_and_sizes(self, h):
        # the 32- and 64-node values differ by 2.5e-5 (kink) and 2.6e-4
        # (Holder) at x = 1/4. At x = 0 and 1 the
        # kernel vanishes and the values pass.
        handle = FunctionHandle.from_callable(h)
        with pytest.raises(ValueError,
                           match=r"x=0\.25: the 32- and 64-node Legendre"):
            f_infty(handle, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(f_infty(handle, [0.0, 1.0]), [0.0, 0.0])
        with pytest.raises(ValueError, match="x=0.75"):
            inverse_neg(1.0, C0Function(handle), 0.75)


    def test_polynomial_against_mpmath_reference(self):
        # y = sum h_i (x - x^(i+2)) / ((i+1)(i+2)) in 30 digits, on the
        # corpus and one random cofactor of each degree 0-60. The bound
        # is 2 eps times the sum of |h_i| / ((i+1)(i+2)): the worst
        # measured is 0.9 of it, and the expanded piecewise form this
        # replaced reached 2.6 (1.0 on cheb6, at 1.5e-13).
        import mpmath
        rng = np.random.default_rng(1406)
        cases = list(standard_corpus().values()) + [
            Polynomial(rng.uniform(-1.0, 1.0, size=d + 1))
            for d in range(DEGREE_CAP + 1)]
        xs = np.linspace(0.0, 1.0, 33)
        for h in cases:
            i = np.arange(h.degree + 1)
            scale = np.sum(np.abs(h.coeffs) / ((i + 1.0) * (i + 2.0)))
            with mpmath.workdps(30):
                c = [mpmath.mpf(float(v)) for v in h.coeffs]
                want = np.array([float(mpmath.fsum(
                    ci * (x - x ** (k + 2)) / ((k + 1) * (k + 2))
                    for k, ci in enumerate(c)))
                    for x in map(mpmath.mpf, xs)])
            got = f_infty(h, xs)
            assert got[0] == 0.0 and got[-1] == 0.0
            bound = 2.0 * np.finfo(float).eps * scale
            assert np.max(np.abs(got - want)) <= bound


class TestFInftyPolynomial:
    def test_second_derivative_recovers_negated_input(self, rng):
        # the global form satisfies F'' = -h, which pins it uniquely
        # together with the endpoint zeros
        for _ in range(10):
            h = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 9))))
            F = f_infty_polynomial(h)
            r = F.derivative().derivative() + h
            assert np.max(np.abs(r.padded(h.degree + 1))) < 1e-12

    @pytest.mark.parametrize("degree", [59, 60])
    def test_degree_above_the_cap_minus_two_raises(self, degree):
        h = Polynomial([0.0] * degree + [1.0])
        with pytest.raises(ValueError, match=(
                f"cofactor degree {degree}: .* exceed DEGREE_CAP = 60")):
            f_infty_polynomial(h)
        with pytest.raises(ValueError, match=f"cofactor degree {degree}"):
            inverse_neg_polynomial(1.0, C0Function(h))
        assert f_infty_polynomial(Polynomial([0.0] * 58 + [1.0])).degree == 60

    def test_endpoints_vanish(self, rng):
        for _ in range(5):
            h = Polynomial(rng.uniform(-1, 1, size=6))
            F = f_infty_polynomial(h)
            assert abs(poly_eval(F, 0.0)) < 1e-15
            assert abs(poly_eval(F, 1.0)) < 1e-14


class TestInverse:
    def test_weight_eigen_relation(self):
        # -inverse of the weight is rho/(rho+1) times the weight
        for rho in (0.5, 1.0, 5.0):
            f = C0Function(Polynomial([1.0]))
            got = inverse_neg(rho, f, XS)
            want = (rho / (rho + 1.0)) * XS * (1.0 - XS)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_round_trip(self, make_cofactor):
        # applying the limit operator to the negated inverse returns -f
        rho = 1.3
        for _ in range(6):
            h = make_cofactor(max_deg=6)
            f = C0Function(h)
            Fp = inverse_neg_polynomial(rho, f)
            back = apply_A_rho(rho, Fp)
            want = -poly_eval(PSI * h, XS)
            assert np.max(np.abs(back(XS) - want)) < 1e-9

    def test_polynomial_route_requires_coefficients(self):
        f = C0Function(lambda x: np.asarray(x) + 1.0)
        with pytest.raises(ValueError):
            inverse_neg_polynomial(1.0, f)


class TestInverseNormCheck:
    def test_equality_on_weight(self):
        # the weight attains the bound exactly, at the midpoint
        for rho in (0.5, 1.0, 3.0):
            lhs, rhs = inverse_norm_check(rho, C0Function(Polynomial([1.0])))
            assert abs(lhs - rhs) < 1e-10

    def test_bound_holds_generally(self, make_cofactor):
        for _ in range(8):
            f = C0Function(make_cofactor(max_deg=8))
            lhs, rhs = inverse_norm_check(2.0, f)
            assert lhs <= rhs + 1e-10

    def test_callable_matches_polynomial(self):
        # both take the sup of inverse_neg: polynomial cofactors through
        # the double antiderivative, callables through the quadrature
        # form; measured 7.7e-16 relative
        h = Polynomial([1.0, -2.0, 0.5, 3.0])
        for rho in (0.5, 4.0):
            want = inverse_norm_check(rho, C0Function(h))
            got = inverse_norm_check(
                rho, C0Function(lambda x: poly_eval(h, x)))
            assert abs(got[0] - want[0]) < 1e-12 * want[0]
            assert abs(got[1] - want[1]) < 1e-12 * want[1]


class TestResidual:
    def test_constant_cofactor_vanishes(self):
        # both routes act on the weight by the same factor, so the
        # residual is pure truncation noise
        for n, rho in ((2, 0.5), (7, 10.0)):
            r = residual_H(n, rho, Polynomial([1.0]), XS)
            assert np.max(np.abs(r)) <= 2e-9

    def test_zero_cofactor(self):
        r = residual_H(5, 1.0, Polynomial([0.0]), XS)
        assert np.max(np.abs(r)) == 0.0

    def test_tolerance_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            residual_H(8, 1.0, Polynomial([1.0]), XS, tol=1e-10)

    def test_scalar_matches_array(self):
        h = Polynomial([1.0, 1.0])
        v = residual_H(6, 1.0, h, 0.3)
        vs = residual_H(6, 1.0, h, np.array([0.3]))
        assert isinstance(v, float)
        assert abs(v - vs[0]) == 0.0

    def test_shrinks_with_n(self):
        h = Polynomial([1.0, 2.0, -1.0])
        xs = np.linspace(0, 1, 65)
        sups = [np.max(np.abs(residual_H(n, 1.0, h, xs))) for n in (8, 32)]
        assert sups[1] < 0.5 * sups[0]


class TestCofactorsAtTheDegreeCap:
    # cofactors of degree 58-60 go through every entry point and agree
    # with the callable route; measured at most 2.5e-16 apart
    @pytest.fixture(params=[58, 59, 60])
    def pair(self, request):
        rng = np.random.default_rng(request.param)
        h = Polynomial(rng.uniform(-1.0, 1.0, size=request.param + 1))
        assert h.degree == request.param
        return h, (lambda x, _h=h: poly_eval(_h, x))

    def test_residual(self, pair):
        h, g = pair
        xs = np.linspace(0.0, 1.0, 33)
        a, b = residual_H(256, 1.0, h, xs), residual_H(256, 1.0, g, xs)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_check_bound(self, pair):
        a, b = (check_bound(h, 64, 1.0) for h in pair)
        assert np.max(np.abs(a.lhs - b.lhs)) < 1e-14
        assert np.array_equal(a.rhs, b.rhs)
        assert a.satisfied and b.satisfied

    def test_convergence_table(self, pair):
        a, b = (convergence_table(h, 0.5, [16, 64]) for h in pair)
        for ra, rb in zip(a, b):
            assert abs(ra.sup_h - rb.sup_h) < 1e-14
            assert ra.sup_rhs == rb.sup_rhs

    def test_inverse_norm_check(self, pair):
        a, b = (inverse_norm_check(2.0, C0Function(h)) for h in pair)
        assert abs(a[0] - b[0]) < 1e-14
        assert a[0] <= a[1]


_HANDLE = FunctionHandle.from_callable(np.cos)
_POLY = Polynomial([0.5, -1.0, 2.0])


@pytest.mark.parametrize("call, same_as", [
    (lambda: f_infty(np.cos, 0.5), lambda: f_infty(_HANDLE, 0.5)),
    (lambda: f_infty(_POLY, 0.5),
     lambda: f_infty(FunctionHandle.from_polynomial(_POLY), 0.5)),
    (lambda: limit_dual(2, np.cos), lambda: limit_dual(2, _HANDLE)),
    (lambda: limit_dual(3, _POLY),
     lambda: limit_dual(3, FunctionHandle.from_polynomial(_POLY))),
    (lambda: inverse_neg(1.0, _POLY, 0.5), TypeError),
    (lambda: inverse_neg_polynomial(1.0, _POLY), TypeError),
    (lambda: inverse_norm_check(1.0, _POLY), TypeError),
], ids=["f_infty-callable", "f_infty-polynomial", "limit_dual-callable",
        "limit_dual-polynomial", "inverse_neg", "inverse_neg_polynomial",
        "inverse_norm_check"])
def test_input_kinds(call, same_as):
    # bare cofactors are wrapped where a cofactor is asked for; a bare
    # cofactor where a pinned function is asked for is a TypeError
    if same_as is TypeError:
        with pytest.raises(TypeError, match="f must be a C0Function"):
            call()
    else:
        assert call() == same_as()
