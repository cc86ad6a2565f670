"""Geometric operator series: truncation, transfer engines, routing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from bernseries import (
    PSI,
    C0Function,
    FunctionHandle,
    Polynomial,
    SeriesResult,
    apply_series,
    apply_series_poly,
    apply_U,
    corpus_entry,
    deflate_by_psi,
    inverse_neg_polynomial,
    poly_eval,
    standard_corpus,
    u_norm0,
)
from bernseries.operators import (
    _bernstein_sum,
    _homogeneous,
    _interior_stack,
    _leading_block,
    bernstein_basis,
)
from bernseries.polyfun import _solve_upper
from bernseries.series import (
    _TOL,
    _cofactor_transfer,
    _first_vector_generic,
    _truncation_count,
    apply_series_bernstein,
)

XS = np.linspace(0.0, 1.0, 41)


def _mp_transfer_row(mpmath, n, k, rho):
    """Row k of the transfer matrix in 30 digits.

    The contraction factor times the Beta-binomial pmf with n - 2
    trials and parameters (k rho + 1, (n-k) rho + 1), or, at rho = inf,
    the binomial pmf with success probability k/n; built by the pmf
    ratio recurrence and normalized.
    """
    N = n - 2
    with mpmath.workdps(30):
        if rho == math.inf:
            p = mpmath.mpf(k) / n
            q = mpmath.mpf(n - 1) / n

            def ratio(j):
                return (N - j) * p / ((j + 1) * (1 - p))
        else:
            r = mpmath.mpf(rho)
            a, b = k * r + 1, (n - k) * r + 1
            q = (n - 1) * r / (n * r + 1)

            def ratio(j):
                return (a + j) * (N - j) / ((j + 1) * (b + N - j - 1))
        vals = [mpmath.mpf(1)]
        for j in range(N):
            vals.append(vals[-1] * ratio(j))
        total = mpmath.fsum(vals)
        return np.array([float(v * q / total) for v in vals])


class TestTruncationCount:
    def test_minimal(self):
        tol = 1e-6
        q, scale, norm0 = 0.9, 0.05, 1.3

        def tail(K):
            return scale * norm0 * q ** (K + 1) / (1.0 - q)

        K = _truncation_count(q, scale, norm0, tol)
        assert tail(K) <= tol
        assert K == 0 or tail(K - 1) > tol * (1.0 - 1e-12)

    @settings(max_examples=300)
    @given(q=st.floats(1e-6, 1.0 - 1e-9), scale=st.floats(1e-6, 1.0),
           norm0=st.floats(1e-12, 1e6))
    def test_minimal_at_fixed_tolerance(self, q, scale, norm0):
        def tail(K):
            return scale * norm0 * q ** (K + 1) / (1.0 - q)

        K = _truncation_count(q, scale, norm0, _TOL)
        assert tail(K) <= _TOL
        assert K == 0 or tail(K - 1) > _TOL * (1.0 - 1e-12)

    def test_zero_cases(self):
        assert _truncation_count(0.5, 0.1, 0.0, 1e-9) == 0
        assert _truncation_count(0.0, 0.1, 1.0, 1e-9) == 0
        # scale * norm0 underflows to zero, a division by zero
        assert _truncation_count(0.5, 0.1, 5e-324, 1e-9) == 0

    def test_tolerance_is_not_a_parameter(self):
        f = C0Function(Polynomial([1.0]))
        with pytest.raises(TypeError):
            apply_series(8, 1.0, f, tol=1e-10)
        with pytest.raises(TypeError):
            apply_series_bernstein(8, f, tol=1e-10)


class TestApplySeries:
    def test_weight_cofactor_constant(self):
        # the summed series on the weight has constant cofactor
        # rho / (rho + 1), independent of n
        for n, rho in ((32, 2.0), (4096, 10.0)):
            res = apply_series(n, rho, C0Function(Polynomial([1.0])))
            want = rho / (rho + 1.0)
            assert np.max(np.abs(np.asarray(res.h(XS)) - want)) < 1e-10
            assert res.iterations > 0
            assert res.tail_bound <= 1e-9

    def test_result_norm_is_lazy(self, monkeypatch):
        from bernseries import polyfun
        f = C0Function(lambda x: np.exp(x) * np.sin(4.0 * x))
        f.norm0
        calls = []
        real = polyfun.sup_norm
        monkeypatch.setattr(polyfun, "sup_norm",
                            lambda *a: calls.append(a) or real(*a))
        res = apply_series(64, 1.0, f)
        assert calls == []
        assert res.norm0 == real(res.h)
        assert res.norm0 == real(res.h)
        assert len(calls) == 1

    def test_non_finite_input_is_named(self):
        f = C0Function(lambda x: np.where(np.abs(x - 0.7) < 0.01, np.nan, x))
        with pytest.raises(ValueError, match="sup_norm: .* not finite at x="):
            apply_series(16, 1.0, f)

    def test_single_node_collapses(self):
        # a polynomial cofactor (monomial solve) and a callable alike
        h = Polynomial([1.0, -2.0])
        for f in (C0Function(h), C0Function(lambda x: h(x))):
            res = apply_series(1, 3.0, f)
            assert (res.h.poly is None) == (f.h.poly is None)
            assert res.iterations == 0
            assert res.tail_bound == 0.0
            want = (3.0 / 4.0) * np.asarray(f.h(XS))
            assert np.max(np.abs(np.asarray(res.h(XS)) - want)) < 1e-15

    def test_sign_of_summed_image(self):
        # h = -1 represents x^2 - x; the sum keeps the sign and halves
        res = apply_series(2, 1.0, C0Function(Polynomial([-1.0])))
        assert np.max(np.abs(np.asarray(res.h(XS)) + 0.5)) < 1e-11

    def test_matches_eigen_route(self, rng, make_cofactor):
        n, rho = 10, 1.4
        for _ in range(6):
            h = make_cofactor(max_deg=7)
            p = PSI * h
            want = poly_eval(apply_series_poly(n, rho, p), XS)
            res = apply_series(n, rho, C0Function(h))
            got = psi_times(res, XS)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_forced_transfer_route(self):
        # a callable cofactor cannot take the monomial path, so this
        # exercises the interior-node transfer engine end to end
        n, rho = 16, 0.7
        h = Polynomial([0.3, 1.0, -0.5, 0.25])
        want_res = apply_series(n, rho, C0Function(h))
        got_res = apply_series(n, rho, C0Function(lambda x: poly_eval(h, x)))
        want = np.asarray(want_res.h(XS))
        got = np.asarray(got_res.h(XS))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_result_type_and_tail(self):
        res = apply_series(8, 1.0, C0Function(Polynomial([1.0, 1.0])))
        assert isinstance(res, SeriesResult)
        assert isinstance(res, C0Function)
        assert res.tail_bound <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_series(0, 1.0, C0Function(Polynomial([1.0])))
        with pytest.raises(ValueError):
            apply_series(4, -1.0, C0Function(Polynomial([1.0])))
        with pytest.raises(TypeError):
            apply_series(4, 1.0, PSI)


class TestRouteByInput:
    """A polynomial cofactor takes the monomial solve at every n and
    degree; only callables reach the transfer solve."""

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_corpus_below_pinned_degree(self, n, rho):
        # n < deg + 2 for every corpus cofactor of degree above n - 2;
        # relative above magnitude one, measured 5.7e-13 (absdev8)
        for name, h in standard_corpus().items():
            res = apply_series(n, rho, C0Function(h))
            assert isinstance(res.h.poly, Polynomial), name
            ref = apply_series(n, rho, C0Function(lambda x, _h=h: _h(x)))
            assert ref.h.poly is None
            want = np.asarray(ref.h(XS))
            err = np.max(np.abs(res.h(XS) - want))
            assert err < 2e-12 * max(1.0, np.max(np.abs(want))), name
            assert res.iterations == ref.iterations

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, math.inf])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_degree_cap_cofactor(self, n, rho):
        # a cofactor at the degree cap, whose pinned form (degree 62)
        # exceeds the cap; measured 1.5e-14 relative above one
        h = Polynomial(np.random.default_rng(60).uniform(-1.0, 1.0, 61))
        assert h.degree == 60
        res = apply_series(n, rho, C0Function(h))
        assert isinstance(res.h.poly, Polynomial)
        assert res.h.poly.degree <= 60
        want = np.asarray(apply_series(n, rho, C0Function(
            lambda x: h(x))).h(XS))
        err = np.max(np.abs(res.h(XS) - want))
        assert err < 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, math.inf])
    def test_matches_column_loop(self, rho):
        # the one-step assembly of C against deflating each image as a
        # Polynomial: the running sums are the same, so the bits are
        # too wherever the pinned images fit inside Pi_n
        for n in (16, 64, 4096):
            for name, h in standard_corpus().items():
                e = h.degree
                M = _leading_block(n, rho, e + 2)
                C = np.empty((e + 1, e + 1))
                for m in range(e + 1):
                    C[:, m] = deflate_by_psi(Polynomial(
                        M[:, m + 1] - M[:, m + 2])).padded(e + 1)
                scale = (1.0 / n if rho == math.inf
                         else rho / (n * rho + 1.0))
                want = _solve_upper(np.eye(e + 1) - C, scale * h.coeffs)
                got = apply_series(n, rho, C0Function(h)).h.poly.coeffs
                assert np.array_equal(got, Polynomial(want).coeffs), name

    def test_rejects_unpinned_image(self, monkeypatch):
        # the endpoint check on the images of x(1-x) x^m stays in force
        from bernseries import series

        def skewed(n, rho, d, _real=series._leading_block):
            M = _real(n, rho, d).copy()
            M[0, 2] = 1e-6
            return M

        monkeypatch.setattr(series, "_leading_block", skewed)
        with pytest.raises(ValueError, match="does not vanish"):
            apply_series(8, 1.0, C0Function(Polynomial([1.0, 2.0])))


class TestTransferEngines:
    def test_row_sums_equal_contraction(self):
        for n, rho in ((6, 0.5), (16, 2.0), (25, 0.1)):
            W = _cofactor_transfer(n, rho)
            q = u_norm0(n, rho)
            assert W.shape == (n - 1, n - 1)
            assert np.all(W > 0)
            assert np.max(np.abs(W.sum(axis=1) - q)) < 1e-12

    def test_columns_match_first_vector(self):
        # column j is the image of the weight times the degree n-2
        # Bernstein basis polynomial j, which the quadrature first
        # vector computes independently from that basis polynomial as
        # a callable (its Beta rules are exact on these degrees)
        for n, rho in ((12, 0.7), (9, 30.0), (14, 0.05), (10, math.inf)):
            W = _cofactor_transfer(n, rho)
            d = n - 2
            for j in range(d + 1):
                def b(x, _j=j):
                    x = np.asarray(x)
                    return math.comb(d, _j) * x ** _j * (1.0 - x) ** (d - _j)

                col = _first_vector_generic(n, rho, C0Function(b))
                assert np.max(np.abs(W[:, j] - col)) < 1e-11

    def test_row_sums_at_large_n_rho(self):
        for n, rho in ((24, 50.0), (1024, 10.0)):
            W = _cofactor_transfer(n, rho)
            assert np.all(W >= 0)
            assert np.max(np.abs(W.sum(axis=1) - u_norm0(n, rho))) < 1e-13

    def test_rows_against_mpmath_reference(self):
        # nine rows from both ends and the middle; measured 2.2e-14,
        # 7.0e-14 and 5.4e-14
        import mpmath
        for n, rho, bound in ((1024, 10.0, 5e-14), (512, 1e4, 1.5e-13),
                              (1024, math.inf, 1.1e-13)):
            W = _cofactor_transfer(n, rho)
            for k in (1, 2, 3, n // 4, n // 3, n // 2, 2 * n // 3, n - 2,
                      n - 1):
                want = _mp_transfer_row(mpmath, n, k, rho)
                assert np.max(np.abs(W[k - 1] - want)) < bound

    def test_sampling_rows_are_bernstein_samples(self):
        # at rho = inf row k - 1 is (n-1)/n times the degree n-2
        # Bernstein basis at k/n; measured 1.7e-16, 2.9e-15 and 4.1e-14
        for n, bound in ((8, 5e-16), (64, 6e-15), (512, 1e-13)):
            W = _cofactor_transfer(n, math.inf)
            B = (n - 1.0) / n * bernstein_basis(n - 2, np.arange(1, n) / n).T
            assert np.max(np.abs(W - B)) < bound

    def test_cache_keeps_two_matrices(self):
        # each matrix holds (n-1)^2 floats, so distinct (n, rho) must
        # not pile up
        _cofactor_transfer.cache_clear()
        f = C0Function(np.cos)
        for rho in (0.5, 1.0, 2.0):
            apply_series(64, rho, f)
        assert _cofactor_transfer.cache_info().currsize == 2

    def test_transfer_route_matches_monomial_route(self):
        # both engines on one polynomial cofactor at large n rho, where
        # iterated sums used to drift apart: the transfer solve takes
        # the cofactor as a callable
        n, rho = 1024, 10.0
        h = corpus_entry("cheb6")
        scale = rho / (n * rho + 1.0)
        W = _cofactor_transfer(n, rho)
        g0 = _first_vector_generic(n, rho, C0Function(lambda x: h(x)))
        acc = np.linalg.solve(np.eye(n - 1) - W, g0)
        xs = np.linspace(0.0, 1.0, 9)
        transfer = scale * (h(xs) + _bernstein_sum(acc, xs))
        monomial = apply_series(n, rho, C0Function(h)).h(xs)
        assert np.max(np.abs(transfer - monomial)) < 1e-12

    def test_generic_rules_shared_with_apply_U(self):
        # apply_U and the generic first vector draw the same stacks of
        # n - 1 Beta rules (20 and 40 nodes) from one cache: the series
        # builds no new stack
        n, rho = 21, 0.37
        handle = FunctionHandle.from_callable(np.cos)
        apply_U(n, rho, handle, XS)
        before = _interior_stack.cache_info()
        apply_series(n, rho, C0Function(handle))
        after = _interior_stack.cache_info()
        assert after.hits - before.hits == 2
        assert after.misses == before.misses


class TestApplySeriesBernstein:
    def test_against_brute_force(self):
        # explicit 400-term sum of the sampling operator over a fine
        # grid; with q = 7/8 the terms past it stay below 6e-16
        n = 8
        h = Polynomial([1.0, 0.5, -0.3])
        f = C0Function(h)
        res = apply_series_bernstein(n, f)
        xs = np.linspace(0, 1, 33)
        vals = poly_eval(PSI * h, xs)
        acc = vals.copy()
        basis = bernstein_basis(n, xs)
        nodes = np.arange(n + 1) / n
        for _ in range(400):
            node_vals = np.interp(nodes, xs, vals)
            # sampling at the nodes is exact on the grid only if the
            # nodes are grid points; 33 points over 8 intervals align
            vals = node_vals @ basis
            acc += vals
        want = acc / n
        got = psi_times(res, xs)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_single_node_is_identity(self):
        f = C0Function(Polynomial([2.0, -1.0]))
        res = apply_series_bernstein(1, f)
        assert res.iterations == 0
        assert np.max(np.abs(np.asarray(res.h(XS)) -
                             np.asarray(f.h(XS)))) == 0.0

    def test_polynomial_against_mpmath_reference(self):
        # a polynomial cofactor takes the monomial solve; the reference
        # solves (I - B) p = x(1-x) h / n in 30 digits on degrees 2..8,
        # with the Bernstein images of the monomials in closed form
        # (coefficient of x^j in B(x^m) is S(m, j) n!/(n-j)! / n^m), and
        # divides x(1-x) back out; measured 2.7e-13, 2.1e-14 and 5.9e-13
        # (the monomial form of a cofactor with coefficients near 1e3)
        import mpmath
        h = corpus_entry("cheb6")
        d = h.degree + 2
        for n, bound in ((8, 6e-13), (64, 5e-14), (4096, 1.2e-12)):
            res = apply_series_bernstein(n, C0Function(h))
            assert res.h.poly is not None
            with mpmath.workdps(30):
                g = [mpmath.mpf(0)] * (d + 1)
                for i, c in enumerate(h.coeffs):
                    g[i + 1] += mpmath.mpf(float(c)) / n
                    g[i + 2] -= mpmath.mpf(float(c)) / n
                p = [mpmath.mpf(0)] * (d + 1)
                for i in range(d, 1, -1):
                    img = [mpmath.stirling2(m, i) * mpmath.ff(n, i)
                           / mpmath.mpf(n) ** m for m in range(i, d + 1)]
                    rest = mpmath.fsum(img[m - i] * p[m]
                                       for m in range(i + 1, d + 1))
                    p[i] = (g[i] + rest) / (1 - img[0])
                p[1] = -mpmath.fsum(p[2:])
                # p / x, then / (1 - x) by running sums
                cof = np.cumsum([mpmath.mpf(0)] + p[1:-1])[1:]
                want = np.array([float(mpmath.polyval(cof[::-1].tolist(),
                                                      mpmath.mpf(x)))
                                 for x in XS])
            assert np.max(np.abs(np.asarray(res.h(XS)) - want)) < bound

    def test_callable_input(self):
        res = apply_series_bernstein(
            6, C0Function(lambda x: np.sin(np.pi * np.asarray(x))),
        )
        assert res.tail_bound <= 1e-9
        assert np.all(np.isfinite(np.asarray(res.h(XS))))


class TestApplySeriesPoly:
    def test_weight_fixed_point(self):
        for n, rho in ((4, 0.5), (12, 1.0), (20, 3.0)):
            out = apply_series_poly(n, rho, PSI)
            want = PSI * (rho / (rho + 1.0))
            assert np.max(np.abs(out.padded(3) - want.padded(3))) < 1e-12

    def test_rejects_unpinned(self):
        with pytest.raises(ValueError, match="does not vanish at the "
                                             "endpoints"):
            apply_series_poly(6, 1.0, Polynomial([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("n, rho, h", [
        (256, 1.0, Polynomial([0.0] * 28 + [1.0])),
        (30, 1.0, Polynomial([1.0] * 29)),
        (4096, math.inf, Polynomial([1.0] * 29)),
    ], ids=["x29-256-1", "ones-30-1", "ones-4096-inf"])
    def test_exactly_pinned_at_the_eigen_cap(self, n, rho, h):
        # degree 30 inputs whose endpoint values are exactly zero: the
        # dual solve's unit-eigenvalue components come back near 1e-8,
        # which is rounding, not an endpoint value; measured 4.8e-9,
        # 4.9e-9 and 2.2e-8 off the monomial solve, relative to
        # max(1, its sup)
        got = poly_eval(apply_series_poly(n, rho, PSI * h), XS)
        want = apply_series(n, rho, C0Function(h)).value(XS)
        assert np.max(np.abs(got - want)) <= 1e-7 * max(
            1.0, np.max(np.abs(want)))

    def test_rejects_degree_above_n(self):
        with pytest.raises(ValueError):
            apply_series_poly(3, 1.0, Polynomial([0.0] * 4 + [1.0]))

    def test_rejects_degree_above_the_eigen_cap(self):
        # the dual solve, not n, limits the route: at degree 40 its
        # unit-eigenvalue components of a pinned input reach 1e-5
        with pytest.raises(ValueError, match="eigen cap 30"):
            apply_series_poly(4096, 1.0, PSI * Polynomial([0.0] * 29 + [1.0]))

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, math.inf])
    @pytest.mark.parametrize("n", [256, 4096])
    def test_matches_the_monomial_solve_at_large_n(self, n, rho):
        # the eigenpairs come from the leading block of the input's
        # degree, so the route runs past the full-matrix cap; measured
        # at most 4.1e-11 relative
        rng = np.random.default_rng(4096)
        cofactors = list(standard_corpus().values()) + [
            Polynomial(rng.uniform(-1.0, 1.0, size=21))]
        for h in cofactors:
            got = poly_eval(apply_series_poly(n, rho, PSI * h), XS)
            want = apply_series(n, rho, C0Function(h)).value(XS)
            assert np.max(np.abs(got - want)) <= 1e-9 * max(
                1.0, np.max(np.abs(want)))


class TestLargeNLimit:
    # the series sums tend to the negated limit inverse as n grows
    def test_weight(self):
        for rho in (0.5, 1.0, 4.0):
            out = inverse_neg_polynomial(rho, C0Function(Polynomial([1.0])))
            want = PSI * (rho / (rho + 1.0))
            assert np.max(np.abs(out.padded(3) - want.padded(3))) < 1e-14

    def test_is_large_n_limit(self):
        h = Polynomial([1.0, -2.0, 1.5])
        rho = 0.8
        want = poly_eval(inverse_neg_polynomial(rho, C0Function(h)), XS)
        dist = []
        for n in (10, 20, 40):
            res = apply_series(n, rho, C0Function(h))
            dist.append(np.max(np.abs(psi_times(res, XS) - want)))
        assert dist[0] > dist[1] > dist[2]
        assert dist[2] < 0.35 * dist[0]


RHOS = st.one_of(st.floats(math.log(1e-4), math.log(1e4)).map(math.exp),
                 st.just(math.inf))
COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9).map(
    np.array)
# bare callables (the transfer solve) and Polynomial cofactors (the
# monomial solve)
COFACTORS = st.one_of(
    st.sampled_from([np.cos, np.exp]),
    COEFFS.map(lambda c: (lambda x: npoly.polyval(x, c))),
    COEFFS.map(Polynomial))


class TestSeriesIdentity:
    # S = apply_series(n, rho, f) solves S - U S = (r / (n r + w)) f,
    # which needs no reference value

    @settings(max_examples=60)
    @given(n=st.integers(1, 64), rho=RHOS, h=COFACTORS)
    def test_series_minus_its_image_is_the_scaled_input(self, n, rho, h):
        # measured at most 8.7e-16 over 600 examples
        f = C0Function(h)
        S = apply_series(n, rho, f)
        r, w = _homogeneous(rho)
        xs = np.linspace(0.0, 1.0, 33)
        fx = f.value(xs)
        gap = S.value(xs) - apply_U(n, rho, S, xs) - r / (n * r + w) * fx
        assert np.max(np.abs(gap)) <= 1e-14 * max(1.0, np.max(np.abs(fx)))

    @pytest.mark.parametrize("rho", [1.0, math.inf])
    def test_fixed_case_at_n_256(self, rho):
        # the transfer solve past the property's n <= 64; measured
        # 1.2e-16 (rho = 1) and 1.1e-16 (rho = inf)
        n, f = 256, C0Function(np.cos)
        S = apply_series(n, rho, f)
        r, w = _homogeneous(rho)
        xs = np.linspace(0.0, 1.0, 33)
        fx = f.value(xs)
        gap = S.value(xs) - apply_U(n, rho, S, xs) - r / (n * r + w) * fx
        assert np.max(np.abs(gap)) <= 1e-14 * max(1.0, np.max(np.abs(fx)))

    def test_two_dimensional_points_match_elementwise_loop(self, rng):
        # with n - 1 rows a contraction along the wrong axis of the
        # basis still has matching shapes, so only values can show it
        n = 16
        S = apply_series(n, 1.0, C0Function(np.cos))
        x = rng.uniform(0.0, 1.0, (n - 1, 3))
        want = np.array([[S.value(float(t)) for t in row] for row in x])
        assert S.value(x).shape == x.shape
        assert np.max(np.abs(S.value(x) - want)) < 1e-15

    @pytest.mark.parametrize("h", [np.cos, Polynomial([1.0, -2.0, 0.5])],
                             ids=["transfer", "monomial"])
    def test_operator_applies_to_a_series(self, h):
        # apply_U evaluates the series on 2-D stacks of Beta nodes
        n, rho = 16, 1.0
        f = C0Function(h)
        S = apply_series(n, rho, f)
        got = apply_U(n, rho, S, 0.3)
        assert isinstance(got, float)
        assert abs(S.value(0.3) - got - f.value(0.3) / (n + 1.0)) < 1e-15

    @pytest.mark.parametrize("x", [2.0, -0.5, math.nan, [0.5, math.nan]])
    @pytest.mark.parametrize("h", [np.cos, Polynomial([1.0, -2.0, 0.5])],
                             ids=["transfer", "monomial"])
    def test_value_outside_the_interval_raises(self, h, x):
        # a returned function rejects points as the entry points do
        S = apply_series(8, 1.0, C0Function(h))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            S.value(x)

    @pytest.mark.parametrize("x", [2.0, math.nan, [0.5, -0.5]])
    @pytest.mark.parametrize("n", [1, 8])
    def test_callable_cofactor_outside_the_interval_raises(self, n, x):
        # the cofactor closure of a callable's sum checks its points:
        # the transfer solve, and the first term alone at n = 1; it
        # returned 0.192 at x = 2 and NaN at NaN
        S = apply_series(n, 1.0, C0Function(np.cos))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            S.h(x)

    def test_polynomial_cofactor_is_defined_everywhere(self):
        # the monomial solve returns a Polynomial, like its input
        S = apply_series(8, 1.0, C0Function(Polynomial([1.0, -2.0])))
        assert isinstance(S.h.poly, Polynomial)
        assert np.isfinite(S.h(2.0))


def psi_times(res: SeriesResult, xs: np.ndarray) -> np.ndarray:
    return xs * (1.0 - xs) * np.asarray(res.h(xs))
