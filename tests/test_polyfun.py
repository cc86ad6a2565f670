"""Polynomial container, weight handling, special polynomials, moduli."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from bernseries import (
    DEFAULT_SUP_GRID,
    DEGREE_CAP,
    C0Function,
    FunctionHandle,
    GridSpec,
    PSI,
    Polynomial,
    compute_eigensystem,
    deflate_by_psi,
    jacobi11,
    limit_eigenpoly,
    omega,
    poly_eval,
    psi_values,
    sup_norm,
)
from bernseries.polyfun import _horner, _solve_upper


def _omega2_per_step(f, delta, pts):
    """The order-2 grid modulus one step at a time: three calls of f per
    step on the grid points the step keeps inside [0, 1]. The batched
    ``omega`` must equal it bit for bit."""
    best = 0.0
    for t in delta * np.arange(1, 33) / 32.0:
        mask = (pts >= t - 1e-15) & (pts <= 1.0 - t + 1e-15)
        if not np.any(mask):
            continue
        x = pts[mask]
        xp = np.clip(x + t, 0.0, 1.0)
        xm = np.clip(x - t, 0.0, 1.0)
        d2 = np.abs(np.asarray(f(xp)) - 2.0 * np.asarray(f(x))
                    + np.asarray(f(xm)))
        best = max(best, float(d2.max()))
    return best


@st.composite
def _grids(draw):
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True),
                          max_size=300, unique=True))
    return GridSpec(np.concatenate(([0.0], np.sort(inner), [1.0])))


_HANDLES = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9).map(
        lambda c: FunctionHandle.from_polynomial(Polynomial(c))),
    st.floats(0.0, 1.0).map(lambda c: FunctionHandle.from_callable(
        lambda x: np.abs(x - c))),
    st.just(FunctionHandle.from_callable(np.exp)),
)
_DELTAS = st.floats(0.0, 0.5, exclude_min=True)


class TestPolynomial:
    def test_trims_exact_trailing_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert np.array_equal(p.coeffs, [1.0, 2.0])

    def test_zero_and_monomial(self):
        assert Polynomial.zero().is_zero

    def test_product_oracle(self):
        # (x + 1)^2 = x^2 + 2x + 1
        p = Polynomial([1.0, 1.0])
        q = p * p
        assert np.array_equal(q.coeffs, [1.0, 2.0, 1.0])

    def test_add_sub_scalar_mul(self):
        p = Polynomial([1.0, -1.0])
        q = Polynomial([0.0, 1.0])
        assert np.array_equal((p + q).coeffs, [1.0])
        assert np.array_equal((p - q).coeffs, [1.0, -2.0])
        assert np.array_equal((p * 3.0).coeffs, [3.0, -3.0])
        assert np.array_equal((-p).coeffs, [-1.0, 1.0])

    def test_eval_matches_horner(self):
        p = Polynomial([1.0, 0.0, -2.0, 0.5])
        xs = np.array([0.0, 0.25, 1.0])
        want = 1.0 - 2.0 * xs ** 2 + 0.5 * xs ** 3
        assert np.max(np.abs(p(xs) - want)) < 1e-15

    def test_calculus_round_trip(self):
        p = Polynomial([0.5, -1.0, 3.0])
        assert np.array_equal(p.derivative().coeffs, [-1.0, 6.0])
        a = Polynomial(npoly.polyint(p.coeffs))
        back = a.derivative()
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-15
        assert Polynomial([2.0]).derivative().is_zero

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError):
            Polynomial(np.ones(DEGREE_CAP + 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, np.nan])

    def test_padded(self):
        p = Polynomial([1.0, 2.0])
        assert np.array_equal(p.padded(4), [1.0, 2.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            p.padded(1)

    def test_coeffs_are_locked(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


class TestScalarEval:
    """sup_norm's refinement points take _horner, the float loop in
    polyval's operation order; it must give polyval's bits, and so must
    poly_eval at a scalar."""

    @settings(max_examples=300, deadline=None)
    @given(c=st.lists(st.floats(-1e8, 1e8), min_size=1,
                      max_size=DEGREE_CAP + 1),
           x=st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True,
                                                      allow_infinity=True)),
           kind=st.sampled_from((float, np.float64, np.asarray, int)))
    @example(c=[0.0], x=np.nan, kind=float)
    @example(c=[3.0], x=np.nan, kind=float)
    @example(c=[2.0], x=np.inf, kind=np.float64)
    @example(c=[0.0, -1.0], x=-0.0, kind=float)
    @example(c=[0.0, 1.0, -1.0], x=-0.0, kind=np.asarray)
    @example(c=[0.0, 1.0, -1.0], x=1.0, kind=float)
    @example(c=[-0.0, 0.5, 0.0, 2.0], x=0.0, kind=np.asarray)
    @example(c=[1.0, -2.0, 1.0], x=1.0, kind=int)
    @example(c=[1.0, -2.0, 1.0], x=0.0, kind=int)
    def test_same_bits_as_polyval(self, c, x, kind):
        if kind is int:
            if not np.isfinite(x):
                x = 0.0
            x = round(x)
        p = Polynomial(c)
        with np.errstate(all="ignore"):
            want = npoly.polyval(np.asarray(x, dtype=float), p.coeffs)
            evaluated = poly_eval(p, kind(x))
        for got in (_horner(p.coeffs.tolist(), float(x)), evaluated):
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)
            assert np.signbit(got) == np.signbit(want)

    def test_infinite_scalar_warns_as_an_array_does(self):
        # a scalar and an array x take the one polyval path
        for x in (math.inf, np.array([math.inf])):
            with pytest.warns(RuntimeWarning, match="invalid value"):
                poly_eval(PSI, x)

    def test_arrays_keep_polyval(self):
        p = Polynomial([1.0, 0.0, -2.0, 0.5])
        for x in (np.linspace(0.0, 1.0, 7), np.array([0.5]),
                  np.linspace(0.0, 1.0, 6).reshape(2, 3)):
            got = poly_eval(p, x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert np.array_equal(got, npoly.polyval(x, p.coeffs))


class TestWeight:
    def test_psi_polynomial(self):
        assert np.array_equal(PSI.coeffs, [0.0, 1.0, -1.0])

    def test_psi_values(self):
        assert psi_values(0.5) == 0.25
        assert psi_values(0.0) == 0.0
        xs = np.linspace(0, 1, 5)
        assert np.array_equal(psi_values(xs), xs * (1 - xs))

    def test_deflate_oracle(self):
        # x^3 - x = x(1-x) * (-(1+x))
        p = Polynomial([0.0, -1.0, 0.0, 1.0])
        h = deflate_by_psi(p)
        assert np.array_equal(h.coeffs, [-1.0, -1.0])

    def test_deflate_round_trip(self, rng):
        for _ in range(20):
            h = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 14))))
            back = deflate_by_psi(PSI * h)
            scale = max(1.0, np.max(np.abs(h.coeffs)))
            assert np.max(np.abs(back.padded(h.degree + 1) - h.coeffs)) \
                < 1e-12 * scale

    def test_deflate_rejects_unpinned(self):
        with pytest.raises(ValueError):
            deflate_by_psi(Polynomial([0.0, 1.0]))  # vanishes at 0 only
        with pytest.raises(ValueError):
            deflate_by_psi(Polynomial([1.0]))

    def test_deflate_zero(self):
        assert deflate_by_psi(Polynomial.zero()).is_zero

    def test_deflate_tolerates_scaled_noise(self):
        # A large-coefficient pinned polynomial with endpoint rounding
        # at the relative level must pass the scaled check.
        h = Polynomial([1.0e4, -3.0e4, 2.5e4])
        p = PSI * h
        noisy = Polynomial(p.coeffs + np.array([1e-11, 0, 0, 0, 0]))
        deflate_by_psi(noisy)


class TestSolveUpper:
    def test_solves_the_system(self, rng):
        U = np.triu(rng.uniform(-1, 1, (9, 9))) + 4.0 * np.eye(9)
        b = rng.uniform(-1, 1, 9)
        assert np.max(np.abs(U @ _solve_upper(U, b) - b)) < 1e-14

    def test_bit_identical_to_lapack(self, rng):
        linalg = pytest.importorskip("scipy.linalg")
        for size in range(1, 65):
            U = np.triu(rng.uniform(-1, 1, (size, size)))
            U[np.diag_indices(size)] = rng.uniform(0.5, 2.0, size)
            b = rng.uniform(-1, 1, size)
            want = linalg.solve_triangular(U, b, lower=False)
            assert np.array_equal(_solve_upper(U, b), want)
        # the eigenbasis behind the dual solves, the worst conditioned
        for n, rho in ((12, 0.3), (30, 1.7)):
            basis = compute_eigensystem(n, rho).basis
            b = rng.uniform(-1, 1, n + 1)
            want = linalg.solve_triangular(basis, b, lower=False)
            assert np.array_equal(_solve_upper(basis, b), want)


def _jacobi11_fractions(k_max):
    """Exact rational monomial coefficients of the Jacobi(1,1)
    polynomials of degrees 0..k_max, by the three-term recurrence
    k (k + 2) P_k = (2k + 1)(k + 1) z P_{k-1} - k (k + 1) P_{k-2}."""
    out = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    for k in range(2, k_max + 1):
        shifted = [Fraction(0)] + out[k - 1]
        prev = out[k - 2] + [Fraction(0), Fraction(0)]
        out.append([((2 * k + 1) * (k + 1) * c - k * (k + 1) * p)
                    / (k * (k + 2)) for c, p in zip(shifted, prev)])
    return out


def _limit_fractions(core):
    """Exact monic coefficients of x(x - 1) core(2x - 1)."""
    shifted = core[-1:]
    for c in reversed(core[:-1]):
        # shifted * (2x - 1) + c
        shifted = [2 * lo - hi for lo, hi in
                   zip([Fraction(0)] + shifted, shifted + [Fraction(0)])]
        shifted[0] += c
    full = [lo - hi for lo, hi in
            zip([Fraction(0), Fraction(0)] + shifted,
                [Fraction(0)] + shifted + [Fraction(0)])]
    return [c / full[-1] for c in full]


class TestJacobi:
    def test_first_few(self):
        assert np.array_equal(jacobi11(0).coeffs, [1.0])
        assert np.array_equal(jacobi11(1).coeffs, [0.0, 2.0])
        assert np.allclose(jacobi11(2).coeffs, [-0.75, 0.0, 3.75],
                           rtol=0, atol=1e-15)

    def test_value_at_one(self):
        for k in range(11):
            assert abs(poly_eval(jacobi11(k), 1.0) - (k + 1)) < 1e-12 * (k + 1)

    def test_weighted_orthogonality(self):
        # independent check against Gauss-Legendre on [-1, 1]
        u, w = np.polynomial.legendre.leggauss(40)
        weight = 1.0 - u ** 2
        for j in range(6):
            for k in range(j + 1, 7):
                val = np.sum(w * weight * poly_eval(jacobi11(j), u)
                             * poly_eval(jacobi11(k), u))
                assert abs(val) < 1e-12

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            jacobi11(-1)

    def test_every_degree_under_the_cap(self):
        # a float sum of the coefficients drifts from the endpoint value
        # by more than 1e-10 (k + 1) from degree 23; the integer check of
        # value(-1) = (-1)^k (k + 1) inside jacobi11 must pass at every one
        for k in range(DEGREE_CAP - 1):
            p = jacobi11(k)
            assert p.degree == k
            # parity (-1)^k: the coefficients of the other parity are 0
            assert np.all(p.coeffs[(k + 1) % 2::2] == 0.0)

    def test_exact_rationals_rounded_once(self):
        # against the rational recurrence, bit for bit at every degree
        for k, exact in enumerate(_jacobi11_fractions(DEGREE_CAP)):
            want = np.array([float(c) for c in exact])
            assert jacobi11(k).coeffs.tobytes() == want.tobytes(), k


class TestLimitEigenpoly:
    def test_exact_rationals_rounded_once(self):
        # every coefficient is the exact monic rational rounded once,
        # the signs of the smallest ones from degree 52 included
        cores = _jacobi11_fractions(DEGREE_CAP - 2)
        exact = [[Fraction(1)], [Fraction(-1, 2), Fraction(1)]]
        exact += [_limit_fractions(core) for core in cores]
        for j, coeffs in enumerate(exact):
            want = np.array([float(c) for c in coeffs])
            assert limit_eigenpoly(j).coeffs.tobytes() == want.tobytes(), j

    def test_low_degrees(self):
        assert np.array_equal(limit_eigenpoly(0).coeffs, [1.0])
        assert np.array_equal(limit_eigenpoly(1).coeffs, [-0.5, 1.0])
        assert np.allclose(limit_eigenpoly(2).coeffs, [0.0, -1.0, 1.0],
                           rtol=0, atol=1e-15)
        assert np.allclose(limit_eigenpoly(3).coeffs, [0.0, 0.5, -1.5, 1.0],
                           rtol=0, atol=1e-15)

    def test_monic(self):
        for j in range(13):
            assert limit_eigenpoly(j).coeffs[-1] == 1.0

    def test_endpoint_vanishing(self):
        for j in range(2, 13):
            c = limit_eigenpoly(j).coeffs
            assert abs(c[0]) < 1e-13
            assert abs(np.sum(c)) < 1e-12

    def test_differential_relation_spot(self):
        # x(1-x) p'' = -j(j-1) p at j = 5
        p = limit_eigenpoly(5)
        lhs = PSI * p.derivative().derivative()
        rhs = p * (-20.0)
        assert np.max(np.abs((lhs - rhs).padded(6))) < 1e-12


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0, 0.9]))
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_uniform(self):
        g = GridSpec.uniform(5)
        assert np.array_equal(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_chebyshev(self):
        g = GridSpec.chebyshev(257)
        assert g.points.size == 257
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        # denser near endpoints than in the middle
        assert g.points[1] < 1.0 / 256


    @pytest.mark.parametrize("build", [GridSpec.uniform, GridSpec.chebyshev],
                             ids=["uniform", "chebyshev"])
    def test_count_is_an_integer(self, build):
        # chebyshev(2.5) used to build [0, 0.75, 1] and chebyshev(3.0)
        # a grid; uniform raised numpy's bare TypeError on both
        for count in (2.5, 3.0, np.float64(3.0)):
            with pytest.raises(ValueError,
                               match=f"^count must be an integer of at "
                                     f"least 0, got {count}$"):
                build(count)
        for count in (1, True, -3):
            with pytest.raises(ValueError, match="^count must be at least 2$"):
                build(count)
        assert np.array_equal(build(np.int64(5)).points, build(5).points)


class TestSupNorm:
    def test_polynomial_peak(self):
        f = FunctionHandle.from_polynomial(PSI)
        assert abs(sup_norm(f) - 0.25) < 1e-12

    def test_callable_peak_refined(self):
        # peak at an off-grid point; golden refinement must find it
        f = FunctionHandle.from_callable(lambda x: np.sin(np.pi * x) ** 2)
        assert abs(sup_norm(f) - 1.0) < 1e-10

    def test_never_below_grid_max(self):
        g = GridSpec.uniform(11)
        f = FunctionHandle.from_polynomial(Polynomial([0.0, 1.0]))
        assert sup_norm(f, g) >= 1.0 - 1e-15

    def test_constant_callable(self):
        assert sup_norm(FunctionHandle.from_callable(lambda x: 2.0)) == 2.0

    def test_polynomial_refinement_stays_off_numpy(self, monkeypatch):
        # the grid is one array call; the 62 refinement points take
        # poly_eval's float loop, not one polyval call each
        from bernseries import polyfun
        calls = []
        real = polyfun.npoly.polyval
        monkeypatch.setattr(polyfun.npoly, "polyval",
                            lambda x, c: calls.append(np.shape(x))
                            or real(x, c))
        p = Polynomial([0.1, 1.0, -3.0, 2.0])
        sup_norm(FunctionHandle.from_polynomial(p))
        assert calls == [DEFAULT_SUP_GRID.points.shape]

    def test_polynomial_handle_is_called_once(self, monkeypatch):
        # the handle evaluates the grid; the 62 refinement points go
        # through one Horner closure over the coefficients instead
        calls = []
        real = FunctionHandle.__call__

        def spy(self, x):
            calls.append(np.shape(x))
            return real(self, x)

        monkeypatch.setattr(FunctionHandle, "__call__", spy)
        p = Polynomial([0.1, 1.0, -3.0, 2.0])
        sup_norm(FunctionHandle.from_polynomial(p))
        assert calls == [DEFAULT_SUP_GRID.points.shape]

    @settings(max_examples=200, deadline=None)
    @given(c=st.lists(st.floats(-1.0, 1.0), min_size=1,
                      max_size=DEGREE_CAP + 1),
           scale=st.floats(-3.0, 3.0),
           g=st.sampled_from((None, GridSpec.uniform(2), GridSpec.uniform(3),
                              GridSpec.uniform(129), GridSpec.chebyshev(33))))
    @example(c=[1e308, 1e308], scale=0.0, g=None)
    @example(c=[1.0], scale=0.0, g=GridSpec.uniform(2))
    @example(c=[-0.0, 0.5, 0.0, -2.0], scale=3.0, g=GridSpec.uniform(3))
    def test_polynomial_same_bits_as_a_callable(self, c, scale, g):
        # the Horner closure of a polynomial handle against polyval on
        # the 0-d points of a callable handle: same value, bit for bit,
        # or the same non-finite message
        p = Polynomial(np.asarray(c) * 10.0 ** scale)
        handles = (FunctionHandle.from_polynomial(p),
                   FunctionHandle.from_callable(
                       lambda x: npoly.polyval(x, p.coeffs)))
        outcomes = []
        for f in handles:
            # huge coefficients overflow polyval on the grid; with
            # numpy's warning off, the inf surfaces as sup_norm's message
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    outcomes.append(sup_norm(f, g).hex())
                except ValueError as e:
                    assert re.fullmatch(
                        r"sup_norm: .* not finite at x=\S+", str(e))
                    outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]

    def test_overflowing_polynomial_is_named(self):
        p = Polynomial([1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"sup_norm: .* not finite at x=0\.79"):
            sup_norm(FunctionHandle.from_polynomial(p))

    def test_plain_callable(self):
        # a bare function carries no coefficients and keeps the
        # callable path
        def f(x):
            return np.sin(3.0 * x)

        assert sup_norm(f) == sup_norm(FunctionHandle.from_callable(f))

    def test_bare_polynomial_is_read_as_its_handle(self, monkeypatch):
        # the same bits as its handle, and the same work: the grid is
        # one poly_eval call and the refinement takes the Horner closure
        from bernseries import polyfun
        p = Polynomial([0.1, 1.0, -3.0, 2.0])
        want = sup_norm(FunctionHandle.from_polynomial(p))
        calls = []
        real = polyfun.poly_eval
        monkeypatch.setattr(polyfun, "poly_eval",
                            lambda q, x: calls.append(np.shape(x))
                            or real(q, x))
        assert sup_norm(p).hex() == want.hex()
        assert calls == [DEFAULT_SUP_GRID.points.shape]

    def test_non_finite_value_is_named(self):
        f = FunctionHandle.from_callable(
            lambda x: np.where(np.abs(x - 0.7) < 0.01, np.nan, x))
        with pytest.raises(ValueError,
                           match=r"sup_norm: .* not finite at x=0\.6953125$"):
            sup_norm(f, GridSpec.uniform(129))

    def test_non_finite_refinement_value_is_named(self):
        # every grid value is finite; the NaN lies between the grid
        # points around the maximizer, where only the refinement looks
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.5005) & (x < 0.503), np.nan,
                            1.0 - (x - 0.501) ** 2)

        with pytest.raises(ValueError,
                           match=r"sup_norm: .* not finite at x=0\.50144"):
            sup_norm(FunctionHandle.from_callable(f))


class TestOmega:
    def test_first_order_affine(self):
        f = FunctionHandle.from_polynomial(Polynomial([0.0, 1.0]))
        g = GridSpec.uniform(101)
        assert abs(omega(f, 1, 0.1, g) - 0.1) < 1e-14

    def test_second_order_square(self):
        f = FunctionHandle.from_polynomial(Polynomial([0.0, 0.0, 1.0]))
        g = GridSpec.uniform(101)
        assert abs(omega(f, 2, 0.1, g) - 0.02) < 1e-14

    def test_second_order_kills_affine(self):
        f = FunctionHandle.from_polynomial(Polynomial([3.0, -2.0]))
        assert omega(f, 2, 0.25) < 1e-14

    def test_monotone_in_delta(self):
        f = FunctionHandle.from_callable(lambda x: np.abs(x - 0.5))
        g = GridSpec.uniform(201)
        vals = [omega(f, 1, d, g) for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_first_order_matches_pairwise_scan(self, rng):
        fns = (np.sin, lambda x: np.abs(x - 0.37),
               lambda x: np.exp(2.0 * x) * np.cos(9.0 * x))
        for trial in range(4):
            inner = np.sort(rng.uniform(0.0, 1.0, 40 + 15 * trial))
            pts = np.concatenate(([0.0], inner, [1.0]))
            g = GridSpec(pts)
            for fn in fns:
                vals = fn(pts)
                for delta in (0.003, 0.05, 0.2, 0.5, 1.0):
                    reach = delta * (1.0 + 1e-12) + 1e-15
                    want = 0.0
                    for i in range(pts.size):
                        for j in range(i + 1, pts.size):
                            if pts[j] <= pts[i] + reach:
                                want = max(want, abs(vals[j] - vals[i]))
                    got = omega(FunctionHandle.from_callable(fn), 1, delta, g)
                    assert got == want

    @settings(max_examples=60)
    @given(f=_HANDLES, g=_grids(), delta=_DELTAS)
    def test_second_order_matches_per_step_loop(self, f, g, delta):
        assert omega(f, 2, delta, g) == _omega2_per_step(f, delta, g.points)

    def test_second_order_blocks_match_per_step_loop(self, rng):
        # 3000 points take the 32 steps in several blocks
        inner = np.sort(rng.uniform(0.0, 1.0, 2998))
        g = GridSpec(np.concatenate(([0.0], inner, [1.0])))
        f = FunctionHandle.from_callable(lambda x: np.abs(x - 0.37))
        for delta in (0.002, 0.1, 0.5):
            assert omega(f, 2, delta, g) == _omega2_per_step(f, delta,
                                                            g.points)

    @pytest.mark.parametrize("order", [1, 2])
    def test_memory_stays_linear_in_the_grid(self, order):
        f = FunctionHandle.from_polynomial(Polynomial([1.0, -2.0, 0.5, 3.0]))
        g = GridSpec.uniform(20001)
        tracemalloc.start()
        try:
            omega(f, order, 0.5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("order", [1, 2])
    def test_non_finite_value_is_named(self, order):
        f = FunctionHandle.from_callable(
            lambda x: np.where(np.abs(x - 0.7) < 0.01, np.nan, x))
        with pytest.raises(ValueError, match=r"not finite at x=0\.6953125$"):
            omega(f, order, 0.1, GridSpec.uniform(129))

    def test_non_finite_offset_value_is_named(self):
        # finite on the grid, infinite between its points: only the
        # second-order offsets x + t and x - t reach those
        g = GridSpec.uniform(129)
        f = FunctionHandle.from_callable(
            lambda x: np.where(np.isin(x, g.points), x, np.inf))
        assert omega(f, 1, 0.1, g) == 0.09375
        with pytest.raises(ValueError, match="omega: .* not finite at x="):
            omega(f, 2, 0.1, g)

    def test_validation(self):
        f = FunctionHandle.from_polynomial(PSI)
        with pytest.raises(ValueError):
            omega(f, 3, 0.1)
        with pytest.raises(ValueError):
            omega(f, 1, 0.0)
        with pytest.raises(ValueError):
            omega(f, 2, 0.6)  # second order needs delta <= 1/2
        with pytest.raises(ValueError):
            omega(f, 1, 1.5)

    def test_order_is_the_integer_one_or_two(self):
        # order == 1 and order == 2 hold for True and 2.0, which used to
        # give the order-1 and order-2 moduli
        f = FunctionHandle.from_callable(np.cos)
        for order in (True, 2.0, np.float64(1.0)):
            with pytest.raises(ValueError,
                               match=f"^order must be an integer of at "
                                     f"least 0, got {order}$"):
                omega(f, order, 0.1)
        for order in (0, 3, -1, 1.5, math.nan):
            with pytest.raises(ValueError, match="^order must be 1 or 2$"):
                omega(f, order, 0.1)
        for order in (1, 2):
            assert omega(f, np.int64(order), 0.1) == omega(f, order, 0.1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_nan_step_is_rejected(self, order):
        # NaN fails both delta <= 0 and delta > 1, so it used to pass:
        # order 1 gave sup - inf of f, order 2 gave 0
        f = FunctionHandle.from_callable(np.sin)
        with pytest.raises(ValueError, match="^delta must be positive$"):
            omega(f, order, math.nan)


class TestFunctionHandle:
    def test_kinds(self):
        assert FunctionHandle.from_polynomial(PSI).poly is PSI
        assert FunctionHandle.from_callable(np.sin).poly is None

    def test_scalar_returns_float(self):
        f = FunctionHandle.from_polynomial(PSI)
        v = f(0.5)
        assert isinstance(v, float) and v == 0.25

    def test_constant_callable_fills_the_input_shape(self):
        f = FunctionHandle.from_callable(lambda x: 1.5)
        out = f(np.zeros((2, 3)))
        assert out.shape == (2, 3) and np.all(out == 1.5)
        out[0, 0] = 0.0  # a fresh array, not a read-only broadcast view
        assert f(0.25) == 1.5 and isinstance(f(0.25), float)

    def test_non_elementwise_callable_is_named(self):
        f = FunctionHandle.from_callable(lambda x: np.ones(3))
        with pytest.raises(ValueError, match=r"shape \(3,\) for points "
                                             r"of shape \(257,\)"):
            f(DEFAULT_SUP_GRID.points)
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            sup_norm(f)

    def test_probe_rejects_mismatch(self):
        with pytest.raises(ValueError):
            FunctionHandle(fn=lambda x: x + 1.0, poly=Polynomial([0.0, 1.0]))


class TestC0Function:
    def test_value_is_weight_times_cofactor(self):
        f = C0Function(Polynomial([1.0]))
        xs = np.linspace(0, 1, 9)
        assert np.array_equal(f(xs), psi_values(xs))
        assert f.norm0 == 1.0

    def test_norm0_is_estimated_on_first_read(self, monkeypatch):
        from bernseries import polyfun
        calls = []
        real = polyfun.sup_norm
        monkeypatch.setattr(polyfun, "sup_norm",
                            lambda *a: calls.append(a) or real(*a))
        f = C0Function(lambda x: np.cos(5.0 * x))
        assert calls == []
        assert f.norm0 == real(f.h, DEFAULT_SUP_GRID)
        assert f.norm0 == real(f.h, DEFAULT_SUP_GRID)
        assert len(calls) == 1

    @pytest.mark.parametrize("x", [2.0, -1e-3, np.nan])
    def test_value_outside_the_interval_raises(self, x):
        f = C0Function(np.cos)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            f.value(x)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            f([0.5, x])
        assert isinstance(f.value(0.5), float)

    def test_wrapped_function_rejected_as_cofactor(self):
        # a C0Function is callable, but it stands for x(1-x) h: wrapping
        # it again would square the weight
        with pytest.raises(TypeError, match="cofactor itself"):
            C0Function(C0Function(Polynomial([1.0])))
