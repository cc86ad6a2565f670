"""Polynomial container, weight handling, special polynomials, moduli."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bernseries import (
    DEFAULT_SUP_GRID,
    DEGREE_CAP,
    C0Function,
    FunctionHandle,
    GridSpec,
    PSI,
    Polynomial,
    build_u_matrix,
    compute_eigensystem,
    deflate_by_psi,
    jacobi11,
    limit_eigenpoly,
    omega,
    poly_calculus,
    poly_eval,
    psi_values,
    sup_norm,
)
from bernseries.polyfun import _solve_upper


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
        d, a = poly_calculus(p)
        assert np.array_equal(d.coeffs, [-1.0, 6.0])
        back = a.derivative()
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-15

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
            basis = compute_eigensystem(build_u_matrix(n, rho)).basis
            b = rng.uniform(-1, 1, n + 1)
            want = linalg.solve_triangular(basis, b, lower=False)
            assert np.array_equal(_solve_upper(basis, b), want)


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
        # the float sum of the coefficients drifts from k + 1 by more
        # than 1e-10 (k + 1) from degree 23; the exact check must not
        for k in range(DEGREE_CAP - 1):
            p = jacobi11(k)
            assert p.degree == k
            # parity (-1)^k: the coefficients of the other parity are 0
            assert np.all(p.coeffs[(k + 1) % 2::2] == 0.0)


class TestLimitEigenpoly:
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
        assert g.count == 5

    def test_chebyshev(self):
        g = GridSpec.chebyshev(257)
        assert g.count == 257
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        # denser near endpoints than in the middle
        assert g.points[1] < 1.0 / 256


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


class TestFunctionHandle:
    def test_kinds(self):
        assert FunctionHandle.from_polynomial(PSI).poly is PSI
        assert FunctionHandle.from_callable(np.sin).poly is None

    def test_scalar_returns_float(self):
        f = FunctionHandle.from_polynomial(PSI)
        v = f(0.5)
        assert isinstance(v, float) and v == 0.25

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

    def test_wrapped_function_rejected_as_cofactor(self):
        # a C0Function is callable, but it stands for x(1-x) h: wrapping
        # it again would square the weight
        with pytest.raises(TypeError, match="cofactor itself"):
            C0Function(C0Function(Polynomial([1.0])))
