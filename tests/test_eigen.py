"""Eigenvalues, triangular eigenbasis, dual functionals, asymptotics."""

import math
import re

import numpy as np
import pytest

from bernseries import (
    EIGEN_N_CAP,
    PSI,
    QUAD_TOL,
    C0Function,
    EigenSystem,
    FunctionHandle,
    Polynomial,
    apply_series_poly,
    asymptotic_report,
    compute_eigensystem,
    dual_coefficients,
    eigenvalue,
    inverse_neg_polynomial,
    limit_dual,
    limit_eigenpoly,
    limit_eigenvalue,
    poly_eval,
    u_matrix_leading_block,
)
from bernseries import eigen as eigen_module


def _matrix_eigenbasis(n, rho, M):
    """The monic eigenbasis of a given leading block M by
    back-substitution, with the eigenvalues of ``eigenvalue``."""
    d = M.shape[0] - 1
    lam = np.array([eigenvalue(n, rho, j) for j in range(d + 1)])
    vecs = np.eye(d + 1)
    vecs[1:2, 0] = -0.5
    for j in range(2, d + 1):
        v = vecs[j]
        for i in range(j - 1, -1, -1):
            v[i] = (M[i, i + 1:j + 1] @ v[i + 1:j + 1]) / (lam[j] - M[i, i])
    return lam, np.ascontiguousarray(vecs.T)


class TestEigenvalue:
    def test_trivial_indices(self):
        for n, rho in ((2, 0.5), (17, 3.0)):
            assert eigenvalue(n, rho, 0) == 1.0
            assert eigenvalue(n, rho, 1) == 1.0

    def test_oracle(self):
        assert abs(eigenvalue(2, 1.0, 2) - 1.0 / 3.0) < 1e-16

    def test_product_form(self):
        n, rho, j = 9, 0.7, 5
        want = 1.0
        for i in range(j):
            want *= rho * (n - i) / (n * rho + i)
        assert eigenvalue(n, rho, j) == want

    def test_strictly_decreasing(self):
        for rho in (0.1, 1.0, 50.0):
            lam = [eigenvalue(12, rho, j) for j in range(1, 13)]
            assert all(a > b for a, b in zip(lam, lam[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            eigenvalue(4, 1.0, 5)
        with pytest.raises(ValueError):
            eigenvalue(4, 1.0, -1)
        with pytest.raises(ValueError):
            eigenvalue(4, -2.0, 2)


class TestComputeEigensystem:
    def test_residuals_small(self):
        sys = compute_eigensystem(12, 0.5)
        M = sys.basis  # columns are eigenvector coefficients
        U = u_matrix_leading_block(12, 0.5, 12)
        R = U @ M - M * np.asarray(sys.lambdas)
        assert np.max(np.abs(R)) < 1e-11

    def test_basis_is_unit_upper_triangular_and_monic(self):
        sys = compute_eigensystem(10, 2.0)
        B = sys.basis
        assert np.max(np.abs(np.tril(B, -1))) == 0.0
        assert np.max(np.abs(np.diag(B) - 1.0)) == 0.0
        for j, p in enumerate(sys.eigenpolys):
            assert p.degree == j
            assert p.coeffs[-1] == 1.0

    def test_interior_polys_vanish_at_endpoints(self):
        sys = compute_eigensystem(14, 0.3)
        for p in sys.eigenpolys[2:]:
            assert abs(poly_eval(p, 0.0)) < 1e-9
            assert abs(poly_eval(p, 1.0)) < 1e-9

    def test_rejects_doctored_diagonal(self, monkeypatch):
        def doctored(n, rho, d):
            M = u_matrix_leading_block(n, rho, d).copy()
            M[4, 4] += 1e-6
            return M

        monkeypatch.setattr(eigen_module, "u_matrix_leading_block", doctored)
        with pytest.raises(RuntimeError, match="disagrees with the "
                                               "eigenvalue formula"):
            compute_eigensystem(8, 1.0)

    def test_size_cap(self):
        with pytest.raises(ValueError, match=f"eigen cap {EIGEN_N_CAP}$"):
            compute_eigensystem(EIGEN_N_CAP + 1, 1.0)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, math.inf])
    def test_same_bits_as_the_full_matrix_route(self, rho):
        # the system is the matrix-taking back-substitution applied to
        # the whole matrix on Pi_n, with the eigenvalues of
        # ``eigenvalue``, to the bit
        for n in range(1, EIGEN_N_CAP + 1):
            sys = compute_eigensystem(n, rho)
            lam, basis = _matrix_eigenbasis(
                n, rho, u_matrix_leading_block(n, rho, n))
            assert np.array_equal(sys.lambdas, lam)
            assert np.array_equal(sys.basis, basis)
            for j, p in enumerate(sys.eigenpolys):
                assert np.array_equal(p.coeffs, basis[: j + 1, j])

    def test_arrays_locked(self):
        sys = compute_eigensystem(5, 1.0)
        with pytest.raises(ValueError):
            sys.basis[0, 0] = 2.0


@pytest.mark.parametrize("n, call", [
    (EIGEN_N_CAP + 1, lambda n, d: compute_eigensystem(n, 1.0)),
    (256, lambda n, d: asymptotic_report(1.0, d, [n])),
    (256, lambda n, d: apply_series_poly(
        n, 1.0, PSI * Polynomial([0.0] * (d - 2) + [1.0]))),
], ids=["compute_eigensystem", "asymptotic_report", "apply_series_poly"])
def test_one_message_past_the_eigen_cap(n, call):
    # every eigen entry point reaches the cap through ``_eigenbasis``,
    # whose one message names the block size, n and the cap
    d = EIGEN_N_CAP + 1
    want = f"eigen block size {d} exceeds n={n} or the eigen cap {EIGEN_N_CAP}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(n, d)


class TestDualCoefficients:
    def test_weight_oracle(self):
        sys = compute_eigensystem(2, 1.0)
        mu = dual_coefficients(sys, PSI)
        # x^2 - x = -1 times the monic quadratic eigenpolynomial
        assert np.max(np.abs(mu - [0.0, 0.0, -1.0])) < 1e-14

    def test_reconstruction(self, rng):
        n = 10
        sys = compute_eigensystem(n, 0.8)
        p = Polynomial(rng.uniform(-1, 1, size=n + 1))
        mu = dual_coefficients(sys, p)
        assert np.max(np.abs(sys.basis @ mu - p.padded(n + 1))) < 1e-10

    def test_degree_rejection(self):
        sys = compute_eigensystem(3, 1.0)
        with pytest.raises(ValueError):
            dual_coefficients(sys, Polynomial([0.0] * 4 + [1.0]))


class TestLimitEigenvalue:
    def test_oracles(self):
        assert limit_eigenvalue(1.0, 2) == -2.0
        assert limit_eigenvalue(2.0, 3) == -4.5
        assert limit_eigenvalue(5.0, 0) == 0.0
        assert limit_eigenvalue(5.0, 1) == 0.0

    def test_scaled_gap_limit(self):
        # n (lambda_j - 1) approaches the limit value at rate 1/n
        rho, j = 0.7, 4
        want = limit_eigenvalue(rho, j)
        gaps = [abs(n * (eigenvalue(n, rho, j) - 1.0) - want)
                for n in (100, 200)]
        assert 0.4 < gaps[1] / gaps[0] < 0.6


class TestLimitDual:
    def test_endpoint_functionals(self):
        f = FunctionHandle.from_polynomial(Polynomial([1.0, 2.0]))
        # j = 0: endpoint average; j = 1: endpoint difference
        assert abs(limit_dual(0, f) - 2.0) < 1e-15
        assert abs(limit_dual(1, f) - 2.0) < 1e-15

    def test_weight_oracle(self):
        f = FunctionHandle.from_polynomial(PSI)
        assert abs(limit_dual(2, f) - (-1.0)) < 1e-13

    def test_biorthogonal_to_limit_polys(self):
        for i in range(7):
            p = FunctionHandle.from_polynomial(limit_eigenpoly(i))
            for j in range(7):
                want = 1.0 if i == j else 0.0
                assert abs(limit_dual(j, p) - want) < 5e-11

    def test_monic_pairing_reconstruction(self, rng):
        xs = np.linspace(0, 1, 41)
        for deg in (4, 7, 10):
            p = Polynomial(rng.uniform(-1, 1, size=deg + 1))
            f = FunctionHandle.from_polynomial(p)
            acc = np.zeros_like(xs)
            for j in range(deg + 1):
                acc += limit_dual(j, f) * poly_eval(limit_eigenpoly(j), xs)
            assert np.max(np.abs(acc - poly_eval(p, xs))) < 1e-9

    def test_callable_matches_polynomial_route(self):
        p = Polynomial([0.0, 1.0, -4.0, 2.0, 1.5])
        a = limit_dual(4, FunctionHandle.from_polynomial(p))
        b = limit_dual(
            4, FunctionHandle.from_callable(lambda x: poly_eval(p, x))
        )
        assert abs(a - b) < 1e-12

    def test_callable_against_mpmath_reference(self):
        # 30-digit integral against the Jacobi(1,1) polynomial in its
        # explicit sum form. The binomial factor j C(2j, j) / 2 scales
        # the rounding of the integral, so the bound does too; measured
        # 4.8e-15 at j = 2 up to 6.6e-11 at j = 8.
        import mpmath

        def jacobi11(k, x):
            return mpmath.fsum(
                mpmath.binomial(k + 1, k - s) * mpmath.binomial(k + 1, s)
                * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (k - s)
                for s in range(k + 1))

        f = FunctionHandle.from_callable(np.cos)
        for j in range(2, 9):
            with mpmath.workdps(30):
                core = mpmath.quad(
                    lambda t: mpmath.cos(t) * jacobi11(j - 2, 2 * t - 1),
                    [0, 1])
                want = float(mpmath.binomial(2 * j, j) / 2 * (
                    (-1) ** j + mpmath.cos(1) - j * core))
            bound = 2e-15 * j * math.comb(2 * j, j)
            assert abs(limit_dual(j, f) - want) < bound

    @pytest.mark.parametrize("rho", [0.1, 1.0, math.inf])
    def test_dual_sum_matches_inverse_up_to_degree_24(self, rho):
        # the eigen route to the large-n limit of the series: each limit
        # dual of x(1-x) h over minus its limit eigenvalue weights its
        # limit eigenpolynomial. The duals lose digits with the index:
        # the worst of these inputs is 3.0e-12 relative, and the next 6
        # draws, at pinned degree 25, reach 3.9e-11
        rng = np.random.default_rng(2414)
        xs = np.linspace(0.0, 1.0, 257)
        for degree in range(2, 25):
            for _ in range(6):
                h = Polynomial(rng.uniform(-1.0, 1.0, size=degree - 1))
                want = poly_eval(inverse_neg_polynomial(rho, C0Function(h)),
                                 xs)
                p = PSI * h
                got = sum(-limit_dual(j, p) / limit_eigenvalue(rho, j)
                          * poly_eval(limit_eigenpoly(j), xs)
                          for j in range(2, degree + 1))
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= QUAD_TOL

    @pytest.mark.parametrize("j", [2, 6])
    def test_callable_kink_raises_naming_index_and_sizes(self, j):
        # the 64- and 128-node integrals differ by 3.0e-4 (j = 2) and
        # 1.9e-4 (j = 6) on sqrt|x - 1/2|, and j C(2j, j) / 2 scales
        # that into the value
        for h in (lambda t: np.abs(np.asarray(t) - 0.5),
                  lambda t: np.sqrt(np.abs(np.asarray(t) - 0.5))):
            with pytest.raises(
                    ValueError, match=f"limit dual of index {j}: the 64- "
                                      "and 128-node Legendre"):
                limit_dual(j, FunctionHandle.from_callable(h))


class TestAsymptoticReport:
    def test_gap_closed_form_at_rho_one(self):
        # j = 2, rho = 1: 1 - lambda_2 equals 2 / (n + 1) exactly
        rec = asymptotic_report(1.0, 2, [5, 9, 24])
        for r in rec:
            assert abs(r.eigenvalue_gap - 2.0 / (r.n + 1.0)) < 1e-12

    def test_poly_distance_vanishes_in_exact_cases(self):
        # degrees 2 and 3 at any rho, and every degree at rho = 1
        for rho, j in ((0.4, 2), (7.0, 3), (1.0, 5)):
            for r in asymptotic_report(rho, j, [8, 16]):
                assert r.poly_distance < 1e-12

    def test_poly_distance_decays_when_n_dependent(self):
        recs = asymptotic_report(0.5, 4, [10, 20, 40])
        d = [r.poly_distance for r in recs]
        assert d[0] > d[1] > d[2] > 0.0
        assert d[2] < 0.35 * d[0]

    def test_dual_gaps_for_low_degree_probes(self):
        probes = (Polynomial([1.0]), Polynomial([0.0, 1.0]), PSI)
        recs = asymptotic_report(2.0, 3, [12], test_polys=probes)
        assert len(recs[0].dual_gaps) == 3
        assert max(recs[0].dual_gaps) < 1e-10

    def test_rejects_n_below_degree(self):
        with pytest.raises(ValueError):
            asymptotic_report(1.0, 5, [4])

    def test_rejects_blocks_above_the_eigen_cap(self):
        # past the cap the dual gaps are rounding, not convergence: at
        # n = 256, rho = 1, j = 4, on random pinned test polynomials,
        # they measured up to 5.2e-8 at degree 30, 4.2e-5 at 40 and
        # 8.1e-2 at 50
        probe = Polynomial([0.0] * (EIGEN_N_CAP - 1) + [1.0])
        asymptotic_report(1.0, 4, [256], test_polys=(probe,))
        with pytest.raises(ValueError, match=f"eigen cap {EIGEN_N_CAP}$"):
            asymptotic_report(1.0, 4, [256], test_polys=(PSI * probe,))
        with pytest.raises(ValueError, match=f"eigen cap {EIGEN_N_CAP}$"):
            asymptotic_report(1.0, EIGEN_N_CAP + 1, [256])


class TestEigenSystemType:
    def test_fields(self):
        sys = compute_eigensystem(4, 1.0)
        assert isinstance(sys, EigenSystem)
        assert sys.n == 4 and sys.rho == 1.0
        assert len(sys.eigenpolys) == 5
        assert np.asarray(sys.lambdas).shape == (5,)
