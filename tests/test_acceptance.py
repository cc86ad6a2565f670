"""Acceptance gate: one test per shipped guarantee, each self-timed.

Every test covers one numbered guarantee of the library, carries its
own runtime budget, and reports through the summary hook in conftest.
The remark-comparison clause of the last guarantee is kept as a strict
expected failure: the two bounds it relates differ by a fixed constant
factor, so the stated 10% agreement cannot hold; see the companion
test for what the large-parameter bound actually converges to.
"""

import math
import time

import numpy as np
import pytest

from bernseries import (
    PSI,
    C0Function,
    FunctionHandle,
    GridSpec,
    Polynomial,
    apply_A_rho,
    apply_series,
    apply_series_poly,
    apply_U,
    apply_U_poly,
    bernstein,
    build_u_matrix,
    check_bound,
    compute_eigensystem,
    deflate_by_psi,
    eigenvalue,
    inverse_neg,
    inverse_neg_polynomial,
    inverse_norm_check,
    limit_eigenpoly,
    limit_eigenvalue,
    poly_eval,
    poly_limit,
    residual_H,
    standard_corpus,
    theorem52_rhs,
    bernstein_limit_rhs,
)

GRID129 = GridSpec.uniform(129)


def test_criterion_01_operator_norm_cofactor():
    t0 = time.perf_counter()
    for n in range(2, 31):
        for rho in (0.1, 0.5, 1.0, 2.0, 10.0):
            img = apply_U_poly(build_u_matrix(n, rho), PSI)
            h = deflate_by_psi(img)
            c = (n - 1.0) * rho / (n * rho + 1.0)
            want = np.zeros(max(n - 1, 1))
            want[0] = c
            assert np.max(np.abs(h.padded(want.size) - want)) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_eigenstructure():
    t0 = time.perf_counter()
    for n in range(1, 31):
        for rho in (0.1, 1.0, 10.0):
            mat = build_u_matrix(n, rho)
            sys_ = compute_eigensystem(mat)
            lam = np.asarray(sys_.lambdas)
            R = mat.M @ sys_.basis - sys_.basis * lam
            assert np.max(np.abs(R)) <= 1e-9
            if n >= 2:
                B = sys_.basis
                assert np.max(np.abs(B[0, 2:])) <= 1e-9
                assert np.max(np.abs(B[:, 2:].sum(axis=0))) <= 1e-9
            formula = np.array([eigenvalue(n, rho, j) for j in range(n + 1)])
            assert np.max(np.abs(np.diag(mat.M) - formula)) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_eigenvalue_asymptotics():
    t0 = time.perf_counter()
    for j in (2, 3, 4):
        star = limit_eigenvalue(1.0, j)
        gaps = [abs(n * (eigenvalue(n, 1.0, j) - 1.0) - star)
                for n in (20, 40, 80, 160)]
        for a, b in zip(gaps, gaps[1:]):
            assert 0.425 <= b / a <= 0.575
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_series_routes_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    xs = np.linspace(0, 1, 65)
    rhos = (0.5, 1.0, 2.0)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        rho = rhos[trial % 3]
        h = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, n - 1))))
        res = apply_series(n, rho, C0Function(h))
        closed = apply_series_poly(n, rho, PSI * h)
        got = xs * (1 - xs) * np.asarray(res.h(xs))
        assert np.max(np.abs(got - poly_eval(closed, xs))) <= 2e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_series_norm_on_weight():
    t0 = time.perf_counter()
    xs = np.linspace(0, 1, 65)
    for n in (2, 8, 32):
        for rho in (0.5, 1.0, 2.0, 10.0):
            res = apply_series(n, rho, C0Function(Polynomial([1.0])),
                               tol=1e-12)
            c = rho / (rho + 1.0)
            assert np.max(np.abs(np.asarray(res.h(xs)) - c)) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_inverse_round_trip_and_norm():
    t0 = time.perf_counter()
    rng = np.random.default_rng(601)
    xs = np.linspace(0, 1, 65)
    rhos = (0.5, 1.0, 2.0, 5.0)
    for trial in range(25):
        rho = rhos[trial % 4]
        h = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 12))))
        f = C0Function(h)
        F = inverse_neg_polynomial(rho, f)
        back = apply_A_rho(rho, F)
        assert np.max(np.abs(back(xs) + poly_eval(PSI * h, xs))) <= 1e-9
    for rho in rhos:
        lhs, rhs = inverse_norm_check(rho, C0Function(Polynomial([1.0])))
        assert abs(lhs - rhs) <= 1e-10
    assert time.perf_counter() - t0 < 2.0


def test_criterion_07_limit_eigen_differential_identity():
    t0 = time.perf_counter()
    for j in range(2, 11):
        p = limit_eigenpoly(j)
        lhs = PSI * p.derivative().derivative()
        rhs = p * float(-j * (j - 1))
        m = max(lhs.degree, rhs.degree) + 1
        assert np.max(np.abs(lhs.padded(m) - rhs.padded(m))) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_08_series_limit_equals_inverse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(801)
    rhos = (0.5, 1.0, 2.0)
    for trial in range(20):
        rho = rhos[trial % 3]
        h = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 10))))
        p = PSI * h
        want = inverse_neg(rho, C0Function(h), GRID129.points)
        got = poly_eval(poly_limit(p, rho), GRID129.points)
        assert np.max(np.abs(got - want)) <= 1e-8
    assert time.perf_counter() - t0 < 2.0


def test_criterion_09_residual_convergence_trend():
    t0 = time.perf_counter()
    for name, h in standard_corpus().items():
        for rho in (0.5, 1.0, 2.0):
            sups = [float(np.max(np.abs(residual_H(n, rho, h,
                                                   GRID129.points))))
                    for n in (8, 16, 32, 64)]
            if max(sups) <= 2e-9:
                # constant cofactors are mapped identically by both
                # routes; the profile is pure truncation noise with no
                # trend to measure
                continue
            assert all(a > b for a, b in zip(sups, sups[1:])), (name, rho)
            assert sups[3] < 0.25 * sups[0], (name, rho, sups)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_quantitative_bound_holds():
    t0 = time.perf_counter()
    for name, h in standard_corpus().items():
        for rho in (0.5, 1.0, 2.0, 5.0):
            for n in (16, 32, 64):
                rep = check_bound(h, n, rho, GRID129)
                assert rep.satisfied, (name, rho, n, rep.margin)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_parameter_extremes():
    t0 = time.perf_counter()
    n = 16
    cube = Polynomial([0.0, 0.0, 0.0, 1.0])
    f = FunctionHandle.from_polynomial(cube)
    xs = GRID129.points
    sampled = poly_eval(bernstein(n, f), xs)
    big = apply_U(n, 1e4, f, xs)
    assert np.max(np.abs(big - sampled)) <= 1e-3
    chord = poly_eval(cube, 0.0) * (1 - xs) + poly_eval(cube, 1.0) * xs
    small = apply_U(n, 1e-4, f, xs)
    assert np.max(np.abs(small - chord)) <= 1e-3
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at large parameter values the pointwise bound converges to "
        "one third of the first-modulus term alone, while the sampling "
        "bound keeps the factor 3 and both moduli; for the identity "
        "cofactor at n = 16 their ratio is 2/9, far outside 10%"
    ),
)
def test_criterion_11_remark_comparison():
    n = 16
    e1 = Polynomial([0.0, 1.0])
    x = 0.5
    r52 = theorem52_rhs(e1, n, 1e4, x, GRID129)
    rrem = bernstein_limit_rhs(e1, n, x, GRID129)
    assert abs(r52 / rrem - 1.0) <= 0.10


def test_criterion_11_remark_limit():
    # what the bound actually approaches as the parameter grows: the
    # step tends to 1/4 at n = 16 and only the first-modulus term
    # survives, with constant 2/3
    e1 = Polynomial([0.0, 1.0])
    x = 0.37
    got = theorem52_rhs(e1, 16, 1e4, x, GRID129)
    eps = 0.25
    w1 = math.floor(eps * 128.0) / 128.0
    want = x * (1 - x) * (2.0 / 3.0) * eps * w1
    assert abs(got / want - 1.0) <= 1e-3
