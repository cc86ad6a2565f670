"""Property sweep of the quadrature path against the polynomial routes.

A polynomial handed over as a bare callable takes the interior Beta
rules in ``apply_U`` and the quadrature first vector in the series; the
same polynomial as a ``Polynomial`` takes the exact monomial routes.
Both must agree over n and rho drawn log-uniform, rho in [1e-4, 1e4],
so that the large n stay a few examples.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from bernseries import (
    QUAD_TOL,
    C0Function,
    FunctionHandle,
    Polynomial,
    apply_series,
    apply_U,
    poly_eval,
    residual_H,
)
from bernseries.operators import _leading_block

# Accuracy stated for summed series values (the series tolerance plus
# ten quadrature tolerances), relative above magnitude one.
SERIES_ATOL = 1e-9 + 10 * QUAD_TOL
XS = np.linspace(0.0, 1.0, 9)


def _log_uniform_n(hi):
    return st.floats(math.log(2.0), math.log(hi)).map(
        lambda t: min(hi, max(2, round(math.exp(t)))))


RHOS = st.floats(math.log(1e-4), math.log(1e4)).map(math.exp)
COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9).map(
    np.array)


def _bare(c):
    return lambda x: npoly.polyval(x, c)


def _assert_close(got, want):
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - want)) <= SERIES_ATOL * scale


@settings(max_examples=25)
@given(n=_log_uniform_n(4096), rho=RHOS, c=COEFFS)
def test_apply_U_matches_monomial_images(n, rho, c):
    want = poly_eval(Polynomial(_leading_block(n, rho, c.size - 1) @ c), XS)
    _assert_close(apply_U(n, rho, FunctionHandle.from_callable(_bare(c)),
                          XS), want)


@settings(max_examples=25)
@given(n=_log_uniform_n(512), rho=RHOS, c=COEFFS)
# a subnormal cofactor, once drawn, made the truncation count divide by 0
@example(n=8, rho=1.0, c=np.array([5e-324]))
def test_apply_series_matches_polynomial_route(n, rho, c):
    got = apply_series(n, rho, C0Function(_bare(c)))
    want = apply_series(n, rho, C0Function(Polynomial(c)))
    _assert_close(got.h(XS), want.h(XS))


@settings(max_examples=25)
@given(n=_log_uniform_n(512), rho=RHOS, c=COEFFS)
def test_residual_H_matches_polynomial_route(n, rho, c):
    _assert_close(residual_H(n, rho, _bare(c), XS),
                  residual_H(n, rho, Polynomial(c), XS))
