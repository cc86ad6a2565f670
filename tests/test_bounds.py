"""Quantitative residual bounds and the convergence sweep."""

import math

import numpy as np
import pytest

from bernseries import (
    C0Function,
    GridSpec,
    Polynomial,
    admissible_n,
    bernstein_limit_rhs,
    check_bound,
    convergence_table,
    epsilon_step,
    standard_corpus,
    theorem52_rhs,
)
from bernseries.operators import QUAD_TOL

U129 = GridSpec.uniform(129)
E1 = Polynomial([0.0, 1.0])


class TestEpsilonStep:
    def test_formula(self):
        assert epsilon_step(16, 1.0) == math.sqrt(3.0 / 18.0)
        assert abs(epsilon_step(10, 2.0) - math.sqrt(4.0 / 22.0)) < 1e-16

    def test_sampling_step(self):
        # at rho = inf the step is 1/sqrt(n)
        assert epsilon_step(16, math.inf) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            epsilon_step(0, 1.0)
        with pytest.raises(ValueError):
            epsilon_step(4, 0.0)


class TestAdmissibleN:
    def test_boundary_table(self):
        # threshold (4 rho + 6) / rho
        assert admissible_n(7, 2.0) and not admissible_n(6, 2.0)
        assert admissible_n(16, 0.5) and not admissible_n(15, 0.5)
        assert admissible_n(10, 1.0) and not admissible_n(9, 1.0)

    def test_exact_threshold_passes(self):
        # rho = 2 puts the threshold exactly at 7
        assert admissible_n(7, 2.0)

    def test_sampling_threshold_is_four(self):
        assert admissible_n(4, math.inf) and not admissible_n(3, math.inf)
        with pytest.raises(ValueError, match=r"threshold 4 for rho=inf"):
            theorem52_rhs(E1, 3, math.inf, 0.5)


class TestTheorem52Rhs:
    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            theorem52_rhs(E1, 9, 1.0, 0.5)

    def test_constant_cofactor_gives_zero(self):
        v = theorem52_rhs(Polynomial([3.0]), 16, 1.0, 0.5, U129)
        assert v == 0.0

    def test_endpoints_vanish(self):
        assert theorem52_rhs(E1, 16, 1.0, 0.0, U129) == 0.0
        assert theorem52_rhs(E1, 16, 1.0, 1.0, U129) == 0.0

    def test_frozen_affine_oracle(self):
        # for h = identity both moduli are explicit: the first is the
        # largest grid-representable increment under eps, the second
        # vanishes; bracket = c1 * eps * w1 with c1 = 1/3 at rho = 1
        eps = math.sqrt(3.0 / 18.0)
        w1 = math.floor(eps * 128.0) / 128.0
        want = 0.25 * (1.0 / 3.0) * eps * w1
        got = theorem52_rhs(E1, 16, 1.0, 0.5, U129)
        assert abs(got - want) < 1e-12 * want

    def test_callable_cofactor_accepted(self):
        v = theorem52_rhs(lambda x: np.sin(np.asarray(x)), 16, 1.0, 0.5)
        assert v > 0.0

    def test_rejects_wrapped_function(self):
        with pytest.raises(TypeError):
            theorem52_rhs(C0Function(E1), 16, 1.0, 0.5)


class TestCheckBound:
    def test_constant_cofactor_degenerate(self):
        rep = check_bound(Polynomial([1.0]), 16, 1.0)
        assert rep.satisfied
        assert np.max(rep.lhs) <= 2e-9
        assert np.max(rep.rhs) == 0.0

    def test_affine_cofactor_positive_margin(self):
        # both profiles vanish at the endpoints, so the global margin
        # is exactly zero there and strictly positive inside
        rep = check_bound(E1, 16, 1.0)
        assert rep.satisfied
        assert rep.margin == 0.0
        assert np.min((rep.rhs - rep.lhs)[1:-1]) > 0.0
        assert rep.iterations > 0
        assert rep.epsilon == epsilon_step(16, 1.0)

    def test_admissibility_checked_before_the_series(self):
        # the kink's Beta quadrature does not settle at n = 9, so the
        # series, summed first before, hid the admissibility error
        with pytest.raises(ValueError, match="n=9 is below the "
                                             "admissibility threshold 10"):
            check_bound(lambda x: np.abs(x - 0.5), 9, 1.0)

    def test_report_arrays_locked(self):
        rep = check_bound(E1, 16, 1.0)
        with pytest.raises(ValueError):
            rep.lhs[0] = 1.0

    def test_satisfied_consistent_with_margin(self):
        rep = check_bound(Polynomial([0.5, -1.0, 2.0]), 20, 0.8)
        assert rep.satisfied == (rep.margin >= -rep.slack)
        assert rep.lhs.shape == rep.rhs.shape == (129,)

    def test_slack_is_fixed(self):
        # the series is summed exactly, so its fixed tolerance is not a
        # parameter that could widen the slack
        rep = check_bound(E1, 16, 1.0)
        assert rep.slack == 1e-9 + 10.0 * QUAD_TOL
        with pytest.raises(TypeError):
            check_bound(E1, 16, 1.0, tol=1e-3)
        with pytest.raises(TypeError):
            convergence_table(E1, 1.0, [16], tol=1e-3)


    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_holds_at_infinite_rho(self, n):
        # the sampling member; measured at most lhs / rhs = 0.171, on
        # affine at n = 16
        for name, h in standard_corpus().items():
            rep = check_bound(h, n, math.inf)
            assert rep.satisfied, (name, n, rep.margin)
            assert rep.epsilon == 1.0 / math.sqrt(n)


class TestBernsteinLimitRhs:
    def test_needs_ten_nodes(self):
        with pytest.raises(ValueError):
            bernstein_limit_rhs(E1, 9, 0.5)

    def test_constant_gives_zero(self):
        assert bernstein_limit_rhs(Polynomial([2.0]), 16, 0.5, U129) == 0.0

    def test_frozen_affine_oracle(self):
        # delta = 1/4 is grid-aligned on 129 uniform points, so the
        # first modulus is exactly 1/4 and the second exactly 0
        got = bernstein_limit_rhs(E1, 16, 0.5, U129)
        assert got == 0.25 * 3.0 * 0.25 * 0.25


class TestConvergenceTable:
    def test_empty(self):
        assert convergence_table(E1, 1.0, []) == ()

    def test_constant_cofactor_noise_floor(self):
        recs = convergence_table(Polynomial([1.0]), 1.0, [16, 32])
        for r in recs:
            assert r.sup_h <= 2e-9
            assert r.sup_rhs == 0.0

    def test_inadmissible_rows_carry_nan(self):
        recs = convergence_table(E1, 1.0, [8, 16])
        assert math.isnan(recs[0].sup_rhs)
        assert recs[0].sup_h > 0.0 or recs[0].sup_h == 0.0
        assert not math.isnan(recs[1].sup_rhs)

    def test_bound_sup_decreases(self):
        h = Polynomial([0.0, 1.0, -1.0, 0.5])
        recs = convergence_table(h, 1.0, [16, 32, 64])
        sups = [r.sup_rhs for r in recs]
        assert sups[0] > sups[1] > sups[2]

    def test_doubling_ratio_near_half(self):
        # sqrt-step moduli of a smooth cofactor put the per-doubling
        # decay of the bound between one half and the 1/n floor of the
        # leading term; the measured ratio sits just above 1/2
        h = Polynomial([0.0, 1.0, -1.0, 0.5])
        recs = convergence_table(h, 1.0, [32, 64, 128])
        for a, b in zip(recs, recs[1:]):
            assert 0.4 < b.sup_rhs / a.sup_rhs < 0.65

    def test_residual_sup_shrinks(self):
        recs = convergence_table(E1, 2.0, [8, 64])
        assert recs[1].sup_h < 0.5 * recs[0].sup_h

    @pytest.mark.parametrize("h", [standard_corpus()["cheb6"], np.cos])
    def test_input_norm_once_per_sweep(self, monkeypatch, h):
        from bernseries import polyfun
        calls = []
        real = polyfun.sup_norm
        monkeypatch.setattr(polyfun, "sup_norm",
                            lambda *a: calls.append(a) or real(*a))
        recs = convergence_table(h, 1.0, [8, 16, 32, 64])
        assert len(recs) == 4
        assert len(calls) == 1
