"""Every public entry point that takes rho rejects a rho outside (0, inf)."""

import math

import numpy as np
import pytest

import bernseries as bs
from bernseries.cli import ExperimentConfig, main

H = bs.Polynomial([1.0, -0.5])
F = bs.C0Function(H)
HANDLE = bs.FunctionHandle.from_polynomial(bs.PSI)

# name -> call with the rho under test
ENTRY_POINTS = {
    "functional_moment": lambda r: bs.functional_moment(8, 3, r, 2),
    "apply_F": lambda r: bs.apply_F(
        8, 3, r, HANDLE, bs.QuadratureRule.beta_rule(2.0, 4.0, 20)),
    "u_matrix_leading_block": lambda r: bs.u_matrix_leading_block(8, r, 4),
    "UOperatorMatrix": lambda r: bs.UOperatorMatrix(1, r, np.eye(2)),
    "build_u_matrix": lambda r: bs.build_u_matrix(8, r),
    "apply_U": lambda r: bs.apply_U(8, r, HANDLE, 0.5),
    "central_moment": lambda r: bs.central_moment(8, r, 0.5, 2),
    "u_norm0": lambda r: bs.u_norm0(8, r),
    "eigenvalue": lambda r: bs.eigenvalue(8, r, 2),
    "limit_eigenvalue": lambda r: bs.limit_eigenvalue(r, 2),
    "asymptotic_report": lambda r: bs.asymptotic_report(r, 2, [8]),
    "apply_series": lambda r: bs.apply_series(8, r, F),
    "apply_series_poly": lambda r: bs.apply_series_poly(8, r, bs.PSI),
    "poly_limit": lambda r: bs.poly_limit(bs.PSI, r),
    "apply_A_rho": lambda r: bs.apply_A_rho(r, bs.PSI),
    "inverse_neg": lambda r: bs.inverse_neg(r, F, 0.5),
    "inverse_neg_polynomial": lambda r: bs.inverse_neg_polynomial(r, F),
    "inverse_norm_check": lambda r: bs.inverse_norm_check(r, F),
    "residual_H": lambda r: bs.residual_H(8, r, H, 0.5),
    "epsilon_step": lambda r: bs.epsilon_step(8, r),
    "admissible_n": lambda r: bs.admissible_n(8, r),
    "theorem52_rhs": lambda r: bs.theorem52_rhs(H, 64, r, 0.5),
    "check_bound": lambda r: bs.check_bound(H, 16, r),
    "convergence_table": lambda r: bs.convergence_table(H, r, [8]),
    "ExperimentConfig": lambda r: ExperimentConfig(
        command="eigen", n_list=[4], rho_list=[r]),
}


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_rho_outside_range(name, rho):
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        ENTRY_POINTS[name](rho)


def test_valid_rho_reaches_every_entry_point():
    # the same calls succeed at rho = 1, so each rejection above is the
    # rho check and not some other argument
    for call in ENTRY_POINTS.values():
        call(1.0)


def test_cli_rejects_nan_rho(tmp_path, capsys):
    code = main(["eigen", "--n", "6", "--rho", "nan",
                 "--out", str(tmp_path / "eigen.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rho must be positive and finite")
    assert not (tmp_path / "eigen.csv").exists()
