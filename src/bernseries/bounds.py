"""Quantitative sup bounds on the series-minus-limit residual.

The residual of a cofactor h is controlled pointwise by the weight
times a bracket built from the first and second moduli of smoothness
of h at the step

    epsilon = sqrt((rho + 2) / (n rho + 2)),

valid once n is large enough that epsilon <= 1/2. The sampling-limit
counterpart replaces the step by 1/sqrt(n) with fixed constants. Grid
moduli are lower estimates of the true moduli, so verification adds a
small slack on the bound side rather than ever relaxing the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .polyfun import (
    FunctionHandle,
    GridSpec,
    _as_handle,
    omega,
    psi_values,
)
from .operators import QUAD_TOL, _require_rho
from .voronovskaya import _residual_profile

__all__ = [
    "DEFAULT_BOUND_GRID",
    "BoundReport",
    "ConvergenceRecord",
    "admissible_n",
    "epsilon_step",
    "theorem52_rhs",
    "check_bound",
    "bernstein_limit_rhs",
    "convergence_table",
]

DEFAULT_BOUND_GRID = GridSpec.uniform(129)

# The admissibility threshold is often an exact integer (rho = 2 gives
# n >= 7); a hair of float fuzz keeps those boundary cases inside.
_ADMIT_FUZZ = 1e-9


def epsilon_step(n: int, rho: float) -> float:
    """Modulus step sqrt((rho + 2) / (n rho + 2))."""
    _require_rho(rho)
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt((rho + 2.0) / (n * rho + 2.0))


def admissible_n(n: int, rho: float) -> bool:
    """Whether n clears (4 rho + 6) / rho, i.e. the step is <= 1/2."""
    _require_rho(rho)
    return n + _ADMIT_FUZZ >= (4.0 * rho + 6.0) / rho


def _bracket52(h: FunctionHandle, n: int, rho: float,
               grid: GridSpec) -> float:
    """x-independent factor of the residual bound at (n, rho)."""
    eps = epsilon_step(n, rho)
    c1 = 2.0 * rho / (3.0 * (rho + 1.0))
    w1 = omega(h, 1, eps, grid)
    w2 = omega(h, 2, eps, grid)
    c2 = (2.0 * rho / (rho + 1.0)
          + c1 * eps
          + 7.0 * (rho + 3.0) / (6.0 * (rho + 1.0)))
    return c1 * eps * w1 + 0.75 * c2 * w2


def theorem52_rhs(h, n: int, rho: float, x,
                  grid: Optional[GridSpec] = None):
    """Pointwise residual bound: weight times the modulus bracket.

    Moduli are measured on the supplied grid. Rejects n below the
    admissibility threshold, where the second modulus step would pass
    1/2 and the bound does not apply.
    """
    if not admissible_n(n, rho):
        raise ValueError(
            f"n={n} is below the admissibility threshold "
            f"{(4.0 * rho + 6.0) / rho:.6g} for rho={rho}"
        )
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    bracket = _bracket52(handle, n, rho, grid)
    return psi_values(x) * bracket


@dataclass(frozen=True)
class BoundReport:
    """Per-point residual profile against the bound profile.

    ``margin`` is the grid minimum of rhs - lhs; the check passes when
    it stays above minus the slack, the series tolerance plus ten times
    the quadrature tolerance, which covers series truncation and the
    grid underestimation of the moduli.
    """

    n: int
    rho: float
    epsilon: float
    grid: GridSpec
    lhs: np.ndarray
    rhs: np.ndarray
    margin: float
    satisfied: bool
    slack: float
    iterations: int

    def __post_init__(self):
        lhs = np.asarray(self.lhs, dtype=float).copy()
        rhs = np.asarray(self.rhs, dtype=float).copy()
        lhs.flags.writeable = False
        rhs.flags.writeable = False
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


def check_bound(h, n: int, rho: float,
                grid: Optional[GridSpec] = None,
                tol: float = 1e-9) -> BoundReport:
    """Evaluate residual and bound over a grid and compare.

    The slack adds the series tolerance and ten times the quadrature
    tolerance on the bound side; a violation beyond that is a genuine
    one.
    """
    _require_rho(rho)
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    slack = tol + 10.0 * QUAD_TOL
    vals, iters = _residual_profile(n, rho, handle, grid.points, tol)
    lhs = np.abs(vals)
    rhs = theorem52_rhs(handle, n, rho, grid.points, grid)
    margin = float(np.min(rhs - lhs))
    return BoundReport(
        n=int(n), rho=float(rho), epsilon=epsilon_step(n, rho),
        grid=grid, lhs=lhs, rhs=rhs, margin=margin,
        satisfied=bool(margin >= -slack), slack=slack,
        iterations=int(iters),
    )


def bernstein_limit_rhs(h, n: int, x, grid: Optional[GridSpec] = None):
    """Sampling-limit residual bound with step 1/sqrt(n), for n >= 10."""
    if n < 10:
        raise ValueError("the sampling-limit bound needs n >= 10")
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    delta = 1.0 / math.sqrt(n)
    bracket = 3.0 * (delta * omega(handle, 1, delta, grid)
                     + omega(handle, 2, delta, grid))
    return psi_values(x) * bracket


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of the residual-versus-bound sweep."""

    n: int
    rho: float
    sup_h: float
    sup_rhs: float
    iterations: int


def convergence_table(h, rho: float, n_list: Iterable[int],
                      grid: Optional[GridSpec] = None,
                      tol: float = 1e-9
                      ) -> Tuple[ConvergenceRecord, ...]:
    """Grid sups of the residual and of its bound across n values.

    Rows below the admissibility threshold still report the residual
    sup but carry NaN in the bound column, since the bound is not
    asserted there.
    """
    _require_rho(rho)
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    records = []
    for n in n_list:
        vals, iters = _residual_profile(n, rho, handle, grid.points, tol)
        sup_h = float(np.max(np.abs(vals)))
        if admissible_n(n, rho):
            bracket = _bracket52(handle, n, rho, grid)
            sup_rhs = float(np.max(psi_values(grid.points)) * bracket)
        else:
            sup_rhs = math.nan
        records.append(ConvergenceRecord(int(n), float(rho), sup_h,
                                         sup_rhs, int(iters)))
    return tuple(records)
