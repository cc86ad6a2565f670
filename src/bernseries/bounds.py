"""Quantitative sup bounds on the series-minus-limit residual.

The residual of a cofactor h is controlled pointwise by the weight
times a bracket built from the first and second moduli of smoothness
of h at the step

    epsilon = sqrt((rho + 2) / (n rho + 2)),

valid once n is large enough that epsilon <= 1/2; ``theorem52_rhs`` is
its one definition. Every formula here reads rho = r / w through
``operators._homogeneous``, so at rho = inf the step is 1/sqrt(n).
The sampling-limit counterpart replaces the step by 1/sqrt(n) with
fixed constants. Grid moduli are lower estimates of the true moduli,
so verification adds a small slack on the bound side rather than ever
relaxing the residual.
The series behind the residual is summed exactly; its fixed truncation
tolerance enters only the slack and the reported iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .polyfun import (
    C0Function,
    GridSpec,
    _as_handle,
    _require_unit_interval,
    omega,
    psi_values,
)
from .operators import QUAD_TOL, _homogeneous, _n_rho
from .series import _TOL
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
    """Modulus step sqrt((rho + 2) / (n rho + 2)), 1/sqrt(n) at rho = inf."""
    r, w = _n_rho(n, rho)
    return math.sqrt((r + 2.0 * w) / (n * r + 2.0 * w))


def _admission_threshold(rho: float) -> float:
    """(4 rho + 6) / rho, the least n whose step is <= 1/2; 4 at rho = inf."""
    r, w = _homogeneous(rho)
    return (4.0 * r + 6.0 * w) / r


def admissible_n(n: int, rho: float) -> bool:
    """Whether n clears (4 rho + 6) / rho, i.e. the step is <= 1/2."""
    _n_rho(n, rho)
    return n + _ADMIT_FUZZ >= _admission_threshold(rho)


def theorem52_rhs(h, n: int, rho: float, x,
                  grid: Optional[GridSpec] = None):
    """Pointwise residual bound: weight times the modulus bracket.

    The bound columns of ``check_bound`` and ``convergence_table``
    read it. Moduli are measured on the supplied grid. Rejects n below the
    admissibility threshold, where the second modulus step would pass
    1/2 and the bound does not apply, and points outside [0, 1], where
    the weight turns negative.
    """
    _require_unit_interval(x)
    if not admissible_n(n, rho):
        raise ValueError(
            f"n={n} is below the admissibility threshold "
            f"{_admission_threshold(rho):.6g} for rho={rho}"
        )
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    eps = epsilon_step(n, rho)
    r, w = _homogeneous(rho)
    c1 = 2.0 * r / (3.0 * (r + w))
    c2 = (2.0 * r / (r + w)
          + c1 * eps
          + 7.0 * (r + 3.0 * w) / (6.0 * (r + w)))
    bracket = (c1 * eps * omega(handle, 1, eps, grid)
               + 0.75 * c2 * omega(handle, 2, eps, grid))
    return psi_values(x) * bracket


@dataclass(frozen=True)
class BoundReport:
    """Per-point residual profile against the bound profile.

    ``margin`` is the grid minimum of rhs - lhs; the check passes when
    it stays above minus the slack, the fixed series tolerance 1e-9
    plus ten times the quadrature tolerance, which covers the grid
    underestimation of the moduli. ``iterations`` is the series
    truncation count reported for that tolerance.
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
                grid: Optional[GridSpec] = None) -> BoundReport:
    """Evaluate residual and bound over a grid and compare.

    The slack adds the fixed series tolerance 1e-9 and ten times the
    quadrature tolerance on the bound side; a violation beyond that is
    a genuine one. The bound is built first, so n, rho and
    admissibility are checked before the series is summed.
    """
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    rhs = theorem52_rhs(handle, n, rho, grid.points, grid)
    slack = _TOL + 10.0 * QUAD_TOL
    vals, _, summed = _residual_profile(n, rho, handle, grid.points)
    lhs = np.abs(vals)
    margin = float(np.min(rhs - lhs))
    return BoundReport(
        n=int(n), rho=float(rho), epsilon=epsilon_step(n, rho),
        grid=grid, lhs=lhs, rhs=rhs, margin=margin,
        satisfied=bool(margin >= -slack), slack=slack,
        iterations=summed.iterations,
    )


def bernstein_limit_rhs(h, n: int, x, grid: Optional[GridSpec] = None):
    """Sampling-limit residual bound with step 1/sqrt(n), for n >= 10
    and x in [0, 1]."""
    _require_unit_interval(x)
    _n_rho(n, math.inf)
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
                      grid: Optional[GridSpec] = None
                      ) -> Tuple[ConvergenceRecord, ...]:
    """Grid sups of the residual and of its bound across n values.

    Rows below the admissibility threshold still report the residual
    sup but carry NaN in the bound column, since the bound is not
    asserted there.
    """
    _homogeneous(rho)
    handle = _as_handle(h)
    if grid is None:
        grid = DEFAULT_BOUND_GRID
    # One pinned input for the sweep, so its norm is estimated once.
    f = C0Function(handle)
    records = []
    for n in n_list:
        vals, _, summed = _residual_profile(n, rho, f, grid.points)
        sup_h = float(np.max(np.abs(vals)))
        if admissible_n(n, rho):
            # the bracket is >= 0, so this is max(psi) * bracket, bit for bit
            sup_rhs = float(np.max(theorem52_rhs(handle, n, rho,
                                                 grid.points, grid)))
        else:
            sup_rhs = math.nan
        records.append(ConvergenceRecord(int(n), float(rho), sup_h,
                                         sup_rhs, summed.iterations))
    return tuple(records)
