"""Command-line experiment driver with reproducible CSV/JSON output.

Six subcommands expose the library: pointwise operator application,
the eigensystem with its limit distances, the summed operator series,
the limit inverse with its residual, the residual convergence sweep,
and the quantitative bound check. Identical configurations produce
byte-identical output files; numbers are printed with 12 significant
digits.

The function argument names a corpus cofactor (``--fn h=cheb6``),
gives inline cofactor coefficients (``--fn h=0,1``), or, for the
apply command only, gives the function itself (``--fn f=0,1,-1``).
``BERNSERIES_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polyfun import C0Function, FunctionHandle, GridSpec, Polynomial, poly_eval
from .operators import _require_rho, apply_U, build_u_matrix
from .eigen import compute_eigensystem, limit_eigenvalue
from .polyfun import limit_eigenpoly
from .series import apply_series
from .voronovskaya import inverse_neg, residual_H
from .bounds import check_bound, convergence_table
from .corpus import corpus_entry

__all__ = ["ExperimentConfig", "run", "main"]

OUT_DIR_ENV = "BERNSERIES_OUT_DIR"

# Subcommand name -> its help text, in the order ``--help`` lists them.
_COMMANDS = {
    "apply": "tabulate the operator image of f on the grid "
             "(columns x, f_value, u_value)",
    "eigen": "dump eigenvalues, eigenpolynomial coefficients, and "
             "limit distances (columns j, lambda, gap, dist_limit, "
             "coeffs)",
    "series": "tabulate the summed operator series "
              "(columns x, value; iteration summary)",
    "voronovskaya": "tabulate the limit inverse and the residual "
                    "(columns x, inverse_value, residual)",
    "converge": "sweep the residual sup over n (columns n, rho, "
                "sup_H, sup_rhs, iters)",
    "bound": "check the quantitative residual bound (columns x, "
             "lhs, rhs, margin; summary record)",
}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description.

    ``fn_kind`` is "h-name", "h-coeffs", or "f-coeffs"; the latter is
    accepted by the apply command only, since every other command works
    through the cofactor.
    """

    command: str
    n_list: List[int]
    rho_list: List[float]
    fn_kind: str = "h-name"
    fn_name: str = "one"
    fn_coeffs: Optional[List[float]] = None
    grid_kind: str = "uniform"
    grid_size: int = 129
    tol: float = 1e-9
    out_path: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not self.n_list:
            raise ValueError("at least one n value is required")
        if any(n < 1 for n in self.n_list):
            raise ValueError("n values must be positive")
        if not self.rho_list:
            raise ValueError("at least one rho value is required")
        for rho in self.rho_list:
            _require_rho(rho)
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.grid_kind not in ("uniform", "chebyshev"):
            raise ValueError(f"unknown grid kind {self.grid_kind!r}")
        if self.grid_size < 2:
            raise ValueError("grid size must be at least 2")
        if self.fn_kind == "f-coeffs" and self.command != "apply":
            raise ValueError(
                "a raw function spec (f=...) is only supported by apply; "
                "give the cofactor instead (h=...)"
            )
        if self.command != "converge":
            if len(self.n_list) != 1:
                raise ValueError(f"{self.command} takes exactly one n")
            if len(self.rho_list) != 1:
                raise ValueError(f"{self.command} takes exactly one rho")

    def grid(self) -> GridSpec:
        if self.grid_kind == "uniform":
            return GridSpec.uniform(self.grid_size)
        return GridSpec.chebyshev(self.grid_size)

    def cofactor(self) -> Polynomial:
        if self.fn_kind == "h-name":
            return corpus_entry(self.fn_name)
        if self.fn_kind == "h-coeffs":
            return Polynomial(self.fn_coeffs)
        raise ValueError("a raw function spec has no cofactor")

    def resolved_out(self) -> str:
        if self.out_path:
            return self.out_path
        base = os.environ.get(OUT_DIR_ENV, ".")
        return os.path.join(base, f"{self.command}.{self.fmt}")


def _fmt(v) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # collapse negative zero
    return f"{v:.12g}"


def _round12(v) -> float:
    return float(_fmt(v))


def _parse_fn(spec: str) -> Tuple[str, str, Optional[List[float]]]:
    if "=" not in spec:
        raise ValueError(
            f"function spec {spec!r} must look like h=NAME, h=c0,c1,... "
            "or f=c0,c1,..."
        )
    key, payload = spec.split("=", 1)
    key = key.strip()
    payload = payload.strip()
    if key not in ("h", "f"):
        raise ValueError(f"function spec key must be h or f, got {key!r}")
    if not payload:
        raise ValueError("empty function payload")
    try:
        coeffs = [float(tok) for tok in payload.split(",")]
        kind = "h-coeffs" if key == "h" else "f-coeffs"
        return kind, "", coeffs
    except ValueError:
        if key == "f":
            raise ValueError(
                "f= takes inline coefficients; corpus names are cofactors"
            ) from None
        return "h-name", payload, None


def _execute(cfg: ExperimentConfig):
    """Dispatch to the library; returns (header, rows, summary)."""
    grid = cfg.grid()
    pts = grid.points
    if cfg.command == "apply":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        if cfg.fn_kind == "f-coeffs":
            f = FunctionHandle.from_polynomial(Polynomial(cfg.fn_coeffs))
        else:
            f = FunctionHandle.from_polynomial(
                Polynomial([0.0, 1.0, -1.0]) * cfg.cofactor()
            )
        uvals = apply_U(n, rho, f, pts)
        fvals = f(pts)
        rows = [[x, fv, uv] for x, fv, uv in zip(pts, fvals, uvals)]
        return ["x", "f_value", "u_value"], rows, {"n": n, "rho": rho}
    if cfg.command == "eigen":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        sys_ = compute_eigensystem(build_u_matrix(n, rho))
        rows = []
        for j in range(n + 1):
            lam = float(sys_.lambdas[j])
            gap = abs(n * (lam - 1.0) - limit_eigenvalue(rho, j))
            pj = sys_.eigenpolys[j]
            star = limit_eigenpoly(j)
            dist = float(np.max(np.abs(
                poly_eval(pj, pts) - poly_eval(star, pts)
            )))
            coeffs = ";".join(_fmt(c) for c in pj.coeffs)
            rows.append([j, lam, gap, dist, coeffs])
        return (["j", "lambda", "gap", "dist_limit", "coeffs"], rows,
                {"n": n, "rho": rho})
    if cfg.command == "series":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        f = C0Function(cfg.cofactor())
        res = apply_series(n, rho, f, tol=cfg.tol)
        vals = res.value(pts)
        rows = [[x, v] for x, v in zip(pts, vals)]
        return ["x", "value"], rows, {
            "n": n, "rho": rho, "iters": res.iterations,
            "tail_bound": res.tail_bound,
        }
    if cfg.command == "voronovskaya":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        h = cfg.cofactor()
        f = C0Function(h)
        inv = inverse_neg(rho, f, pts)
        resid = residual_H(n, rho, h, pts, tol=cfg.tol)
        rows = [[x, iv, rv] for x, iv, rv in zip(pts, inv, resid)]
        return (["x", "inverse_value", "residual"], rows,
                {"n": n, "rho": rho})
    if cfg.command == "converge":
        h = cfg.cofactor()
        rows = []
        for rho in cfg.rho_list:
            recs = convergence_table(h, rho, cfg.n_list, grid, tol=cfg.tol)
            for r in recs:
                rows.append([r.n, r.rho, r.sup_h, r.sup_rhs, r.iterations])
        return ["n", "rho", "sup_H", "sup_rhs", "iters"], rows, None
    if cfg.command == "bound":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        h = cfg.cofactor()
        rep = check_bound(h, n, rho, grid, tol=cfg.tol)
        rows = [[x, lv, rv, rv - lv]
                for x, lv, rv in zip(pts, rep.lhs, rep.rhs)]
        summary = {
            "n": rep.n, "rho": rep.rho, "epsilon": rep.epsilon,
            "margin": rep.margin, "satisfied": rep.satisfied,
            "slack": rep.slack, "iters": rep.iterations,
        }
        return ["x", "lhs", "rhs", "margin"], rows, summary
    raise ValueError(f"unknown command {cfg.command!r}")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _fmt(v)


def _render_csv(header, rows, summary) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    if summary:
        for key, val in summary.items():
            lines.append(f"# {key}={_cell(val)}")
    return "\n".join(lines) + "\n"


def _render_json(command, header, rows, summary) -> str:
    def jval(v):
        if isinstance(v, (bool, str)):
            return v
        if isinstance(v, (int, np.integer)):
            return int(v)
        v = float(v)
        return None if math.isnan(v) else _round12(v)

    doc = {
        "command": command,
        "rows": [dict(zip(header, (jval(v) for v in row))) for row in rows],
    }
    if summary:
        doc["summary"] = {k: jval(v) for k, v in summary.items()}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns a process exit status."""
    try:
        header, rows, summary = _execute(config)
        if config.fmt == "csv":
            text = _render_csv(header, rows, summary)
        else:
            text = _render_json(config.command, header, rows, summary)
        out = config.resolved_out()
        _atomic_write(out, text)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


# The parser holds only constants, so one instance serves every call.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernseries",
        description=(
            "Experiments with blending operators, their series, and "
            "convergence bounds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--n", required=True,
                       help="degree parameter; comma list for converge")
        p.add_argument("--rho", default="1",
                       help="family parameter; comma list for converge")
        p.add_argument("--fn", default="h=one",
                       help="h=NAME (corpus), h=c0,c1,... or, for apply "
                            "only, f=c0,c1,...")
        p.add_argument("--grid-size", type=int, default=129)
        p.add_argument("--grid", choices=("uniform", "chebyshev"),
                       default="uniform")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="series truncation tolerance")
        p.add_argument("--out", default=None,
                       help=f"output path (default <{OUT_DIR_ENV} or "
                            f".>/<command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        kind, name, coeffs = _parse_fn(args.fn)
        config = ExperimentConfig(
            command=args.command,
            n_list=[int(tok) for tok in str(args.n).split(",")],
            rho_list=[float(tok) for tok in str(args.rho).split(",")],
            fn_kind=kind,
            fn_name=name or "one",
            fn_coeffs=coeffs,
            grid_kind=args.grid,
            grid_size=args.grid_size,
            tol=args.tol,
            out_path=args.out,
            fmt=args.format,
        )
        if kind == "h-name":
            config.cofactor()
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
