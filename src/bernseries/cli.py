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
from .operators import _n_rho, apply_U
from .eigen import compute_eigensystem, limit_eigenvalue
from .polyfun import limit_eigenpoly
from .series import apply_series
from .voronovskaya import _residual_profile
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

    ``fn`` is a function spec as ``--fn`` takes it, parsed on
    construction: ``h=NAME`` (a corpus cofactor), ``h=c0,c1,...``
    (inline cofactor coefficients) or ``f=c0,c1,...`` (the function
    itself). The last is accepted by the apply command only, since
    every other command works through the cofactor.
    """

    command: str
    n_list: List[int]
    rho_list: List[float]
    fn: str = "h=one"
    grid_kind: str = "uniform"
    grid_size: int = 129
    out_path: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        self._fn = _parse_fn(self.fn)
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not self.n_list:
            raise ValueError("at least one n value is required")
        if not self.rho_list:
            raise ValueError("at least one rho value is required")
        for n in self.n_list:
            for rho in self.rho_list:
                _n_rho(n, rho)
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.grid_kind not in ("uniform", "chebyshev"):
            raise ValueError(f"unknown grid kind {self.grid_kind!r}")
        if self.grid_size < 2:
            raise ValueError("grid size must be at least 2")
        if self._fn[0] == "f" and self.command != "apply":
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
        key, poly = self._fn
        if key != "h":
            raise ValueError("a raw function spec has no cofactor")
        return poly

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


def _parse_fn(spec: str) -> Tuple[str, Polynomial]:
    """The key ("h" or "f") of a function spec and its polynomial."""
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
    coeffs = []
    for tok in payload.split(","):
        try:
            coeffs.append(float(tok))
        except ValueError:
            break
    else:
        return key, Polynomial(coeffs)
    if "," in payload:
        raise ValueError(f"{key}= coefficients must be comma-separated "
                         f"floats, got {tok!r}")
    if key == "f":
        raise ValueError(
            "f= takes inline coefficients; corpus names are cofactors"
        )
    try:
        return key, corpus_entry(payload)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _execute(cfg: ExperimentConfig):
    """Dispatch to the library; returns (header, rows, summary)."""
    grid = cfg.grid()
    pts = grid.points
    if cfg.command == "apply":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        key, poly = cfg._fn
        if key == "h":
            poly = Polynomial([0.0, 1.0, -1.0]) * poly
        f = FunctionHandle.from_polynomial(poly)
        uvals = apply_U(n, rho, f, pts)
        fvals = f(pts)
        rows = [[x, fv, uv] for x, fv, uv in zip(pts, fvals, uvals)]
        return ["x", "f_value", "u_value"], rows, {"n": n, "rho": rho}
    if cfg.command == "eigen":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        sys_ = compute_eigensystem(n, rho)
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
        res = apply_series(n, rho, f)
        vals = res.value(pts)
        rows = [[x, v] for x, v in zip(pts, vals)]
        return ["x", "value"], rows, {
            "n": n, "rho": rho, "iters": res.iterations,
            "tail_bound": res.tail_bound,
        }
    if cfg.command == "voronovskaya":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        resid, inv, _ = _residual_profile(n, rho, cfg.cofactor(), pts)
        rows = [[x, iv, rv] for x, iv, rv in zip(pts, inv, resid)]
        return (["x", "inverse_value", "residual"], rows,
                {"n": n, "rho": rho})
    if cfg.command == "converge":
        h = cfg.cofactor()
        rows = []
        for rho in cfg.rho_list:
            recs = convergence_table(h, rho, cfg.n_list, grid)
            for r in recs:
                rows.append([r.n, r.rho, r.sup_h, r.sup_rhs, r.iterations])
        return ["n", "rho", "sup_H", "sup_rhs", "iters"], rows, None
    if cfg.command == "bound":
        n, rho = cfg.n_list[0], cfg.rho_list[0]
        h = cfg.cofactor()
        rep = check_bound(h, n, rho, grid)
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
    """JSON text of a result; NaN is written as null and rho = inf as
    "inf", the token --rho reads, and any other non-finite value is an
    error rather than a non-JSON token."""
    def jval(key, v):
        if isinstance(v, (bool, str)):
            return v
        if isinstance(v, (int, np.integer)):
            return int(v)
        v = float(v)
        if key == "rho" and v == math.inf:
            return "inf"
        return None if math.isnan(v) else _round12(v)

    def record(keys, values):
        return {k: jval(k, v) for k, v in zip(keys, values)}

    doc = {
        "command": command,
        "rows": [record(header, row) for row in rows],
    }
    if summary:
        doc["summary"] = record(summary, summary.values())
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"


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
                       help="family parameter in (0, inf], inf for the "
                            "Bernstein operator; comma list for converge")
        p.add_argument("--fn", default="h=one",
                       help="h=NAME (corpus), h=c0,c1,... or, for apply "
                            "only, f=c0,c1,...")
        p.add_argument("--grid-size", type=int, default=129)
        p.add_argument("--grid", choices=("uniform", "chebyshev"),
                       default="uniform")
        p.add_argument("--out", default=None,
                       help=f"output path (default <{OUT_DIR_ENV} or "
                            f".>/<command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _parse_list(flag: str, text: str, kind) -> list:
    """The comma-separated values of ``flag``, each read by ``kind``; a
    token it rejects raises a ValueError naming the flag and the token."""
    values = []
    for tok in text.split(","):
        try:
            values.append(kind(tok))
        except ValueError:
            raise ValueError(f"{flag} takes comma-separated "
                             f"{kind.__name__} values, got {tok!r}") from None
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(
            command=args.command,
            n_list=_parse_list("--n", args.n, int),
            rho_list=_parse_list("--rho", args.rho, float),
            fn=args.fn,
            grid_kind=args.grid,
            grid_size=args.grid_size,
            out_path=args.out,
            fmt=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
