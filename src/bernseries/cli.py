"""Command-line experiment driver with reproducible CSV/JSON output.

Six subcommands expose the library: pointwise operator application,
the eigensystem with its limit distances, the summed operator series,
the limit inverse with its residual, the residual convergence sweep,
and the quantitative bound check. Identical configurations produce
byte-identical output files; numbers are printed with 12 significant
digits.

``main(argv)`` is the one entry point, for the console script and
Python callers alike (``main(["eigen", "--n", "6"])``). It writes one
file, prints its path and returns 0; a value it rejects, or a library
error, prints one ``error:`` line to stderr, writes no file and
returns 1. argparse rejects an unknown subcommand, flag or choice
with status 2, raising SystemExit(2) in a Python caller.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polyfun import PSI, C0Function, FunctionHandle, GridSpec, Polynomial
from .operators import _n_rho, apply_U
from .eigen import _limit_distances, compute_eigensystem
from .series import apply_series
from .voronovskaya import _residual_profile
from .bounds import check_bound, convergence_table
from .corpus import corpus_entry

__all__ = ["main"]

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


def _execute(command: str, n_list: List[int], rho_list: List[float],
             key: str, poly: Polynomial, grid: GridSpec):
    """Dispatch to the library; returns (header, columns, summary), one
    column of values per header name. ``poly`` is the cofactor, or for
    apply with key "f" the function itself."""
    pts = grid.points
    # every command but converge takes exactly one n and one rho
    n, rho = n_list[0], rho_list[0]
    if command == "apply":
        f = FunctionHandle.from_polynomial(PSI * poly if key == "h" else poly)
        columns = [pts, f(pts), apply_U(n, rho, f, pts)]
        return ["x", "f_value", "u_value"], columns, {"n": n, "rho": rho}
    if command == "eigen":
        sys_ = compute_eigensystem(n, rho)
        gaps, dists = zip(*(_limit_distances(n, rho, j, sys_.lambdas,
                                             sys_.basis, pts)
                            for j in range(n + 1)))
        coeffs = [";".join(_column_texts("coeffs", p.coeffs, "csv"))
                  for p in sys_.eigenpolys]
        columns = [range(n + 1), sys_.lambdas, gaps, dists, coeffs]
        return (["j", "lambda", "gap", "dist_limit", "coeffs"], columns,
                {"n": n, "rho": rho})
    if command == "series":
        res = apply_series(n, rho, C0Function(poly))
        return ["x", "value"], [pts, res.value(pts)], {
            "n": n, "rho": rho, "iters": res.iterations,
        }
    if command == "voronovskaya":
        resid, inv, _ = _residual_profile(n, rho, poly, pts)
        return (["x", "inverse_value", "residual"], [pts, inv, resid],
                {"n": n, "rho": rho})
    if command == "converge":
        recs = [r for rho in rho_list
                for r in convergence_table(poly, rho, n_list, grid)]
        columns = [[getattr(r, field) for r in recs]
                   for field in ("n", "rho", "sup_h", "sup_rhs",
                                 "iterations")]
        return ["n", "rho", "sup_H", "sup_rhs", "iters"], columns, None
    # bound, the last of the parser's choices
    rep = check_bound(poly, n, rho, grid)
    columns = [pts, rep.lhs, rep.rhs, rep.rhs - rep.lhs]
    summary = {
        "n": rep.n, "rho": rep.rho, "epsilon": rep.epsilon,
        "margin": rep.margin, "satisfied": rep.satisfied,
        "slack": rep.slack, "iters": rep.iterations,
    }
    return ["x", "lhs", "rhs", "margin"], columns, summary


def _column_texts(key: str, column, fmt: str) -> List[str]:
    """The cell texts of one column in ``fmt`` ("csv" or "json").

    The column's numpy dtype picks the text: bools are true/false, ints
    and strings print as they are (JSON quotes strings), and floats
    print to 12 significant digits, %.12g in CSV and the shortest repr
    of that rounding in JSON, with -0.0 as 0. A NaN is nan in CSV and
    null in JSON; an infinite rho is inf in CSV and "inf" in JSON, the
    token --rho reads; any other infinity is an error in JSON rather
    than a non-JSON token.
    """
    arr = np.asarray(column)
    kind = arr.dtype.kind
    if kind == "b":
        return ["true" if v else "false" for v in arr.tolist()]
    if kind in "iu":
        return [str(v) for v in arr.tolist()]
    if kind == "U":
        values = arr.tolist()
        return values if fmt == "csv" else [json.dumps(v) for v in values]
    arr = arr.astype(float, copy=False) + 0.0  # -0.0 + 0.0 is 0.0
    values = arr.tolist()
    if fmt == "csv":
        return [f"{v:.12g}" for v in values]
    texts = [repr(float(f"{v:.12g}")) for v in values]
    for i in np.flatnonzero(~np.isfinite(arr)).tolist():
        v = values[i]
        if math.isnan(v):
            texts[i] = "null"
        elif key == "rho" and v == math.inf:
            texts[i] = '"inf"'
        else:
            raise ValueError(f"column {key!r}, row {i}: {v} has no JSON "
                             "form; only rho may be inf")
    return texts


def _render_csv(header, columns, summary) -> str:
    texts = [_column_texts(k, col, "csv") for k, col in zip(header, columns)]
    lines = [",".join(header)]
    lines += [",".join(cells) for cells in zip(*texts)]
    if summary:
        lines += [f"# {k}={_column_texts(k, [v], 'csv')[0]}"
                  for k, v in summary.items()]
    return "\n".join(lines) + "\n"


def _render_json(command, header, columns, summary) -> str:
    """The JSON text of a result: the layout of ``json.dumps(doc,
    indent=2)`` on {"command", "rows": [one object per row], "summary"},
    written from one row template filled with each row's cell texts."""
    texts = [_column_texts(k, col, "json") for k, col in zip(header, columns)]
    template = "    {\n" + ",\n".join(
        "      " + json.dumps(k).replace("%", "%%") + ": %s" for k in header
    ) + "\n    }"
    rows = ",\n".join(template % cells for cells in zip(*texts))
    parts = ["{\n  \"command\": ", json.dumps(command), ",\n  \"rows\": ",
             f"[\n{rows}\n  ]" if rows else "[]"]
    if summary:
        parts += [",\n  \"summary\": {\n", ",\n".join(
            f"    {json.dumps(k)}: {_column_texts(k, [v], 'json')[0]}"
            for k, v in summary.items()), "\n  }"]
    parts.append("\n}\n")
    return "".join(parts)


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
    """Run the subcommand in ``argv``; returns 0 or 1, as the module
    docstring says. The values are checked before any work: the --n and
    --rho tokens, the --fn spec, each (n, rho), the grid size, f= off
    apply, and one n and one rho except for converge."""
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        n_list = _parse_list("--n", args.n, int)
        rho_list = _parse_list("--rho", args.rho, float)
        key, poly = _parse_fn(args.fn)
        for n in n_list:
            for rho in rho_list:
                _n_rho(n, rho)
        if args.grid_size < 2:
            raise ValueError("grid size must be at least 2")
        if key == "f" and command != "apply":
            raise ValueError(
                "a raw function spec (f=...) is only supported by apply; "
                "give the cofactor instead (h=...)"
            )
        if command != "converge":
            if len(n_list) != 1:
                raise ValueError(f"{command} takes exactly one n")
            if len(rho_list) != 1:
                raise ValueError(f"{command} takes exactly one rho")
        grid = (GridSpec.uniform if args.grid == "uniform"
                else GridSpec.chebyshev)(args.grid_size)
        header, columns, summary = _execute(command, n_list, rho_list,
                                            key, poly, grid)
        if args.format == "csv":
            text = _render_csv(header, columns, summary)
        else:
            text = _render_json(command, header, columns, summary)
        out = args.out or os.path.join(os.environ.get(OUT_DIR_ENV, "."),
                                       f"{command}.{args.format}")
        _atomic_write(out, text)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
