"""Classify each completed case against its independent reference.

A case is ``exact`` when it meets the library's stated accuracy,
``inexact`` when it misses it but stays within ``GROSS`` (a precision
defect, counted in the accuracy metric), and ``wrong`` beyond that (a
wrong answer, which makes the run incorrect). The stated accuracy of
the summed series is its truncation tolerance (``SeriesConfig.tol``,
1e-9) plus ten quadrature tolerances (``QUAD_TOL``, 1e-10), the slack
``check_bound`` itself allows; quadrature-exact operator values get the
ten quadrature tolerances alone. Both scale with max(1, sup |reference|).
"""

from __future__ import annotations

import json
import math

import reference as ref

SERIES_ATOL = 1e-9 + 10 * 1e-10
QUAD_ATOL = 10 * 1e-10
GROSS = 1e-6
# CLI files print 12 significant digits.
PRINT_RTOL = 1e-11
XS = [i / 32 for i in range(33)]
BOUND_GRID = [i / 128 for i in range(129)]


def _err(got, want) -> tuple:
    """(max abs difference, max(1, sup |want|)); NaN pairs count as equal."""
    worst = 0.0
    for g, w in zip(got, want, strict=True):
        if g is None or (isinstance(g, float) and math.isnan(g)):
            g = math.nan
        if math.isnan(g) and math.isnan(w):
            continue
        d = abs(g - w)
        worst = math.inf if math.isnan(d) else max(worst, d)
    return worst, max(1.0, ref.sup_abs(want))


def _grade(errors) -> tuple:
    """Worst grade over (err, scale, atol) triples, with the worst ratio."""
    grade, ratio = "exact", 0.0
    for err, scale, atol in errors:
        ratio = max(ratio, err / (atol * scale))
        if err > GROSS * scale:
            grade = "wrong"
        elif err > atol * scale and grade == "exact":
            grade = "inexact"
    return grade, ratio


def _sweep(rho, h, rows):
    """Grade inputs for (n, sup_H, sup_rhs) rows of a residual sweep.

    Returns ((got, want) pair, "") or (None, note) when an admissible row's
    bound falls below the reference residual sup.
    """
    sups = [ref.sup_abs(ref.residual_values(int(n), rho, h, BOUND_GRID))
            for n, _, _ in rows]
    for (n, _, rhs), sup in zip(rows, sups):
        if ref.admissible(int(n), rho) and not rhs + SERIES_ATOL >= sup:
            return None, f"bound fails at n={int(n)}"
    return ([r[1] for r in rows], sups), ""


class Checker:
    """References for one run; ``lib`` is the library, for cross-checks."""

    def __init__(self, corpus, lib):
        self.corpus = dict(corpus)
        self.lib = lib

    def _cofactor(self, case):
        if "h" in case:
            return ref.cofactor_coeffs(case["h"])
        payload = case["fn"].split("=", 1)[1]
        coeffs = self.corpus.get(payload)
        if coeffs is None:
            coeffs = [float(t) for t in payload.split(",")]
        return ref.cofactor_coeffs({"kind": "poly", "coeffs": coeffs})

    def grade(self, case, out) -> tuple:
        """(grade, worst error over its allowance, note) for one output."""
        h = self._cofactor(case)
        op = case["op"]
        if op == "cli":
            return self._grade_cli(case, out, h)
        # The sampling series has no rho; None selects it in the reference.
        n, rho = case.get("n"), case.get("rho")
        if op in ("apply_series", "apply_series_bernstein"):
            want = ref.evaluate(ref.series_cofactor(n, rho, h), XS)
            errors = [(*_err(out["values"], want), SERIES_ATOL)]
            if op == "apply_series" and case["h"].get("callable"):
                errors += self._cross_series(case, out["values"])
        elif op == "apply_U":
            want = ref.operator_values(n, rho, h, XS)
            errors = [(*_err(out["values"], want), QUAD_ATOL)]
        elif op == "residual_H":
            want = ref.residual_values(n, rho, h, XS)
            errors = [(*_err(out["values"], want), SERIES_ATOL)]
            if case["h"].get("callable"):
                lib = self.lib
                mono = lib.residual_H(n, rho, lib.Polynomial(
                    case["h"]["coeffs"]), XS)
                errors.append((*_err(out["values"], list(mono)), SERIES_ATOL))
        elif op == "check_bound":
            want = [abs(v) for v in ref.residual_values(n, rho, h, BOUND_GRID)]
            errors = [(*_err(out["lhs"], want), SERIES_ATOL)]
            if not out["satisfied"]:
                return "inexact", math.inf, "bound not satisfied"
        elif op == "convergence_table":
            if [r[0] for r in out["rows"]] != case["n_list"]:
                return "wrong", math.inf, "rows do not follow n_list"
            pair, note = _sweep(rho, h, [r[:3] for r in out["rows"]])
            if pair is None:
                return "inexact", math.inf, note
            errors = [(*_err(*pair), SERIES_ATOL)]
        else:
            raise ValueError(f"unknown op {op!r}")
        return (*_grade(errors), "")

    def _cross_series(self, case, values):
        """The exact monomial route on the unwrapped coefficients, and the
        eigen route where the eigensolve is available (n <= 30)."""
        lib, n, rho = self.lib, case["n"], case["rho"]
        p = lib.Polynomial(case["h"]["coeffs"])
        mono = lib.apply_series(n, rho, lib.C0Function(p)).h(XS)
        errors = [(*_err(values, list(mono)), SERIES_ATOL)]
        if n <= lib.EIGEN_N_CAP:
            full = lib.apply_series_poly(n, rho, lib.PSI * p)(XS)
            pinned = [x * (1 - x) * v for x, v in zip(XS, values)]
            errors.append((*_err(pinned, list(full)), SERIES_ATOL))
        return errors

    def _grade_cli(self, case, out, h):
        text = out.get("text")
        if text is None:
            return "wrong", math.inf, "no output file"
        try:
            rows, summary = _parse_cli(text, case["fmt"])
        except (ValueError, KeyError, IndexError) as exc:
            return "wrong", math.inf, f"unreadable output: {exc}"
        cmd, rho = case["command"], float(case["rho"])
        atol = (QUAD_ATOL if cmd in ("apply", "eigen") else SERIES_ATOL)

        def col(key):
            return [r[key] for r in rows]

        if cmd == "eigen":
            pairs = [(col("lambda"), ref.eigenvalues(int(case["n"]), rho))]
        elif cmd == "converge":
            pair, note = _sweep(rho, h, [(r["n"], r["sup_H"], r["sup_rhs"])
                                         for r in rows])
            if pair is None:
                return "inexact", math.inf, note
            pairs = [pair]
        else:
            n, xs = int(case["n"]), col("x")
            if xs != BOUND_GRID:
                return "wrong", math.inf, "unexpected grid"
            if cmd == "apply":
                pairs = [(col("u_value"), ref.operator_values(n, rho, h, xs))]
            elif cmd == "series":
                s = ref.evaluate(ref.series_cofactor(n, rho, h), xs)
                pairs = [(col("value"),
                          [x * (1 - x) * v for x, v in zip(xs, s)])]
            elif cmd == "voronovskaya":
                pairs = [(col("inverse_value"),
                          ref.inverse_values(rho, h, xs)),
                         (col("residual"), ref.residual_values(n, rho, h, xs))]
            elif cmd == "bound":
                if summary.get("satisfied") is not True:
                    return "inexact", math.inf, "bound not satisfied"
                pairs = [(col("lhs"), [abs(v) for v in
                                       ref.residual_values(n, rho, h, xs)])]
            else:
                raise ValueError(f"unknown command {cmd!r}")
        errors = [(*_err(got, want), atol + PRINT_RTOL) for got, want in pairs]
        return (*_grade(errors), "")


def _number(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _parse_cli(text: str, fmt: str):
    """Rows (dicts of numbers) and the summary of one CLI output file."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [{k: math.nan if v is None else v for k, v in r.items()}
                for r in doc["rows"]]
        return rows, doc.get("summary", {})
    lines = text.splitlines()
    header = lines[0].split(",")
    rows, summary = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, val = line[2:].split("=", 1)
            summary[key] = _number(val)
        else:
            rows.append(dict(zip(header, map(_number, line.split(",")),
                                 strict=True)))
    return rows, summary
