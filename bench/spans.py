"""Span tracing around the library's module boundaries, from outside.

A ``Tracer`` replaces a library function with a timing wrapper at every
name a ``bernseries`` module looks it up under (``polyfun.sup_norm`` is
also ``voronovskaya.sup_norm``; ``operators.bernstein_basis`` is also
``series.bernstein_basis``, used by the series result closure), and puts
the originals back on ``restore``. No library source changes. Spans are
kept in memory as [name, start, end, parent, case id, raised] and written
out once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "bernseries"
# Layer name -> (module, attribute) of the original definition.
LAYERS = {
    "polyfun.sup_norm": ("polyfun", "sup_norm"),
    "polyfun.omega": ("polyfun", "omega"),
    "operators.bernstein_basis": ("operators", "bernstein_basis"),
    "operators.beta_rule": ("operators", "QuadratureRule.beta_rule"),
    "operators.apply_U": ("operators", "apply_U"),
    "operators.u_matrix_leading_block": ("operators",
                                         "u_matrix_leading_block"),
    "eigen.compute_eigensystem": ("eigen", "compute_eigensystem"),
    "series.apply_series": ("series", "apply_series"),
    "series.apply_series_bernstein": ("series", "apply_series_bernstein"),
    "voronovskaya.inverse_neg": ("voronovskaya", "inverse_neg"),
    "voronovskaya.residual_H": ("voronovskaya", "residual_H"),
    "bounds.check_bound": ("bounds", "check_bound"),
    "bounds.convergence_table": ("bounds", "convergence_table"),
    "corpus.corpus_entry": ("corpus", "corpus_entry"),
    "cli.main": ("cli", "main"),
}


def _matvec_flops(size: int) -> int:
    return 2 * size * size + size


def _series_cost(tracer, bound, result, sampling: bool):
    """Count K and the computed flops of the engine that ran.

    A polynomial result means the monomial engine iterated the leading
    block of size deg(h) + 3, K times; otherwise the transfer (or
    sampling) matrix of size n - 1 was applied K - 1 times.
    """
    k = result.iterations
    tracer.counters["series.iterations"] += k
    if k == 0:
        return
    if result.h.poly is not None and not sampling:
        size = bound.arguments["f"].h.poly.degree + 3
        flops = k * _matvec_flops(size)
    else:
        flops = (k - 1) * _matvec_flops(bound.arguments["n"] - 1)
    tracer.counters["series.sum_flops"] += flops


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.case_id = None
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, post=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if post else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.case_id, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(self, sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (mod, attr) in LAYERS.items():
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:
                # A classmethod: rewrap its function on the class itself.
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__))
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = owner.__dict__[attr]
            post = None
            if name == "series.apply_series":
                post = functools.partial(_series_cost, sampling=False)
            elif name == "series.apply_series_bernstein":
                post = functools.partial(_series_cost, sampling=True)
            wrapped = self._wrap(name, original, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        ok = all(vars(owner)[key] is original
                 for owner, key, original in self._patches)
        self._patches = []
        return ok

    def layer_totals(self) -> dict:
        """Calls, self seconds and raised calls per layer name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "fails": 0}
               for name in LAYERS}
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            rec["fails"] += int(raised)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
