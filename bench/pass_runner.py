"""One pass over a case list, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread. It imports the library, loads
the corpus and prints ``ready`` (the parent times set-up up to that
line), then reads the job from stdin, runs every case, and prints one
JSON line with the per-case outcomes and times and the peak resident
memory. Host-speed probes (``probe.py``) run right after ``ready``,
before the first case and after every case, outside the case timings.
An empty case list makes a set-up-only pass. Library functions are
always looked up on their modules at call time, so a traced pass sees
the wrappers.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np

import bernseries
import probe
from bernseries import (bounds, cli, corpus, operators, polyfun, series,
                        voronovskaya)

XS = np.linspace(0.0, 1.0, 33)


def _cofactor(spec):
    if spec["kind"] == "exp":
        return np.exp
    c = np.asarray(spec["coeffs"], dtype=float)
    if spec.get("callable"):
        return lambda x, _c=c: np.polynomial.polynomial.polyval(x, _c)
    return polyfun.Polynomial(c)


def _pinned(h):
    """x(1-x) h as a bare callable."""
    return lambda x, _h=h: x * (1.0 - x) * _h(x)


def _run_case(case, out_dir):
    op = case["op"]
    if op == "cli":
        out = os.path.join(out_dir, f"{case['id']}.{case['fmt']}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(case["argv"] + ["--out", out])
        if code != 0:
            raise RuntimeError(f"exit {code}: {stderr.getvalue().strip()}")
        return {"path": stdout.getvalue().strip()}
    h = _cofactor(case["h"])
    if op == "apply_series":
        res = series.apply_series(case["n"], case["rho"], polyfun.C0Function(h))
        return {"values": res.h(XS).tolist(), "iterations": res.iterations}
    if op == "apply_series_bernstein":
        res = series.apply_series_bernstein(case["n"], polyfun.C0Function(h))
        return {"values": res.h(XS).tolist(), "iterations": res.iterations}
    if op == "apply_U":
        handle = polyfun.FunctionHandle.from_callable(_pinned(h))
        return {"values": operators.apply_U(case["n"], case["rho"], handle,
                                            XS).tolist()}
    if op == "residual_H":
        return {"values": voronovskaya.residual_H(case["n"], case["rho"], h,
                                                  XS).tolist()}
    if op == "check_bound":
        rep = bounds.check_bound(h, case["n"], case["rho"])
        return {"lhs": rep.lhs.tolist(), "satisfied": rep.satisfied,
                "margin": rep.margin}
    if op == "convergence_table":
        recs = bounds.convergence_table(h, case["rho"], case["n_list"])
        return {"rows": [[r.n, r.sup_h, r.sup_rhs, r.iterations]
                         for r in recs]}
    raise ValueError(f"unknown op {op!r}")


def _first_line(exc) -> str:
    text = str(exc).strip()
    return f"{type(exc).__name__}: {text.splitlines()[0] if text else ''}"


def main():
    corpus.standard_corpus()
    print("ready", flush=True)
    setup_probe_s = probe.probes()
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        caches = {"operators.beta_cache": operators._cached_beta_rule,
                  "series.transfer_cache": series._cofactor_transfer}
        before = {k: f.cache_info() for k, f in caches.items()}
        tracer.install()
    records = []
    # Warm the probe up; the last one brackets the first case.
    probe_s = [probe.probe() for _ in range(5)][-1:]
    for case in job["cases"]:
        if tracer is not None:
            tracer.case_id = case["id"]
        start = perf_counter()
        try:
            out = _run_case(case, job["out_dir"])
            rec = {"id": case["id"], "ok": True, "out": out}
        except Exception as exc:
            rec = {"id": case["id"], "ok": False, "error": _first_line(exc)}
        rec["s"] = perf_counter() - start
        records.append(rec)
        probe_s.append(probe.probe())
    result = {"cases": records, "probe_s": probe_s,
              "setup_probe_s": setup_probe_s,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              "module": bernseries.__file__}
    if tracer is not None:
        result["restored"] = tracer.restore()
        layers = tracer.layer_totals()
        for name, f in caches.items():
            now, was = f.cache_info(), before[name]
            hits, misses = now.hits - was.hits, now.misses - was.misses
            layers[name] = {"hit_ratio": hits / (hits + misses)
                            if hits + misses else 0.0}
        result["layers"] = layers
        result["counters"] = dict(tracer.counters)
        tracer.write(job["spans_path"])
    for rec in records:
        # Read the CLI outputs after the timed loop.
        path = rec["ok"] and rec["out"].get("path")
        if path and os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                rec["out"]["text"] = fh.read()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
