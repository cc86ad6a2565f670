"""The bernseries benchmark: seeded workloads, checked outputs, metrics.

    python3 bench/run.py --workload poly_exact --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (``src/bernseries`` and
``BENCHMARK.json`` next to ``bench``). One run

* builds the workload's case list from ``--seed`` (``workloads.py``);
* runs passes over the case list while the next one fits in
  ``--seconds``, each in a fresh interpreter with BLAS pinned to one
  thread (cold library caches, as every CLI invocation has); a pass's
  time to ``ready`` (``import bernseries`` plus the corpus load) is one
  set-up sample, and set-up-only interpreters make up about
  ``MIN_SETUP_SAMPLES`` when few passes fit;
* scales every time by the host-speed probes taken around it
  (``probe.py``), so that stretches where the shared host runs slow
  mostly cancel, and reports medians over the passes;
* grades every completed case against an independent reference
  (``check.py``, ``reference.py``) and requires every pass to repeat the
  first one exactly;
* prints one line per failed or inexact case, then, as its last line, one
  JSON object with the end-to-end metrics (``--trace 0``) or the
  per-layer metrics of traced passes (``--trace 1``, ``spans.py``).

``attempted`` and ``failed`` count the distinct cases of the list: every
pass repeats them and must give the same outcomes, so both depend on the
seed alone. Metric names and units come from ``BENCHMARK.json``. Run
files (the span dump of the last traced pass, the raw times and probes
of the last run, CLI outputs while a pass runs) go to ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import probe
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUNNER = BENCH / "pass_runner.py"

PASS_TIMEOUT_S = 100
MIN_SETUP_SAMPLES = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Directories the stray-output check skips: build products and OUT.
SKIP_DIRS = {".git", ".bench_build", "__pycache__", ".pytest_cache"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _start(job: dict) -> dict:
    """One fresh interpreter: time it to ``ready``, feed it the job."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: "1" for k in THREAD_VARS})
    probe_before = probe.probes()
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(RUNNER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.monotonic() - t0
        out, err = proc.communicate(json.dumps(job), timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"pass interpreter failed ({proc.returncode}): {tail}")
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported bernseries from {result['module']}")
    result["setup_raw_s"] = setup_s
    result["probe_before_s"] = probe_before
    result["setup_s"] = probe.scaled(
        setup_s, 0.5 * (probe_before + result["setup_probe_s"]))
    return result


def _tree() -> dict:
    """Path -> (size, mtime) of every file of the checkout outside SKIP_DIRS."""
    seen = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS
                       and Path(dirpath, d) != OUT]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            seen[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return seen


def _comparable(rec: dict):
    """What must repeat exactly from pass to pass (not the pass's paths)."""
    if not rec["ok"]:
        return ("fail", rec["error"])
    out = dict(rec["out"])
    out.pop("path", None)
    return ("ok", json.dumps(out, sort_keys=True))


def _run_passes(cases, seconds, trace, tmp, spans_path) -> tuple:
    """Passes while the next one is expected to end within ``seconds``;
    traced runs alternate untraced and traced passes, one of each at least.

    Every pass interpreter gives one set-up sample. When the first pass
    shows that fewer than ``MIN_SETUP_SAMPLES`` passes fit, set-up-only
    interpreters (an empty job) go before each later pass to make up the
    rest. Returns the passes and the set-up samples.
    """
    passes, setups, extra = [], [], 0
    t0, last_round = time.monotonic(), 0.0
    modes = (False, True) if trace else (False,)
    while len(passes) < len(modes) or (
            time.monotonic() - t0 + last_round <= seconds):
        round_start = time.monotonic()
        for _ in range(extra):
            setups.append(_setup_record(_start(
                {"cases": [], "trace": False, "out_dir": str(tmp)})))
        traced = modes[len(passes) % len(modes)]
        out_dir = tmp / f"pass{len(passes)}"
        out_dir.mkdir()
        job = {"cases": cases, "trace": traced, "out_dir": str(out_dir),
               "spans_path": str(spans_path)}
        start = time.monotonic()
        result = _start(job)
        result.update(traced=traced, out_dir=out_dir,
                      wall_s=time.monotonic() - start)
        passes.append(result)
        setups.append(_setup_record(result))
        if len(passes) == 1:
            fit = max(1, int(seconds / result["wall_s"]))
            extra = max(0, math.ceil(MIN_SETUP_SAMPLES / fit) - 1)
        last_round = time.monotonic() - round_start
    return passes, setups


def _setup_record(result) -> dict:
    keys = ("setup_s", "setup_raw_s", "probe_before_s", "setup_probe_s")
    return {k: result[k] for k in keys}


def _verify(cases, passes, checker, tree_before) -> tuple:
    """Grades of the first pass, plus every problem that makes the run
    incorrect: wrong answers, passes that differ, stray or misplaced CLI
    outputs, wrappers left installed."""
    problems, grades = [], {}
    first = passes[0]
    for case, rec in zip(cases, first["cases"], strict=True):
        if rec["ok"]:
            grades[case["id"]] = checker.grade(case, rec["out"])
            if grades[case["id"]][0] == "wrong":
                problems.append(f"wrong {case['id']}: {grades[case['id']]}")
    expected = [_comparable(r) for r in first["cases"]]
    for k, p in enumerate(passes[1:], 1):
        got = [_comparable(r) for r in p["cases"]]
        diff = [c["id"] for c, a, b in zip(cases, expected, got) if a != b]
        if diff:
            what = "traced" if p["traced"] else "untraced"
            problems.append(f"{what} pass {k} differs on {diff[:5]}")
    for p in passes:
        if p["traced"] and not p["restored"]:
            problems.append("trace wrappers were not restored")
        for case, rec in zip(cases, p["cases"]):
            if case["op"] != "cli" or not rec["ok"]:
                continue
            want = p["out_dir"] / f"{case['id']}.{case['fmt']}"
            if Path(rec["out"]["path"]) != want:
                problems.append(f"{case['id']} wrote {rec['out']['path']}")
        listed = sorted(f.name for f in p["out_dir"].iterdir())
        wanted = sorted(f"{c['id']}.{c['fmt']}" for c, r in
                        zip(cases, p["cases"]) if c["op"] == "cli" and r["ok"])
        if listed != wanted:
            problems.append(f"unexpected files in the CLI temp dir: {listed}")
    stray = sorted(set(_tree().items()) - set(tree_before.items()))
    if stray:
        problems.append(f"files written outside the temp dir: {stray[:5]}")
    return grades, problems


def _scaled_times(passes) -> list:
    """Per pass, each case's time scaled by the mean of the probes taken
    just before and just after it."""
    per_pass = []
    for p in passes:
        probes = p["probe_s"]
        per_pass.append([
            probe.scaled(r["s"], 0.5 * (probes[i] + probes[i + 1]))
            for i, r in enumerate(p["cases"])])
    return per_pass


def _case_medians(per_pass) -> list:
    """Each case's median over the passes."""
    return [statistics.median(times) for times in zip(*per_pass)]


def _end_to_end(cases, passes, setups, grades) -> dict:
    plain = [p for p in passes if not p["traced"]]
    per_pass = _scaled_times(plain)
    # Every timed run of every case is one latency sample; a case that
    # raises still took its time, which keeps the sample set the same
    # for every seed.
    deciles = statistics.quantiles([1e3 * t for ts in per_pass for t in ts],
                                   n=10, method="inclusive")
    completed = [i for i, r in enumerate(plain[0]["cases"]) if r["ok"]]
    exact = sum(1 for i in completed if grades[cases[i]["id"]][0] == "exact")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "pass_s": sum(_case_medians(per_pass)),
        "case_ms.p50": deciles[4],
        "case_ms.p90": deciles[8],
        "completed_ratio": len(completed) / len(cases),
        "exact_ratio": exact / len(cases),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }


def _per_layer(passes, e2e) -> dict:
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        layers, flat = p["layers"], dict(p["counters"])
        for name, rec in layers.items():
            flat.update({f"{name}.{k}": v for k, v in rec.items()})
        per_pass.append(flat)
    keys = set().union(*per_pass)
    out = {k: statistics.median(f.get(k, 0) for f in per_pass) for k in keys}
    out["trace.overhead_s"] = (sum(_case_medians(_scaled_times(traced)))
                               - e2e["pass_s"])
    return out


def _dump_timings(passes, setups, path) -> None:
    """The raw times and probes of the run, for a look after it."""
    rows = [{"traced": p["traced"], "probe_s": p["probe_s"],
             "s": [r["s"] for r in p["cases"]]} for p in passes]
    path.write_text(json.dumps({"passes": rows, "setups": setups}),
                    encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    corpus_path = SRC / "bernseries" / "data" / "corpus.json"
    if not (SRC / "bernseries" / "__init__.py").is_file() or \
            not corpus_path.is_file():
        raise BenchError(f"no bernseries sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    corpus = workloads.load_corpus(corpus_path)
    cases = workloads.build(args.workload, args.seed, corpus)
    problems = []
    if workloads.build(args.workload, args.seed, corpus) != cases:
        problems.append("the same seed gave two different case lists")
    fingerprint = hashlib.sha256(
        json.dumps(cases, sort_keys=True).encode()).hexdigest()[:16]

    OUT.mkdir(exist_ok=True)
    tree_before = _tree()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        passes, setups = _run_passes(cases, args.seconds, args.trace, tmp,
                                     OUT / f"spans-{args.workload}.jsonl")
        sys.path.insert(0, str(SRC))
        import bernseries
        checker = check.Checker(corpus, bernseries)
        grades, found = _verify(cases, passes, checker, tree_before)
        problems += found
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _dump_timings(passes, setups, OUT / f"timings-{args.workload}.json")

    e2e = _end_to_end(cases, passes, setups, grades)
    values = _per_layer(passes, e2e) if args.trace else e2e
    metrics = {}
    for m in metrics_spec:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    first = passes[0]["cases"]
    failed = [(c, r) for c, r in zip(cases, first) if not r["ok"]]
    for case, rec in failed:
        print(f"failed {case['id']} {_describe(case)}: {rec['error']}")
    for case in cases:
        grade = grades.get(case["id"])
        if grade and grade[0] != "exact":
            note = f" ({grade[2]})" if grade[2] else ""
            print(f"{grade[0]} {case['id']} {_describe(case)}: "
                  f"error {grade[1]:.3g} x allowance{note}")
    for problem in problems:
        print(f"problem: {problem}")
    plain = [p for p in passes if not p["traced"]]
    raw_pass_s = statistics.median(sum(r["s"] for r in p["cases"])
                                   for p in plain)
    raw_setup_s = statistics.median(r["setup_raw_s"] for r in setups)
    probe_ms = 1e3 * statistics.median(t for p in passes for t in p["probe_s"])
    print(f"workload {args.workload} seed {args.seed} cases {len(cases)} "
          f"(list {fingerprint}) passes {len(plain)} untraced, "
          f"{len(passes) - len(plain)} traced; set-up samples {len(setups)}; "
          f"case_ms samples {len(cases) * len(plain)}; "
          f"unscaled pass_s {raw_pass_s:.4f}, "
          f"setup_s {raw_setup_s:.4f}; probe median {probe_ms:.4f} ms "
          f"(reference {1e3 * probe.REF_S:g} ms)")
    print(json.dumps({"correct": not problems,
                      "attempted": len(cases),
                      "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _describe(case: dict) -> str:
    keys = ("op", "command", "n", "n_list", "rho")
    parts = [f"{k}={case[k]}" for k in keys if k in case]
    if "h" in case:
        parts.append(f"h={case['h']['label']}")
    elif "fn" in case:
        parts.append(case["fn"])
    return " ".join(parts)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
