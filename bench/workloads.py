"""Seeded case lists for the three benchmark workloads.

A case is a JSON-ready dict: ``id``, ``op`` and the op's arguments.
Cofactors are specs, never library objects, so the list can be handed
to a fresh interpreter: ``{"kind": "poly", "coeffs": [...]}`` for a
polynomial, with ``"callable": true`` when it must reach the library as
a bare callable without coefficients, or ``{"kind": "exp"}`` for the one
non-polynomial cofactor.

The shape of every workload (which ops run at which n and rho) is fixed;
the seed draws the cofactor polynomials and which cofactor goes to
which slot, so run time depends on the seed only weakly. Cases outside a
function's documented range are not generated; cases inside it that
raise stay in the list.
"""

from __future__ import annotations

import json
import random

from reference import admissible

RHOS = (0.1, 1.0, 10.0)
POLY_N = (16, 64, 256, 1024, 4096)
QUAD_N = (16, 32, 64, 128, 256)
SEEDED_COFACTORS = 2
# Cofactors per (op, n, rho) in callable_quad: the result sup norm costs
# O(n^2) per evaluation, so many cheap small-n cases and few large-n ones.
QUAD_PER_OP = {16: 6, 32: 3, 64: 2, 128: 1, 256: 1}
WORKLOADS = ("poly_exact", "callable_quad", "cli_session")


def _seeded_coeffs(rng: random.Random) -> list:
    """Cofactor of degree <= 8 with coefficients in [-1, 1]."""
    return [round(rng.uniform(-1.0, 1.0), 6)
            for _ in range(rng.randint(0, 8) + 1)]


def _poly(label: str, coeffs, callable_: bool = False) -> dict:
    spec = {"kind": "poly", "label": label, "coeffs": list(coeffs)}
    if callable_:
        spec["callable"] = True
    return spec


def _poly_exact(rng, corpus):
    pool = [_poly(name, c) for name, c in corpus]
    pool += [_poly(f"seed{i}", _seeded_coeffs(rng))
             for i in range(SEEDED_COFACTORS)]
    cases = []
    for n in POLY_N:
        for rho in RHOS:
            for h in pool:
                cases.append({"op": "apply_series", "n": n, "rho": rho, "h": h})
            for h in rng.sample(pool, 2):
                cases.append({"op": "residual_H", "n": n, "rho": rho, "h": h})
            if admissible(n, rho):
                for h in rng.sample(pool, 2):
                    cases.append({"op": "check_bound", "n": n, "rho": rho,
                                  "h": h})
    for rho in RHOS:
        cases.append({"op": "convergence_table", "n_list": list(POLY_N),
                      "rho": rho, "h": rng.choice(pool)})
    return cases


def _callable_quad(rng, corpus):
    pool = [_poly(f"seed{i}", _seeded_coeffs(rng), callable_=True)
            for i in range(max(QUAD_PER_OP.values()))]
    pool.append({"kind": "exp", "label": "exp"})
    cases = []
    for n in QUAD_N:
        for rho in RHOS:
            for op in ("apply_series", "apply_U", "residual_H"):
                # A series call that succeeds above n = 64 takes 0.8 to 5 s
                # (the O(n^2) result sup norm), and a run's timings are only
                # steady when every case is short; the calls at rho = 10
                # stay, failing on Beta-weight underflow in milliseconds.
                if n > 64 and rho < 10 and (op != "apply_U" or n > 128):
                    continue
                for h in rng.sample(pool, QUAD_PER_OP[n]):
                    cases.append({"op": op, "n": n, "rho": rho, "h": h})
        # The sampling series has no rho: one cofactor per n.
        if n <= 64:
            cases.append({"op": "apply_series_bernstein", "n": n,
                          "h": rng.choice(pool)})
    return cases


def _cli_session(rng, corpus):
    pool = [f"h={name}" for name, _ in corpus]
    pool += ["h=" + ",".join(repr(c) for c in _seeded_coeffs(rng))
             for _ in range(3)]
    slots = []
    for rho in RHOS:
        for n in (8, 16, 32, 64):
            slots += [("apply", n, rho), ("series", n, rho),
                      ("voronovskaya", n, rho)]
            if admissible(n, rho) and n >= 16:
                slots.append(("bound", n, rho))
        for n in (6, 12, 20, 30):
            slots.append(("eigen", n, rho))
        slots += [("converge", "8,16,32,64", rho),
                  ("converge", "16,32,64", rho)]
    # A session repeats some configurations with other inputs.
    slots += [s for s in slots if s[1] in (12, 16)]
    # The seed picks which cofactor each call gets, every cofactor equally
    # often; the call order and the formats stay fixed, so the calls that
    # pay first-use costs are the same for every seed.
    order = rng.sample(range(len(pool)), len(pool))
    cases = []
    for i, (command, n, rho) in enumerate(slots):
        fn = pool[order[i % len(pool)]]
        fmt = ("csv", "json")[i % 2]
        cases.append({"op": "cli", "command": command, "fmt": fmt,
                      "fn": fn, "n": n, "rho": rho,
                      "argv": [command, "--n", str(n), "--rho", repr(rho),
                               "--fn", fn, "--format", fmt]})
    return cases


_BUILDERS = {"poly_exact": _poly_exact, "callable_quad": _callable_quad,
             "cli_session": _cli_session}


def load_corpus(path) -> list:
    """(name, coeffs) pairs of the shipped corpus, read as plain JSON."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return [(e["name"], e["coeffs"]) for e in raw["entries"]]


def build(workload: str, seed: int, corpus) -> list:
    """The case list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    cases = _BUILDERS[workload](rng, corpus)
    for i, case in enumerate(cases):
        case["id"] = f"{workload}-{i:03d}"
    return cases
