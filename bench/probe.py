"""A fixed probe of how fast the host runs at the moment.

The benchmark shares its cores with other work, and over seconds to
minutes the same code runs up to twice as slow. ``probe()`` times a
fixed piece of interpreter and small-array numpy work, the mix the
library spends its time on, without touching ``bernseries``. A time
measured next to probes is scaled by ``REF_S / probe time``: the time it
would have taken when the probe takes ``REF_S``, about its time on an
undisturbed 2-vCPU virtual machine (Python 3.11, numpy 2.4). A change to
the library moves the scaled time as much as the raw one; a slow stretch
of the host moves both the time and the probe, and mostly cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 1.1e-3
_XS = np.linspace(0.0, 1.0, 2000)
_V = np.arange(10.0)
_COEFFS = [1.0, -2.0, 0.5, 0.25, 0.1]


def probe() -> float:
    """Seconds one run of the fixed probe work takes now."""
    start = perf_counter()
    acc = 0.0
    w = np.ones(10)
    for i in range(400):
        acc += (i * 0.5) % 7.0
        w = 0.5 * (w + _V) - 0.25 * w
        acc += float(np.dot(_V, w))
    acc += float(np.max(np.abs(np.polynomial.polynomial.polyval(_XS,
                                                                _COEFFS))))
    return perf_counter() - start


def probes(k: int = 3) -> float:
    """Median of ``k`` probes, for a steadier reading."""
    return statistics.median(probe() for _ in range(k))


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at ``REF_S``."""
    return seconds * REF_S / probe_s
