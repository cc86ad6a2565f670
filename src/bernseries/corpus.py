"""Frozen cofactor corpus for experiments and acceptance checks.

The corpus lives in a versioned JSON file shipped with the package, so
experiment outputs stay reproducible across installs. Entries range
from the trivial constant to a degree-8 minimax surrogate of a
non-smooth profile.
"""

from __future__ import annotations

import functools
import json
from collections import OrderedDict
from importlib import resources
from typing import Tuple

from .polyfun import Polynomial

__all__ = ["CORPUS_VERSION", "standard_corpus", "corpus_entry"]

CORPUS_VERSION = 1


@functools.lru_cache(maxsize=None)
def _entries() -> Tuple[Tuple[str, Polynomial], ...]:
    """The file's (name, cofactor) pairs, read and checked once per process.

    Polynomials are immutable, so every caller can share them.
    """
    path = resources.files("bernseries").joinpath("data/corpus.json")
    raw = json.loads(path.read_text(encoding="utf-8"))
    if raw.get("version") != CORPUS_VERSION:
        raise RuntimeError(
            f"corpus file version {raw.get('version')!r} does not match "
            f"the supported version {CORPUS_VERSION}"
        )
    return tuple((entry["name"], Polynomial(entry["coeffs"]))
                 for entry in raw["entries"])


def standard_corpus() -> "OrderedDict[str, Polynomial]":
    """Name-to-cofactor map in the file's order, a new map on every call."""
    return OrderedDict(_entries())


def corpus_entry(name: str) -> Polynomial:
    """Single corpus cofactor by name."""
    corpus = standard_corpus()
    try:
        return corpus[name]
    except KeyError:
        known = ", ".join(corpus)
        raise KeyError(f"unknown corpus entry {name!r}; known: {known}") from None
