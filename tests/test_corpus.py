"""Bundled cofactor corpus: integrity of the shipped coefficients."""

import json

import numpy as np
import pytest

from bernseries import (CORPUS_VERSION, corpus, corpus_entry, poly_eval,
                        standard_corpus)


def test_version():
    assert CORPUS_VERSION == 1


def test_names_and_order():
    names = list(standard_corpus().keys())
    assert names == ["one", "affine", "square", "quartic", "cheb6", "absdev8"]


def test_simple_entries():
    assert np.array_equal(corpus_entry("one").padded(1), [1.0])
    assert np.array_equal(corpus_entry("affine").padded(2), [0.0, 1.0])
    assert np.array_equal(corpus_entry("square").padded(3), [0.0, 0.0, 1.0])


def test_cheb6_extremal_values():
    p = corpus_entry("cheb6")
    assert p.degree == 6
    for x, want in ((0.0, 1.0), (0.5, -1.0), (1.0, 1.0)):
        assert abs(poly_eval(p, x) - want) < 1e-10


def test_absdev8_tracks_absolute_deviation():
    # degree-8 least-squares fit of |x - 1/2|; its sup error on a fine
    # grid is small but honest, which keeps the first modulus active
    p = corpus_entry("absdev8")
    xs = np.linspace(0, 1, 2001)
    err = np.max(np.abs(poly_eval(p, xs) - np.abs(xs - 0.5)))
    assert 0.015 < err < 0.020


def test_unknown_name():
    with pytest.raises(KeyError, match="one"):
        corpus_entry("missing")


def test_file_read_once_per_process(monkeypatch):
    corpus._entries.cache_clear()
    reads = []
    real = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **k: reads.append(a) or real(*a, **k))
    assert corpus_entry("cheb6").degree == 6
    assert corpus_entry("one").degree == 0
    assert len(reads) == 1


def test_each_call_returns_a_new_map():
    first = standard_corpus()
    first.clear()
    assert list(standard_corpus()) == [
        "one", "affine", "square", "quartic", "cheb6", "absdev8"]
