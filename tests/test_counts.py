"""Enumerated chain dimensions against the counts of ``species_counts``.

The Euler characteristic checks only the alternating sum of the
dimensions; these counts share no code with the enumeration, so a class
dropped or listed twice in any one degree fails here.
"""

from __future__ import annotations

import pytest

from stirhom.graphcomplex import GraphComplex
from stirhom.stirling import StirlingComplex

from species_counts import graph_dims, stirling_dims


@pytest.mark.parametrize("n", range(2, 7))
def test_stirling_dims_match_counts(n):
    for k in range(2, n + 1):
        assert StirlingComplex(n, k).dims() == stirling_dims(n, k)


@pytest.mark.parametrize("m,kill", [(m, kill) for m in range(3, 7)
                                    for kill in (True, False)])
def test_graph_dims_match_counts(m, kill):
    assert GraphComplex(m, orientation_kill=kill).dims() == graph_dims(m, kill)


def test_graph_dims_match_counts_at_seven_legs():
    # degree by degree, each released once counted, so at most one degree
    # of GC(7)'s 214,844 keys is held
    cx, counted = GraphComplex(7), graph_dims(7)
    for i in range(cx.max_edges + 1):
        assert cx.dim(i) == counted[i]
        cx.release(i)


@pytest.mark.parametrize("k", range(2, 8))
def test_stirling_dims_match_counts_at_seven_legs(k):
    # degree by degree, each released once counted, so at most one degree
    # of (7, 2)'s 283,668 keys is held
    cx, counted = StirlingComplex(7, k), stirling_dims(7, k)
    for i in range(cx.max_edges + 1):
        assert cx.dim(i) == counted[i]
        cx.release(i)


def test_counted_totals():
    assert sum(stirling_dims(7, 3).values()) == 54_936
    assert sum(graph_dims(7).values()) == 214_844
