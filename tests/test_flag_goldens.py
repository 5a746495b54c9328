"""The DOT and export goldens against the flag-construction files they
replaced, kept under ``data/flag/``.

Those files hold the drawings, codes and matrices of the complexes as the
flag construction named, sorted and oriented them.  Each drawing, old and
new, is read back into a flag graph and compared by canonical code with
the generator at its place, and every exported matrix must be the old one
carried through the signed generator bijection P, D = P D_flag P^-1.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from stirhom.graphcomplex import GraphComplex
from stirhom.stirling import StirlingComplex

import stirling_oracle
from flag_graphs import FlagGraphComplex, dot_code, parse_dot
from helpers import from_triplets, same, transport

DATA = pathlib.Path(__file__).parent / "data"


def flag_codes(name):
    """The flag-construction code of every generator, by key, of the
    complex a drawing name belongs to, and the old generator codes by
    degree."""
    parts = [int(x) for x in name.split("_")[1:-2]]
    if name.startswith("s_"):
        n, k = parts
        cx, oracle = StirlingComplex(n, k), stirling_oracle.StirlingComplex(n, k)
        degrees = range(cx.max_edges + 1)
        by_key = {stirling_oracle.key_orders(g)[0]: g.code
                  for i in degrees for g in oracle.generators(i)}
        old = {i: [g.code for g in oracle.generators(i)] for i in degrees}
    else:
        (m,) = parts
        cx = GraphComplex(m)
        degrees = range(m + 1)
        oracle = FlagGraphComplex(m, {i: list(cx.rows(i)) for i in degrees})
        by_key = {g.key: g.code for i in degrees for g in oracle.gens[i]}
        old = {i: [g.code for g in oracle.gens[i]] for i in degrees}
    new = {i: [by_key[key] for key in cx.generators(i)] for i in degrees}
    return old, new


@pytest.mark.parametrize("path", ["cli/betti_n4_k2.dot", "cli/betti_max_n4.dot",
                                  "cli/graph_m4.dot", "export/stirling_4_2.dot",
                                  "export/stirling_5_3.dot"])
def test_dot_golden_matches_flag_drawings(path):
    old = parse_dot((DATA / "flag" / path).read_text())
    new = parse_dot((DATA / path).read_text())
    assert [d[0] for d in old] == [d[0] for d in new]
    complexes = {}
    for old_drawing, new_drawing in zip(old, new):
        name = new_drawing[0]
        stem, i, pos = name.rsplit("_", 2)
        if stem not in complexes:
            complexes[stem] = flag_codes(name)
        old_codes, new_codes = complexes[stem]
        assert dot_code(old_drawing) == old_codes[int(i)][int(pos)], name
        assert dot_code(new_drawing) == new_codes[int(i)][int(pos)], name


def read_mtx(text):
    lines = text.splitlines()
    nrows, ncols, _nnz = map(int, lines[1].split())
    return from_triplets(
        nrows, ncols, [(r - 1, c - 1, v) for r, c, v in
                       (map(int, line.split()) for line in lines[2:])])


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
def test_export_golden_matches_flag_export(n, k):
    stem = f"stirling_{n}_{k}"
    old = json.loads((DATA / "flag" / "export" / f"{stem}.json").read_text())
    new = json.loads((DATA / "export" / f"{stem}.json").read_text())
    cx = StirlingComplex(n, k)
    oracle = stirling_oracle.StirlingComplex(n, k)
    p = {-1: []}
    for old_degree, new_degree in zip(old["degrees"], new["degrees"]):
        i = old_degree["i"]
        assert old_degree["generators"] == [g.code for g in oracle.generators(i)]
        assert new_degree["generators"] == [cx.code(key) for key in cx.generators(i)]
        p[i] = stirling_oracle.signed_bijection(cx, oracle, i)
    for old_d, new_d in zip(old["differentials"], new["differentials"]):
        i = old_d["i"]
        shape = (len(p[i - 1]), len(p[i]))
        old_matrix = from_triplets(*shape, old_d["triplets"])
        new_matrix = from_triplets(*shape, new_d["triplets"])
        assert same(new_matrix, transport(old_matrix, p[i - 1], p[i]))
        mtx = [read_mtx((DATA / folder / "export" / f"{stem}_d{i}.mtx").read_text())
               for folder in ("flag", ".")]
        assert all(map(same, mtx, [old_matrix, new_matrix])) and len(mtx) == 2
    assert re.fullmatch(r"T\d+:[\d,]*\|\d+\|[\d,]+", new["degrees"][-1]["generators"][0])
