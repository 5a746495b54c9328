"""Exact rank engine against an independent dense elimination oracle, and
the coreduction against per-degree rank."""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stirhom.characters import stirling_unsigned
from stirhom.graphcomplex import GraphComplex
from stirhom.linalg import (SparseIntMatrix, _eliminate_rank,
                            betti_from_dims_and_ranks, composes_to_zero,
                            compute_homology, morse_reduce, rank_exact)
from stirhom.stirling import StirlingComplex, survey

from helpers import from_triplets, orientation_signs, reoriented_homology


def dense_rank(matrix):
    """Plain dense Gauss-Jordan elimination over exact rationals."""
    rows = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for r, c, v in matrix.triplets():
        rows[r][c] = Fraction(v)
    rank = 0
    for c in range(matrix.ncols):
        pivot = next((r for r in range(rank, matrix.nrows) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(matrix.nrows):
            if r != rank and rows[r][c]:
                f = rows[r][c] / lead[c]
                rows[r] = [a - f * b for a, b in zip(rows[r], lead)]
        rank += 1
    return rank


def test_zero_and_identity():
    assert rank_exact(from_triplets(4, 9, [])) == 0
    assert rank_exact(from_triplets(
        5, 5, [(i, i, 1) for i in range(5)])) == 5


def test_first_differential_rank_matches_dense_oracle():
    d1 = StirlingComplex(4, 2).differential(1)
    assert dense_rank(d1) == 6
    assert rank_exact(d1) == 6


def sparse_matrices(values):
    return st_.builds(
        lambda nr, nc, trips: from_triplets(
            nr, nc, [(r % nr, c % nc, v) for r, c, v in trips]),
        st_.integers(1, 7), st_.integers(1, 7),
        st_.lists(st_.tuples(st_.integers(0, 6), st_.integers(0, 6), values),
                  max_size=18))


matrices = sparse_matrices(st_.integers(-4, 4))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_rank_matches_oracle(m):
    expected = dense_rank(m)
    assert rank_exact(m) == expected
    assert rank_exact(from_triplets(
        m.ncols, m.nrows, [(c, r, v) for r, c, v in m.triplets()])) == expected
    assert expected <= min(m.nrows, m.ncols)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(st_.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6])))
def test_rank_with_larger_pivots_matches_oracle(m):
    # with few +-1 entries most pivots scale the rows they clear
    assert rank_exact(m) == dense_rank(m)


def test_unit_entries_are_pivots_first():
    # the row [2, 1], and the singleton row (2) beside the rows [1, 1] and
    # [0, 1], hold a larger entry that fill alone would pick first
    assert _eliminate_rank(from_triplets(
        1, 2, [(0, 0, 2), (0, 1, 1)])) == (1, True)
    assert _eliminate_rank(from_triplets(
        3, 2, [(0, 0, 2), (1, 0, 1), (1, 1, 1), (2, 1, 1)])) == (2, True)
    # no +-1 entry at all: a rank over Q only
    assert _eliminate_rank(from_triplets(
        1, 2, [(0, 0, 2), (0, 1, 3)])) == (1, False)


def test_matmul_and_equality():
    a = from_triplets(2, 3, [(0, 0, 1), (0, 2, -2), (1, 1, 3)])
    b = from_triplets(3, 2, [(0, 0, 4), (2, 0, 1), (1, 1, 5)])
    prod = a @ b
    assert prod == from_triplets(2, 2, [(0, 0, 2), (1, 1, 15)])
    with pytest.raises(ValueError):
        a @ a


def test_d_squared_is_checked_column_by_column(monkeypatch):
    # no product is built, and no column past the first one the check does
    # not kill is read
    def no_product(*args):
        raise AssertionError("the product was built")

    class Unread(dict):
        def items(self):
            raise AssertionError("a column past the first nonzero one was read")

    monkeypatch.setattr(SparseIntMatrix, "__matmul__", no_product)
    lower = from_triplets(1, 2, [(0, 0, 1), (0, 1, 1)])
    assert composes_to_zero(lower, from_triplets(2, 2, [(0, 0, 1), (1, 0, -1)]))
    assert not composes_to_zero(
        lower, SparseIntMatrix(2, [{0: 1, 1: -1}, {0: 1}, Unread({1: 1})]))
    with pytest.raises(ValueError):
        composes_to_zero(lower, lower)


def test_from_triplets_accumulates_and_drops_zeros():
    m = from_triplets(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, 2)])
    assert m.cols == [{}, {1: 2}]
    with pytest.raises(ValueError):
        from_triplets(1, 1, [(1, 0, 1)])


def test_matrix_market_format():
    m = from_triplets(2, 3, [(1, 2, -7), (0, 0, 3)])
    text = m.to_matrix_market()
    lines = text.strip().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    assert lines[1] == "2 3 2"
    assert lines[2:] == ["1 1 3", "2 3 -7"]


def test_betti_assembly():
    betti = betti_from_dims_and_ranks({0: 3, 1: 6}, {1: 3}, lambda i: i + 2)
    assert betti.as_dict() == {2: 0, 3: 3}
    assert betti.euler_characteristic() == -3
    assert betti.support() == [3]
    with pytest.raises(RuntimeError):
        betti_from_dims_and_ranks({0: 1, 1: 4}, {1: 3}, lambda i: i)


def test_homology_reports_a_failed_d_squared():
    # d_1 d_2 = 1: not a complex, so both are ranked whole, with no
    # strictness, and a negative Betti number is reported rather than raised
    one = from_triplets(1, 1, [(0, 0, 1)])
    result = compute_homology({0: 1, 1: 1, 2: 1}, {1: one, 2: one}, lambda i: i)
    assert result.certificate == "unverified" and not result.d2_ok
    assert result.ranks == {1: 1, 2: 1}
    assert result.betti.as_dict() == {0: 0, 1: -1, 2: 0}
    # d_1 pairs nothing, as each cell has two faces, so once d_1 d_2 = d_1
    # fails its rank can only come from ranking it whole
    d1 = from_triplets(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)])
    eye = from_triplets(2, 2, [(0, 0, 1), (1, 1, 1)])
    result = compute_homology({0: 2, 1: 2, 2: 2}, {1: d1, 2: eye}, lambda i: i)
    assert result.certificate == "unverified"
    assert result.ranks == {1: 2, 2: 2}
    verified = compute_homology({0: 1, 1: 1}, {1: one}, lambda i: i + 2)
    assert verified.certificate == "morse-integral" and verified.d2_ok
    assert verified.betti.as_dict() == {2: 0, 3: 0}


# ---------------------------------------------------------------------------
# coreduction


def reduce_complex(cx):
    diffs = cx.differentials()
    return morse_reduce(cx.dims(), diffs), diffs


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7)
                                 for k in range(2, n + 1)])
def test_stirling_reduction_matches_rank_oracle(n, k):
    cx = StirlingComplex(n, k)
    reduction, diffs = reduce_complex(cx)
    assert reduction.ranks == {i: rank_exact(d) for i, d in diffs.items()}
    assert reduction.certificate == "morse-integral"
    top = cx.max_edges
    assert reduction.critical == {i: stirling_unsigned(n, k) if i == top else 0
                                  for i in range(top + 1)}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_graph_reduction_matches_rank_oracle(m):
    reduction, diffs = reduce_complex(GraphComplex(m))
    assert reduction.ranks == {i: rank_exact(d) for i, d in diffs.items()}
    assert reduction.certificate == "morse-integral"


def test_reduction_without_unit_pairs_takes_residual_path():
    # Z --2--> Z: rank 1 over Q, no unit pair, homology Z/2 in degree 0
    doubling = from_triplets(1, 1, [(0, 0, 2)])
    reduction = morse_reduce({0: 1, 1: 1}, {1: doubling})
    assert reduction.ranks == {1: 1}
    assert reduction.critical == {0: 1, 1: 1}
    assert reduction.certificate == "exact-rational"
    betti = betti_from_dims_and_ranks({0: 1, 1: 1}, reduction.ranks, lambda i: i)
    assert betti.as_dict() == {0: 0, 1: 0}


def test_unit_pivots_keep_the_residual_integral():
    # d_1 = [[1, 1], [1, 2]]: every cell has two faces or two cofaces, so
    # the coreduction pairs nothing, yet the matrix is unimodular and its
    # +-1 pivots clear it over Z
    dims = {0: 2, 1: 2}
    d1 = from_triplets(
        2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)])
    reduction = morse_reduce(dims, {1: d1})
    assert reduction.critical == {0: 2, 1: 2}
    assert reduction.ranks == {1: rank_exact(d1)} == {1: 2}
    assert reduction.certificate == "morse-integral"
    # the seven-vertex torus: every edge has two faces and every triangle
    # three, so no cell is ever paired, and the whole of d_1 and d_2 is a
    # residual that +-1 pivots clear; its homology Z, Z^2, Z is free
    dims, diffs = simplicial_complex(
        [tuple(sorted((v % 7, (v + 1) % 7, (v + 3) % 7))) for v in range(7)]
        + [tuple(sorted((v % 7, (v + 2) % 7, (v + 3) % 7))) for v in range(7)])
    reduction = morse_reduce(dims, diffs)
    assert reduction.critical == dims == {0: 7, 1: 21, 2: 14}
    assert reduction.ranks == {i: dense_rank(d) for i, d in diffs.items()} == {1: 6, 2: 13}
    assert reduction.certificate == "morse-integral"
    assert betti_from_dims_and_ranks(dims, reduction.ranks, lambda i: i).as_dict() == {
        0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("make", [lambda: StirlingComplex(5, 3),
                                  lambda: GraphComplex(5)],
                         ids=["stirling-5-3", "graph-5"])
def test_reduction_ignores_the_order_within_a_column(make):
    # entries of a column keep the order their terms were emitted in; the
    # coreduction must give the same result with every column reversed
    cx = make()
    dims, diffs = cx.dims(), cx.differentials()
    flipped = {i: SparseIntMatrix(
        d.nrows, [dict(reversed(col.items())) for col in d.cols])
        for i, d in diffs.items()}
    assert flipped == diffs
    assert any(list(a) != list(b) for i, d in diffs.items()
               for a, b in zip(d.cols, flipped[i].cols))
    forward, backward = morse_reduce(dims, diffs), morse_reduce(dims, flipped)
    assert backward.ranks == forward.ranks
    assert backward.critical == forward.critical
    assert backward.certificate == forward.certificate


def simplicial_complex(facets):
    """Dims and boundary matrices of the simplicial closure of ``facets``."""
    faces = {tuple(sorted(sub)) for facet in facets
             for size in range(1, len(facet) + 1)
             for sub in itertools.combinations(facet, size)}
    by_degree = {}
    for face in sorted(faces):
        by_degree.setdefault(len(face) - 1, []).append(face)
    dims = {i: len(cells) for i, cells in by_degree.items()}
    diffs = {}
    for i in range(1, len(by_degree)):
        index = {face: pos for pos, face in enumerate(by_degree[i - 1])}
        diffs[i] = from_triplets(
            dims[i - 1], dims[i],
            [(index[face[:j] + face[j + 1:]], col, (-1) ** j)
             for col, face in enumerate(by_degree[i]) for j in range(i + 1)])
    return dims, diffs


def test_projective_plane_needs_the_residual():
    # six-vertex RP^2: H_1 = Z/2 is not free, so no zero residual can exist
    triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    dims, diffs = simplicial_complex(triangles)
    reduction = morse_reduce(dims, diffs)
    assert reduction.ranks == {i: dense_rank(d) for i, d in diffs.items()}
    assert reduction.certificate == "exact-rational"
    betti = betti_from_dims_and_ranks(dims, reduction.ranks, lambda i: i)
    assert betti.as_dict() == {0: 1, 1: 0, 2: 0}


@settings(max_examples=80, deadline=None)
@given(st_.lists(st_.sets(st_.integers(0, 6), min_size=1, max_size=4),
                 min_size=1, max_size=8))
def test_reduction_matches_rank_on_simplicial_complexes(facets):
    dims, diffs = simplicial_complex(facets)
    reduction = morse_reduce(dims, diffs)
    assert reduction.ranks == {i: dense_rank(d) for i, d in diffs.items()}
    assert sum(reduction.critical.values()) <= sum(dims.values())


# ---------------------------------------------------------------------------
# the one pass over the degrees


@pytest.mark.parametrize("make", [lambda: StirlingComplex(6, 3),
                                  lambda: GraphComplex(5)],
                         ids=["stirling-6-3", "graph-5"])
def test_the_pass_holds_two_degrees(make):
    cx = make()
    seen = []
    for i in cx.degrees():
        if isinstance(cx, StirlingComplex):
            # the reach check reads degree i-1 too
            assert cx.reach_filtration_holds(i)
        assert set(cx._gens) <= {i - 1, i} and i in cx._gens
        assert all(set(cache) <= {i - 1, i} for cache in cx._caches)
        seen.append(i)
    assert seen == list(range(cx.max_edges + 1))
    assert not any(cx._caches)


@pytest.mark.parametrize("make", [lambda: StirlingComplex(6, 3),
                                  lambda: GraphComplex(5),
                                  lambda: GraphComplex(5, orientation_kill=False)],
                         ids=["stirling-6-3", "graph-5", "graph-5-kill-off"])
def test_the_pass_drops_each_differential_after_the_next_step(make):
    # a weak reference to every matrix differential(i) returns: at the yield
    # of degree i, d_{i-2} and older are gone, and after the pass none is
    # alive, on the coreduction path and on the negative control's
    cx = make()
    refs = []
    build = cx.differential

    def recorded(i):
        d = build(i)
        refs.append((i, weakref.ref(d)))
        return d

    cx.differential = recorded
    for i in cx.degrees():
        assert {j for j, ref in refs if ref() is not None} <= {i - 1, i}
    assert [j for j, _ref in refs] == list(range(1, cx.max_edges + 1))
    assert not [j for j, ref in refs if ref() is not None]


def test_the_pass_leaves_a_held_differential_alone():
    # a step restricts the differential it is handed in place, so a pass
    # must build its own rather than take one a caller already holds
    cx = StirlingComplex(5, 2)
    held = {i: cx.differential(i) for i in range(1, cx.max_edges + 1)}
    before = {i: [dict(col) for col in d.cols] for i, d in held.items()}
    cx.homology()
    assert {i: d.cols for i, d in held.items()} == before


def whole_ranks(cx):
    """The oracle the pass does not run: every differential ranked whole."""
    return {i: rank_exact(d) for i, d in cx.differentials().items()}


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7)
                                 for k in range(2, n + 1)])
def test_the_pass_matches_the_whole_complex_stirling(n, k):
    streamed = StirlingComplex(n, k).homology()
    assert streamed.ranks == whole_ranks(StirlingComplex(n, k))
    assert streamed.dims == StirlingComplex(n, k).dims()
    assert streamed.certificate == "morse-integral"


@pytest.mark.parametrize("m,kill", [(m, kill) for m in (3, 4, 5, 6)
                                    for kill in (True, False)])
def test_the_pass_matches_the_whole_complex_graph(m, kill):
    streamed = GraphComplex(m, orientation_kill=kill).homology()
    assert streamed.ranks == whole_ranks(GraphComplex(m, orientation_kill=kill))
    assert streamed.dims == GraphComplex(m, orientation_kill=kill).dims()
    if kill:
        assert streamed.certificate == "morse-integral"
    elif m > 3:
        # the negative control: d^2 = 0 fails and the rank formula's
        # negative Betti numbers are kept
        assert streamed.certificate == "unverified"
        assert min(streamed.betti.values.values()) < 0


@pytest.mark.parametrize("make,certificate", [
    (lambda: StirlingComplex(4, 2), "morse-integral"),
    (lambda: GraphComplex(4), "morse-integral"),
    (lambda: GraphComplex(4, orientation_kill=False), "unverified"),
    (lambda: GraphComplex(5, orientation_kill=False), "unverified")],
    ids=["stirling-4-2", "graph-4", "graph-4-kill-off", "graph-5-kill-off"])
def test_homology_survives_a_change_of_orientation(make, certificate):
    # another orientation of the generators conjugates every differential,
    # S D S'; the coreduction and the negative control's per-degree ranks
    # must both give the same ranks, Betti numbers and certificate
    cx = make()
    assert any(sign < 0 for i in range(cx.max_edges + 1)
               for _pos, sign in orientation_signs(cx, i, 12345))
    homology, reoriented = make().homology(), reoriented_homology(cx, 12345)
    assert reoriented.certificate == homology.certificate == certificate
    assert reoriented.ranks == homology.ranks
    assert reoriented.betti == homology.betti


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6)
                                 for k in range(2, n + 1)])
def test_survey_is_the_pass(n, k):
    result = survey(n, k)
    homology = StirlingComplex(n, k).homology()
    assert result["dims"] == homology.dims
    assert result["ranks"] == homology.ranks
    assert result["betti"] == homology.betti
    assert result["certificate"] == homology.certificate
    assert result["d2_ok"] and result["reach_ok"]
    assert result["euler"] == StirlingComplex(n, k).euler_characteristic()
