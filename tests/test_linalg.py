"""Exact rank engine against an independent dense elimination oracle, and
the coreduction against per-degree rank."""

from __future__ import annotations

import itertools
import random
from array import array
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stirhom.characters import stirling_unsigned
from stirhom.graphcomplex import GraphComplex
from stirhom.linalg import (BettiVector, Coreduction, Homology, SparseIntMatrix,
                            _eliminate_rank, alternating_sum,
                            betti_from_dims_and_ranks, composes_to_zero,
                            products_agree, rank_exact)
from stirhom.stirling import StirlingComplex, survey

from helpers import (cols, d_squared_oracle, from_cols, from_triplets,
                     is_zero, morse_reduce, orientation_signs, product,
                     reoriented_homology, same)


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

# the columns a run of signed rows must hold apart: empty, negative only
# (split 0), positive only (split = length), and |v| > 1 on either side
EDGE_COLUMNS = [{}, {0: -2}, {1: 3}, {0: -1, 1: -3}, {1: 2, 0: 1}, {0: 2, 1: -3}]


def with_edge_columns(m):
    """``m`` with ``EDGE_COLUMNS`` appended, their rows taken mod its row
    count."""
    extra = [(r % m.nrows, m.ncols + j, v)
             for j, col in enumerate(EDGE_COLUMNS) for r, v in col.items()]
    return from_triplets(m.nrows, m.ncols + len(EDGE_COLUMNS), [*m.triplets(), *extra])


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
    prod = product(a, b)
    assert same(prod, from_triplets(2, 2, [(0, 0, 2), (1, 1, 15)]))
    with pytest.raises(ValueError):
        product(a, a)


class Unread(list):
    """A matrix's rows whose entries from ``past`` on belong to a column
    that must not be read: a slice reaching that far, an index there, or
    a walk over the whole list raises."""

    def __init__(self, rows, past):
        super().__init__(rows)
        self.past = past

    def __getitem__(self, index):
        if isinstance(index, slice):
            reached = index.indices(len(self))[1]
        else:
            reached = index % len(self) + 1
        if reached > self.past:
            raise AssertionError("a column past the first nonzero one was read")
        return super().__getitem__(index)

    def __iter__(self):
        raise AssertionError("a column past the first nonzero one was read")


def no_matrix(*args):
    raise AssertionError("a matrix was built")


def test_d_squared_is_checked_column_by_column(monkeypatch):
    # no matrix is built, so no product, and no column past the first one
    # the check does not kill is read
    lower = from_triplets(1, 2, [(0, 0, 1), (0, 1, 1)])
    zero = from_triplets(2, 2, [(0, 0, 1), (1, 0, -1)])
    # the columns (+0 -1) and (+0), then (+1), guarded from row 3 on
    unread = SparseIntMatrix(2, Unread([0, 1, 0, 1], past=3),
                             array("I", [0, 2, 3, 4]), array("I", [1, 1, 1]))
    with pytest.raises(AssertionError, match="past the first"):
        list(unread.columns())
    monkeypatch.setattr(SparseIntMatrix, "__init__", no_matrix)
    assert composes_to_zero(lower, zero)
    assert not composes_to_zero(lower, unread)
    with pytest.raises(ValueError):
        composes_to_zero(lower, lower)


def test_equivariance_is_checked_column_by_column(monkeypatch):
    # a b = c d as the verify command compares the action with the
    # differential, and a b = c as it checks the group law: no matrix is
    # built, and no column of either right factor, or of c, past the first
    # one where the products differ is read
    swap = from_triplets(2, 2, [(0, 1, 1), (1, 0, 1)])
    eye = from_triplets(2, 2, [(0, 0, 1), (1, 1, 1)])
    wide = from_triplets(1, 2, [(0, 0, 1)])
    # the columns (+0 +1) and (), then (+0), guarded from row 2 on; and
    # (+0 +1) and (+0), then (+1), guarded from row 3 on
    left = SparseIntMatrix(2, Unread([0, 1, 0], past=2),
                           array("I", [0, 2, 2, 3]), array("I", [2, 0, 1]))
    right = SparseIntMatrix(2, Unread([0, 1, 0, 1], past=3),
                            array("I", [0, 2, 3, 4]), array("I", [2, 1, 1]))
    for guarded in (left, right):
        with pytest.raises(AssertionError, match="past the first"):
            list(guarded.sides())
    monkeypatch.setattr(SparseIntMatrix, "__init__", no_matrix)
    assert products_agree(swap, eye, eye, swap)
    assert not products_agree(swap, left, eye, right)
    assert products_agree(swap, eye, swap)
    assert not products_agree(swap, left, right)
    with pytest.raises(ValueError):
        products_agree(swap, eye, wide, eye)
    with pytest.raises(ValueError):
        products_agree(swap, eye, wide)


def test_signed_rows_and_the_dict_columns():
    # a row is repeated once per unit of its value, on one side of its
    # column's run of rows only, the positive side first and counted in
    # split; the dict columns read the same matrix back
    m = from_cols(3, [{0: 2, 2: -1}, {}, {1: -3, 0: 1}])
    assert m.rows == [0, 0, 2, 0, 1, 1, 1]
    assert m.offsets == array("I", [0, 3, 3, 7])
    assert list(m.columns()) == [[0, 0, 2], [], [0, 1, 1, 1]]
    assert m.split == array("I", [2, 0, 1])
    assert list(m.sides()) == [([0, 0], [2]), ([], []), ([0], [1, 1, 1])]
    assert cols(m) == [{0: 2, 2: -1}, {}, {0: 1, 1: -3}]
    assert m.nnz() == 4 and m.ncols == 3 and not is_zero(m)
    assert same(m, from_triplets(3, 3, [(1, 2, -3), (0, 0, 2), (2, 0, -1), (0, 2, 1)]))
    assert same(SparseIntMatrix(3, m.rows, m.offsets, m.split), m)


@settings(max_examples=150, deadline=None)
@given(st_.integers(2, 6).flatmap(lambda nrows: st_.tuples(
    st_.just(nrows),
    st_.lists(st_.dictionaries(st_.integers(0, nrows - 1),
                               st_.integers(-4, 4).filter(bool), max_size=4),
              max_size=6))))
def test_the_form_round_trips(shape):
    # the rows are one list, cut into columns by ncols + 1 offsets that
    # start at 0, never decrease and end at its length; each column holds
    # its positive rows first, counted in split, a row repeated |v| times;
    # the dict columns, the triplets and the Matrix Market text all read
    # the same matrix back
    nrows, columns = shape
    columns = EDGE_COLUMNS + columns
    m = from_cols(nrows, columns)
    assert m.ncols == len(columns) == len(m.offsets) - 1
    assert type(m.rows) is list and m.offsets.typecode == m.split.typecode == "I"
    assert m.offsets[0] == 0 and m.offsets[-1] == len(m.rows)
    assert all(start <= end for start, end in zip(m.offsets, m.offsets[1:]))
    assert all(cut <= end - start
               for start, end, cut in zip(m.offsets, m.offsets[1:], m.split))
    assert list(m.split[:4]) == [0, 0, 3, 0]
    assert [len(col) for col in m.columns()][:4] == [0, 2, 3, 4]
    for col, cut, want, (positive, negative) in zip(m.columns(), m.split, columns,
                                                    m.sides()):
        assert sorted(col[:cut]) == sorted(r for r, v in want.items() if v > 0 for _ in range(v))
        assert sorted(col[cut:]) == sorted(r for r, v in want.items() if v < 0 for _ in range(-v))
        assert (positive, negative) == (col[:cut], col[cut:])
    assert cols(m) == columns
    entries = sorted((r, c, v) for c, col in enumerate(columns) for r, v in col.items())
    assert sorted(m.triplets()) == entries and m.nnz() == len(entries)
    assert same(from_triplets(nrows, len(columns), entries), m)
    assert same(SparseIntMatrix(nrows, list(m.rows), m.offsets, m.split), m)
    assert is_zero(m) == (not entries)
    header, size, *lines = m.to_matrix_market().splitlines()
    assert size == f"{nrows} {len(columns)} {len(entries)}"
    assert [tuple(map(int, line.split())) for line in lines] == [
        (r + 1, c + 1, v) for r, c, v in entries]


def test_from_triplets_accumulates_and_drops_zeros():
    m = from_triplets(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, 2)])
    assert cols(m) == [{}, {1: 2}]
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
    assert alternating_sum(betti.values) == -3
    assert betti.support() == [3]
    with pytest.raises(RuntimeError):
        betti_from_dims_and_ranks({0: 1, 1: 4}, {1: 3}, lambda i: i)


def test_homology_reports_a_failed_d_squared():
    # d_1 d_2 = 1: not a complex, so both are ranked whole, with no
    # strictness, and a negative Betti number is reported rather than raised
    one = from_triplets(1, 1, [(0, 0, 1)])
    dims = {0: 1, 1: 1, 2: 1}
    result = morse_reduce(dims, {1: one, 2: one}).homology(dims, lambda i: i)
    assert result.certificate == "unverified" and not result.d2_ok
    assert result.ranks == {1: 1, 2: 1}
    assert result.betti.as_dict() == {0: 0, 1: -1, 2: 0}
    # d_1 pairs nothing, as each cell has two faces, so once d_1 d_2 = d_1
    # fails its rank can only come from ranking it whole
    d1 = from_triplets(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)])
    eye = from_triplets(2, 2, [(0, 0, 1), (1, 1, 1)])
    dims = {0: 2, 1: 2, 2: 2}
    result = morse_reduce(dims, {1: d1, 2: eye}).homology(dims, lambda i: i)
    assert result.certificate == "unverified"
    assert result.ranks == {1: 2, 2: 2}
    dims = {0: 1, 1: 1}
    verified = morse_reduce(dims, {1: one}).homology(dims, lambda i: i + 2)
    assert verified.certificate == "morse-integral" and verified.d2_ok
    assert verified.betti.as_dict() == {2: 0, 3: 0}


def test_concentration_needs_a_verified_d_squared():
    # the one concentration verdict: one nonzero degree counts only when
    # d^2 = 0 was verified, and degree 0 is a degree like any other
    one = from_triplets(1, 1, [(0, 0, 1)])
    dims = {0: 1, 1: 1, 2: 1}
    failed = morse_reduce(dims, {1: one, 2: one}).homology(dims, lambda i: i)
    assert failed.betti.support() == [1] and failed.concentrated_in is None
    top = BettiVector({2: 0, 3: 3})
    for certificate in ("morse-integral", "exact-rational"):
        assert Homology(dims, {}, top, certificate).concentrated_in == 3
    assert Homology(dims, {}, top, "unverified").concentrated_in is None
    for betti, degree in (({2: 1, 3: 3}, None), ({2: 0, 3: 0}, None),
                          ({0: 2, 1: 0}, 0), ({0: 0, 1: -1}, 1)):
        homology = Homology(dims, {}, BettiVector(betti), "morse-integral")
        assert homology.concentrated_in == degree


# ---------------------------------------------------------------------------
# signed columns: the term contract, and the d^2 check against its oracle

def _complexes(top):
    """Every type (n, k) with n <= ``top`` and GC(3..``top``) with the
    kill on and off, each made when its test runs."""
    return ([pytest.param(lambda n=n, k=k: StirlingComplex(n, k), id=f"stirling-{n}-{k}")
             for n in range(2, top + 1) for k in range(2, n + 1)]
            + [pytest.param(lambda m=m, kill=kill: GraphComplex(m, kill),
                            id=f"graph-{m}" + ("" if kill else "-kill-off"))
               for m in range(3, top + 1) for kill in (True, False)])


COMPLEXES = _complexes(6)


def _relabelings(cx):
    """A transposition, the cycle of all the legs and their reversal."""
    legs = list(cx.legs)
    return [[legs[1], legs[0], *legs[2:]], legs[1:] + legs[:1], legs[::-1]]


@pytest.mark.parametrize("make", COMPLEXES)
def test_the_terms_of_a_key_have_distinct_targets(make):
    # the assembler puts each term in plus or minus by its sign, so the
    # contraction column of a key, and its action columns under a
    # transposition and under the cycle of all the legs, repeat no target
    # on a side and share none between the sides
    cx = make()
    for i in range(cx.max_edges + 1):
        keys = cx.generators(i)
        streams = [cx.contraction_columns(i)] + [
            cx.action_columns(keys, perm) for perm in _relabelings(cx)[:2]]
        for stream in streams:
            for key, (plus, minus) in stream:
                assert len(set(plus)) == len(plus), cx.code(key)
                assert len(set(minus)) == len(minus), cx.code(key)
                assert set(plus).isdisjoint(minus), cx.code(key)


@pytest.mark.parametrize("make", _complexes(5))
def test_action_columns_do_not_depend_on_the_runs_of_the_keys(make):
    # the action reads each run of keys of one tree or cycle together: fed
    # a degree's keys shuffled, so the runs are broken up, it gives each
    # key, in the order given, the column the sorted keys give it
    cx = make()
    rng = random.Random(5)
    for perm in _relabelings(cx):
        for i in range(cx.max_edges + 1):
            keys = cx.generators(i)
            shuffled = rng.sample(keys, len(keys))
            expected = dict(cx.action_columns(keys, perm))
            columns = list(cx.action_columns(shuffled, perm))
            assert [key for key, _column in columns] == shuffled
            assert all(column == expected[key] for key, column in columns)


@pytest.mark.parametrize("make", COMPLEXES)
def test_d_squared_matches_the_oracle(make):
    # every adjacent pair of whole differentials; then the pair with the
    # sign of one entry of d_i flipped, in a row d_{i-1} does not kill, so
    # the product is nonzero and both checks read False
    d = make().differentials()
    flips = 0
    for i in range(2, len(d) + 1):
        lower, upper = d[i - 1], d[i]
        assert composes_to_zero(lower, upper) == d_squared_oracle(lower, upper)
        lower_cols = cols(lower)
        entry = next((t for t in sorted(upper.triplets()) if lower_cols[t[0]]), None)
        if entry is None:
            continue
        flipped = from_triplets(upper.nrows, upper.ncols, [
            (r, c, -v if (r, c, v) == entry else v) for r, c, v in upper.triplets()])
        assert not composes_to_zero(lower, flipped)
        assert not d_squared_oracle(lower, flipped)
        flips += 1
    assert flips or len(d) < 2


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(st_.integers(-3, 3)), sparse_matrices(st_.integers(-3, 3)))
def test_d_squared_matches_the_oracle_on_small_matrices(lower, upper):
    # entries up to 3 repeat rows on both sides of a column, and both
    # factors carry the edge columns; [L | L] times [U; -U] is zero with
    # every term cancelled, and stays so only until one entry of it changes
    # sign; the product itself is the sum of every pair of entries that meet
    lower = with_edge_columns(lower)
    b = lower.ncols
    upper = with_edge_columns(from_triplets(
        b, upper.ncols, [(r % b, c, v) for r, c, v in upper.triplets()]))
    assert composes_to_zero(lower, upper) == d_squared_oracle(lower, upper)
    assert same(product(lower, upper), from_triplets(lower.nrows, upper.ncols, [
        (r, c, v * w) for r, k, v in lower.triplets()
        for j, c, w in upper.triplets() if k == j]))
    doubled = from_triplets(lower.nrows, 2 * b, [
        *lower.triplets(), *((r, c + b, v) for r, c, v in lower.triplets())])
    stacked = [*upper.triplets(), *((r + b, c, -v) for r, c, v in upper.triplets())]
    zero = from_triplets(2 * b, upper.ncols, stacked)
    assert composes_to_zero(doubled, zero) and d_squared_oracle(doubled, zero)
    if stacked:
        (r, c, v), *rest = stacked
        flipped = from_triplets(2 * b, upper.ncols, [(r, c, -v), *rest])
        assert composes_to_zero(doubled, flipped) == d_squared_oracle(doubled, flipped)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(st_.integers(-3, 3)), sparse_matrices(st_.integers(-3, 3)),
       sparse_matrices(st_.integers(-3, 3)), sparse_matrices(st_.integers(-3, 3)))
def test_products_agree_matches_the_oracle_on_small_matrices(a, b, c, d):
    # two unrelated products, each factor carrying the edge columns; then
    # [a | a] times b split in two, which is a b with no term shared, until
    # one entry of the split changes sign in a row [a | a] does not kill
    a, b, c, d = map(with_edge_columns, (a, b, c, d))
    q, r = a.ncols, b.ncols
    b = from_triplets(q, r, [(i % q, j, v) for i, j, v in b.triplets()])
    c = from_triplets(a.nrows, c.ncols, [(i % a.nrows, j, v) for i, j, v in c.triplets()])
    d = from_triplets(c.ncols, r, [(i % c.ncols, j % r, v) for i, j, v in d.triplets()])
    assert products_agree(a, b, c, d) == same(product(a, b), product(c, d))
    assert products_agree(a, b, product(c, d)) == same(product(a, b), product(c, d))
    assert products_agree(a, b, a, b)
    assert products_agree(a, b, product(a, b))
    doubled = from_triplets(a.nrows, 2 * q, [
        *a.triplets(), *((i, j + q, v) for i, j, v in a.triplets())])
    entries = sorted(b.triplets())
    split = from_triplets(2 * q, r, [(i + q * (n % 2), j, v)
                                     for n, (i, j, v) in enumerate(entries)])
    assert products_agree(a, b, doubled, split)
    assert same(product(a, b), product(doubled, split))
    a_cols = cols(doubled)
    entry = next((t for t in sorted(split.triplets()) if a_cols[t[0]]), None)
    if entry is not None:
        flipped = from_triplets(2 * q, r, [(i, j, -v if (i, j, v) == entry else v)
                                           for i, j, v in split.triplets()])
        assert not products_agree(a, b, doubled, flipped)
        assert not same(product(a, b), product(doubled, flipped))


def flip_one(matrix):
    """The matrix with the sign of its first entry flipped."""
    entries = sorted(matrix.triplets())
    (r, c, v), *rest = entries
    return from_triplets(matrix.nrows, matrix.ncols, [(r, c, -v), *rest])


def relabelings(cx, seed=0):
    """The relabelings the verify command draws: each transposition of the
    first leg with another, and three seeded pairs (sigma, tau)."""
    legs = list(cx.legs)
    rng = random.Random(seed)
    perms = []
    for j in legs[1:]:
        perm = list(legs)
        perm[0], perm[j - legs[0]] = j, legs[0]
        perms.append(tuple(perm))
    pairs = []
    for _ in range(3):
        sigma, tau = list(legs), list(legs)
        rng.shuffle(sigma)
        rng.shuffle(tau)
        pairs.append((tuple(sigma), tuple(tau)))
    return perms + [sigma for sigma, _tau in pairs], pairs


@pytest.mark.parametrize("make", [
    pytest.param(lambda n=n, k=k: StirlingComplex(n, k), id=f"stirling-{n}-{k}")
    for n in range(2, 6) for k in range(2, n + 1)] + [
    pytest.param(lambda m=m: GraphComplex(m), id=f"graph-{m}") for m in (4, 5)])
def test_products_agree_on_the_action(make):
    # equivariance, A_(i-1) d_i = d_i A_i, and the group law,
    # A(sigma) A(tau) = A(sigma tau), times the identity and alone, against
    # the dict product; then with one sign flipped in the left side's right factor,
    # which a signed permutation on its left cannot kill
    cx = make()
    perms, pairs = relabelings(cx)
    d = cx.differentials()
    flips = 0
    for perm in perms:
        actions = [cx.action_matrix(i, perm) for i in range(cx.max_edges + 1)]
        for i, di in d.items():
            agree = products_agree(actions[i - 1], di, di, actions[i])
            assert agree == same(product(actions[i - 1], di), product(di, actions[i]))
            assert agree
            if di.nnz():
                assert not products_agree(actions[i - 1], flip_one(di), di, actions[i])
                flips += 1
    legs = list(cx.legs)
    for sigma, tau in pairs:
        images = dict(zip(legs, sigma))
        composed = tuple(images[t] for t in tau)
        for i in range(cx.max_edges + 1):
            dim = cx.dim(i)
            eye = from_triplets(dim, dim, [(j, j, 1) for j in range(dim)])
            a, b, c = (cx.action_matrix(i, p) for p in (sigma, tau, composed))
            agree = products_agree(a, b, c, eye)
            assert agree == same(product(a, b), c) == products_agree(a, b, c)
            assert agree
            assert not products_agree(a, flip_one(b), c, eye)
            assert not products_agree(a, flip_one(b), c)
            flips += 1
    assert flips >= 3 * (cx.max_edges + 1)


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


def test_the_cut_keeps_a_column_with_a_dead_face():
    # C_0 = {r1, r2}, C_1 = {c', c} with d c' = r2 and d c = 2 r1 + r2, and
    # C_2 = 0.  Step 1 pairs c' with r2, so c keeps a live face r1 beside
    # the dead r2; step 2's check passes on the 2 x 0 d_2 and its cut must
    # keep c, whose residual entry 2 is the rest of rank d_1 over Q
    d1 = from_cols(2, [{1: 1}, {0: 2, 1: 1}])
    dims = {0: 2, 1: 2, 2: 0}
    reduction = morse_reduce(dims, {1: d1, 2: from_cols(2, [])})
    assert reduction.ranks == {1: 2, 2: 0} == {1: dense_rank(d1), 2: 0}
    assert reduction.critical == {0: 1, 1: 1, 2: 0}
    homology = reduction.homology(dims, lambda i: i)
    assert homology.betti.as_dict() == {0: 0, 1: 0, 2: 0}
    assert homology.certificate == "exact-rational"


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
    flipped = {i: from_cols(
        d.nrows, [dict(reversed(col.items())) for col in cols(d)])
        for i, d in diffs.items()}
    assert flipped.keys() == diffs.keys()
    assert all(same(flipped[i], d) for i, d in diffs.items())
    assert any(list(a) != list(b) for i, d in diffs.items()
               for a, b in zip(cols(d), cols(flipped[i])))
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
                                  lambda: GraphComplex(5),
                                  lambda: GraphComplex(5, orientation_kill=False)],
                         ids=["stirling-6-3", "graph-5", "graph-5-kill-off"])
def test_the_pass_holds_two_degrees(make):
    # at the yield of degree i the pass holds the keys of degree i alone,
    # and none on the top degree; the reach check reads degree i-1's scores
    # off its walk, and no degree is walked twice (a Stirling degree's keys
    # and columns both come off its tree walk)
    cx = make()
    walked = []
    name = "_trees" if isinstance(cx, StirlingComplex) else "walk"
    walk = getattr(cx, name)

    def counted(i):
        walked.append(i)
        return walk(i)

    setattr(cx, name, counted)
    seen = []
    for i in cx.degrees():
        if isinstance(cx, StirlingComplex):
            assert cx.reach_filtration_holds(i)
            assert set(cx._reach) <= {i - 1, i}
        if i < cx.max_edges:
            assert set(cx._gens) <= {i}
        else:
            assert not cx._gens
        assert all(set(cache) <= {i - 1, i} for cache in cx._caches)
        seen.append(i)
    assert seen == walked == list(range(cx.max_edges + 1))
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


@pytest.mark.parametrize("make", [lambda: StirlingComplex(6, 3),
                                  lambda: GraphComplex(5)],
                         ids=["stirling-6-3", "graph-5"])
def test_the_pass_pairs_without_the_whole_lower_differential(make, monkeypatch):
    # once d^2 = 0 holds through d_i, the step keeps d_{i-1} only on its
    # live faces: the matrix differential(i-1) returned is gone when the
    # pairs of d_i are taken
    cx = make()
    refs = {}
    build = cx.differential

    def recorded(i):
        d = build(i)
        refs[i] = weakref.ref(d)
        return d

    cx.differential = recorded
    pair = Coreduction._pair
    paired = []

    def checked(self, d, faces, live):
        i = next(j for j, ref in refs.items() if ref() is d)
        assert i == 1 or refs[i - 1]() is None
        paired.append(i)
        return pair(self, d, faces, live)

    monkeypatch.setattr(Coreduction, "_pair", checked)
    homology = cx.homology()
    assert paired == list(range(1, cx.max_edges + 1))
    assert homology.certificate == "morse-integral"


def test_dims_keep_no_key():
    cx = StirlingComplex(5, 2)
    assert cx.dims() == {i: len(StirlingComplex(5, 2).generators(i)) for i in range(4)}
    assert not cx._gens


def test_the_pass_leaves_a_held_differential_alone():
    # a pass builds its own differentials and a step never changes the one
    # it is handed, so one a caller already holds is the same afterwards
    cx = StirlingComplex(5, 2)
    held = {i: cx.differential(i) for i in range(1, cx.max_edges + 1)}
    before = {i: cols(d) for i, d in held.items()}
    cx.homology()
    assert {i: cols(d) for i, d in held.items()} == before


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
    assert result["euler"] == alternating_sum(StirlingComplex(n, k).dims())
