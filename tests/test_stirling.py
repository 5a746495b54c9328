"""Stirling complexes: generators, differential, action, reach.

The first-differential oracle below applies the contraction rules to
one-edge trees directly (the only target is the corolla), sharing nothing
with the production differential except the published basis orders.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stirhom.cli import main
from stirhom.linalg import SparseIntMatrix, composes_to_zero, rank_exact
from stirhom.stirling import (DomainError, StirlingComplex, compose,
                              make_generator, survey, transposition)
from stirhom.trees import _tree_from_shape, canonical_tree_data, relative_sign


def tree_from_nested(shape, n):
    return _tree_from_shape(shape, n)


# ---------------------------------------------------------------------------
# generator enumeration


def test_zero_edge_dimension_is_binomial():
    for n in range(2, 8):
        for k in range(2, n + 1):
            assert StirlingComplex(n, k).dim(0) == math.comb(n, k)


def test_bounds_vanishing():
    cx = StirlingComplex(5, 2)
    assert cx.dim(3) > 0
    assert cx.dim(4) == 0
    for n in range(2, 7):
        for k in range(2, n + 1):
            cxk = StirlingComplex(n, k)
            for i in range(0, n - k + 2):
                assert (cxk.dim(i) > 0) == (i <= n - k)


def test_generator_count_oracle_3_2_1():
    # independent count: every (tree, vertex, 2-subset-of-inputs) triple,
    # using the labeled-tree oracle representation from the tree tests
    import networkx as nx
    internal, n = 2, 3
    total = n + 1 + internal
    classes = []
    for seq in itertools.product(range(total), repeat=total - 2):
        g = nx.from_prufer_sequence(list(seq))
        if any(g.degree[leg] != 1 for leg in range(n + 1)):
            continue
        if any(g.degree[v] < 3 for v in range(n + 1, total)):
            continue
        for node in g.nodes:
            g.nodes[node]["label"] = node if node <= n else -1
        if not any(nx.is_isomorphic(g, h, node_match=lambda a, b:
                                    a["label"] == b["label"]) for h in classes):
            classes.append(g)
    count = sum(math.comb(g.degree[v] - 1, 2)
                for g in classes for v in g.nodes if g.nodes[v]["label"] == -1)
    assert count == 6
    assert StirlingComplex(3, 2).dim(1) == 6


def test_generator_domain_errors():
    with pytest.raises(DomainError):
        StirlingComplex(4, 1)
    with pytest.raises(DomainError):
        StirlingComplex(4, 5)
    t = tree_from_nested(((1, 2, 3), ()), 3)
    with pytest.raises(DomainError):
        make_generator(t, 0, [t.graph.legs[1]])
    with pytest.raises(DomainError):
        make_generator(t, 0, [t.graph.legs[0], t.graph.legs[1]])


def test_generators_sorted_distinct():
    gens = StirlingComplex(5, 3).generators(2)
    codes = [g.code for g in gens]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


# ---------------------------------------------------------------------------
# differential: independent oracle for every one-edge complex


def oracle_first_differential(cx):
    """Matrix of d_1 built directly from the contraction rules.

    Every degree-one generator lives on a two-vertex tree; contraction
    always produces the corolla, so targets are identified by their
    alternating label sets and all signs reduce to alignments of leg-label
    sequences.
    """
    sources = cx.generators(1)
    targets = cx.generators(0)
    by_labels = {}
    for row, g in enumerate(targets):
        flag_label = g.tree.graph.flag_label
        by_labels[frozenset(flag_label[f] for f in g.alt)] = (
            row, [flag_label[f] for f in g.alt_order])
    entries = {}

    def add(row, col, value):
        key = (row, col)
        total = entries.get(key, 0) + value
        if total:
            entries[key] = total
        else:
            entries.pop(key, None)

    for col, g in enumerate(sources):
        t = g.tree
        (edge,) = t.graph.edges
        flag_label = t.graph.flag_label
        dv_edge_flag = next((f for f in edge
                             if t.graph.flag_vertex[f] == g.dv
                             and f in g.alt), None)
        if dv_edge_flag is None:
            # no alternating flag on the edge: all alternating flags are
            # legs and survive with their labels
            src = [flag_label[f] for f in g.alt_order]
            row, ref = by_labels[frozenset(src)]
            add(row, col, relative_sign(src, ref))
        else:
            # replacement: the child's inputs (all legs here) step in, one
            # term each, with no sign beyond the final alignment
            child = t.graph.flag_vertex[t.graph.involution[dv_edge_flag]]
            for b in t.input_flags(child):
                src = [flag_label[b] if f == dv_edge_flag else flag_label[f]
                       for f in g.alt_order]
                row, ref = by_labels[frozenset(src)]
                add(row, col, relative_sign(src, ref))
    return SparseIntMatrix(len(targets), len(sources), entries)


@pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (5, 4), (5, 3)])
def test_first_differential_matches_oracle(n, k):
    cx = StirlingComplex(n, k)
    assert cx.differential(1) == oracle_first_differential(cx)


def test_zero_degree_differential_is_zero():
    for n, k in [(4, 2), (5, 3)]:
        d0 = StirlingComplex(n, k).differential(0)
        assert d0.is_zero() and d0.nrows == 0


def test_three_term_column():
    # two alternating flags at the root: one leg and one edge whose child
    # has two inputs; contracting the plain edge gives one term and the
    # alternating edge two replacement terms
    shape = ((1,), (((2, 3), ()), ((4, 5), ())))
    t = tree_from_nested(shape, 5)
    dv = t.root_vertex
    leg1 = t.graph.legs[1]
    edge_flags = [f for f in t.input_flags(dv) if t.graph.involution[f] != f]
    gen = make_generator(t, dv, [leg1, edge_flags[0]])
    cx = StirlingComplex(5, 2)
    col = cx.index(2)[gen.code]
    column = {(r, c): v for (r, c), v in cx.differential(2).entries.items()
              if c == col}
    assert len(column) == 3
    assert all(v in (-1, 1) for v in column.values())
    alt_edges = [e for e in t.graph.edges if e[0] in gen.alt or e[1] in gen.alt]
    assert len(alt_edges) == 1
    assert len(list(cx.contraction_terms(gen))) == 3


def test_all_entries_unit():
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        cx = StirlingComplex(n, k)
        for i in range(1, cx.max_edges + 1):
            assert all(v in (-1, 1) for v in cx.differential(i).entries.values())


def test_d_squared():
    for n, k in [(5, 2), (4, 4), (5, 3)]:
        assert composes_to_zero(StirlingComplex(n, k).differentials())


def test_euler_characteristic_identity():
    from stirhom.characters import stirling_signed
    for n in range(2, 7):
        for k in range(2, n + 1):
            cx = StirlingComplex(n, k)
            assert cx.euler_characteristic() == stirling_signed(n, k)


# ---------------------------------------------------------------------------
# the symmetric group action


def test_identity_action():
    cx = StirlingComplex(4, 2)
    for i in range(cx.max_edges + 1):
        assert cx.action_matrix(i, tuple(range(5))) == SparseIntMatrix.identity(cx.dim(i))


def test_root_fixing_action_is_signed_permutation():
    cx = StirlingComplex(4, 2)
    for perm in [(0, 2, 1, 3, 4), (0, 2, 3, 4, 1)]:
        for i in range(cx.max_edges + 1):
            m = cx.action_matrix(i, perm)
            cols = {}
            for (r, c), v in m.entries.items():
                cols.setdefault(c, []).append(v)
            assert len(cols) == cx.dim(i)
            assert all(len(vs) == 1 and abs(vs[0]) == 1 for vs in cols.values())


def test_root_swap_replacement_column():
    # two-vertex tree, distinguished child with alternating legs 1 and 2;
    # swapping 0 and 1 drags the root into the alternating set, so the
    # column is the signed sum over the remaining child flags
    shape = ((3,), (((1, 2, 4), ()),))
    t = tree_from_nested(shape, 4)
    child = 1
    alt = [t.graph.legs[1], t.graph.legs[2]]
    gen = make_generator(t, child, alt)
    cx = StirlingComplex(4, 2)
    col = cx.index(1)[gen.code]
    sigma = transposition(4, 0, 1)
    column = {r: v for (r, c), v in cx.action_matrix(1, sigma).entries.items()
              if c == col}

    relabeled = t.relabeled(sigma)
    z = relabeled.output_flag(child)
    assert z in gen.alt
    others = [f for f in relabeled.graph.vertex_flags(child) if f not in gen.alt]
    assert len(others) == 2
    expected = {}
    for b in others:
        alt_order = [b if f == z else f for f in gen.alt_order]
        code, ceo, cao = canonical_tree_data(relabeled, child, frozenset(alt_order))
        sign = -(relative_sign(gen.edge_order, ceo)
                 * relative_sign(alt_order, cao))
        expected[cx.index(1)[code]] = sign
    assert column == expected


def test_equivariance_and_group_law():
    cx = StirlingComplex(4, 2)
    assert cx.verify_equivariance(transposition(4, 0, 1))
    assert StirlingComplex(4, 3).verify_equivariance((1, 2, 3, 4, 0))
    assert cx.verify_group_law([((1, 0, 2, 3, 4), (0, 2, 1, 4, 3))])
    sigma, tau = (4, 0, 1, 2, 3), (1, 2, 0, 4, 3)
    assert compose(sigma, tau) == tuple(sigma[t] for t in tau)


def test_action_rejects_non_bijections():
    cx = StirlingComplex(3, 2)
    with pytest.raises(DomainError):
        cx.action_matrix(0, (0, 1, 1, 2))
    with pytest.raises(DomainError):
        cx.action_matrix(0, (0, 1, 2))


# ---------------------------------------------------------------------------
# reach


def test_reach_values_from_marked_trees():
    cx = StirlingComplex(7, 2)
    # four edges, distinguished vertex two steps from the root with both
    # inputs alternating: reach 8 - 2 - 1 = 5
    x = ((3, 4), ())
    y = ((5, 6), ())
    shape_a = ((1,), (((2, 7), (((), (x, y)),)),))
    t_a = tree_from_nested(shape_a, 7)
    dv_a = 2
    assert t_a.graph.num_edges == 4
    assert len(t_a.path_edges_to_root(dv_a)) == 2
    assert t_a.graph.valence(dv_a) == 3
    assert cx.reach(t_a, dv_a) == 5
    # three edges, distinguished vertex adjacent to the root with two
    # alternating legs among four inputs: reach 6 - 1 - 0 = 5
    shape_b = ((1,), (((2, 3), (((4, 5), ()), ((6, 7), ()))),))
    t_b = tree_from_nested(shape_b, 7)
    dv_b = 1
    assert t_b.graph.num_edges == 3
    assert len(t_b.path_edges_to_root(dv_b)) == 1
    assert t_b.graph.valence(dv_b) == 5
    assert cx.reach(t_b, dv_b) == 5


def test_reach_corolla_and_domain():
    cx = StirlingComplex(5, 2)
    t = tree_from_nested(((1, 2, 3, 4, 5), ()), 5)
    assert cx.reach(t, 0) == 0
    full = StirlingComplex(5, 5)
    with pytest.raises(DomainError):
        full.reach(t, 0)


def test_reach_filtration():
    for n, k in [(5, 2), (3, 2), (4, 3)]:
        cx = StirlingComplex(n, k)
        assert all(cx.reach_filtration_holds(i) for i in range(cx.max_edges + 1))


# ---------------------------------------------------------------------------
# betti and serialization


def test_betti_small():
    assert StirlingComplex(3, 3).betti().as_dict() == {3: 1}
    assert StirlingComplex(4, 2).betti().as_dict() == {2: 0, 3: 0, 4: 11}


def test_total_degree_window_and_euler_consistency():
    for n, k in [(4, 2), (5, 3), (4, 4)]:
        cx = StirlingComplex(n, k)
        betti = cx.betti()
        assert sorted(betti.values) == list(range(k, n + 1))
        chain_euler = sum((-1) ** (i + k) * d for i, d in cx.dims().items())
        assert betti.euler_characteristic() == chain_euler


def test_orientation_seed_leaves_betti_invariant():
    base = StirlingComplex(4, 2).betti().as_dict()
    assert StirlingComplex(4, 2, orient_seed=3).betti().as_dict() == base
    assert StirlingComplex(4, 2, orient_seed=11).betti().as_dict() == base


def test_json_shape():
    cx = StirlingComplex(3, 2)
    payload = cx.to_json_dict()
    assert payload["schema"] == 1
    assert payload["n"] == 3 and payload["k"] == 2
    assert [d["dim"] for d in payload["degrees"]] == [3, 6]
    assert payload["differentials"][0]["i"] == 1
    assert all(len(t) == 3 for t in payload["differentials"][0]["triplets"])
    import json
    json.dumps(payload)


def test_chain_vector_differential_squares_to_zero():
    from stirhom.stirling import ChainVector
    cx = StirlingComplex(5, 2)
    gens = cx.generators(2)
    vec = ChainVector(5, 2, 2, {gens[0].code: 1, gens[7].code: -2})
    once = cx.apply_differential(vec)
    assert not once.is_zero()
    assert cx.apply_differential(once).is_zero()
    assert (vec + vec.scaled(-1)).is_zero()
    with pytest.raises(DomainError):
        vec + ChainVector(5, 2, 1, {})


@settings(max_examples=20, deadline=None)
@given(st_.integers(0, 10 ** 6))
def test_contraction_terms_drop_an_edge(pick):
    cx = StirlingComplex(5, 2)
    gens = cx.generators(2) + cx.generators(3)
    gen = gens[pick % len(gens)]
    for target, dv, alt_order, surviving, _sign in cx.contraction_terms(gen):
        assert target.graph.num_edges == gen.tree.graph.num_edges - 1
        assert len(surviving) == target.graph.num_edges
        assert len(alt_order) == len(gen.alt_order)
        assert set(alt_order) <= set(target.input_flags(dv))


def test_survey_certificate():
    for n, k in [(3, 3), (4, 2), (5, 3)]:
        result = survey(n, k, reach_check=False)
        assert result["certificate"] == "morse-integral"
        assert result["ranks"] == {
            i: rank_exact(d) for i, d in StirlingComplex(n, k).differentials().items()}


def corrupt(monkeypatch, degree):
    """Drop the smallest entry of d_degree of every Stirling complex."""
    original = StirlingComplex.differential

    def corrupted(self, i):
        d = original(self, i)
        if i != degree:
            return d
        entries = dict(d.entries)
        del entries[min(entries)]
        return SparseIntMatrix(d.nrows, d.ncols, entries)

    monkeypatch.setattr(StirlingComplex, "differential", corrupted)


def forbid_coreduction(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("coreduction ran on an unverified complex")

    monkeypatch.setattr("stirhom.linalg.morse_reduce", forbidden)


def test_survey_skips_the_reduction_when_d_squared_fails(monkeypatch):
    corrupt(monkeypatch, 1)
    forbid_coreduction(monkeypatch)
    cx = StirlingComplex(4, 2)
    result = survey(4, 2, reach_check=False)
    assert not result["d2_ok"]
    assert result["certificate"] == "unverified"
    assert result["ranks"] == {i: rank_exact(cx.differential(i)) for i in (1, 2)}


def test_survey_reports_a_broken_d2_instead_of_raising(monkeypatch, capsys):
    # with d_2 corrupted the rank formula gives a negative Betti number,
    # which must be reported, not raised, since d^2 = 0 failed
    corrupt(monkeypatch, 2)
    forbid_coreduction(monkeypatch)
    result = survey(4, 2)
    assert not result["d2_ok"]
    assert result["certificate"] == "unverified"
    assert min(result["betti"].values.values()) < 0
    assert main(["betti", "--n", "4", "--k", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out
