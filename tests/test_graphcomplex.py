"""Genus-one graph complex against an independent symbolic oracle.

The oracle below re-derives a full differential matrix from scratch:
graphs are reduced to (genus, legs, edge-endpoint multiset) encodings,
contraction and isomorphism matching are reimplemented on that encoding,
and only the published reference edge orders are shared: those that
``canonical_modular_data`` gives the representative flag graph of each
generator (they fix the basis both computations must express themselves
in).  The orientation kill is checked against a search over vertex
automorphisms that shares nothing with the engine's cycle-length rule.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from stirhom.graphcomplex import (GraphComplex, enumerate_graph_generators,
                                  verify_decomposition)
from stirhom.linalg import SparseIntMatrix, composes_to_zero
from stirhom.trees import canonical_modular_data, perm_parity, relative_sign


# ---------------------------------------------------------------------------
# enumeration


def test_single_genus_one_corolla():
    gens = GraphComplex(3).generators(0)
    assert len(gens) == 1
    mg = gens[0].mgraph
    assert mg.graph.num_vertices == 1 and mg.genus == (1,)
    assert mg.total_genus() == 1


def test_generator_invariants():
    for m in (3, 4):
        cx = GraphComplex(m)
        for i in range(0, m + 1):
            for gen in cx.generators(i):
                g = gen.mgraph.graph
                assert gen.mgraph.total_genus() == 1
                assert g.num_flags == 2 * g.num_edges + m
                assert g.num_edges == i
                assert set(g.legs) == set(range(1, m + 1))
                assert all(2 * gen.mgraph.genus[v] + g.valence(v) >= 3
                           for v in range(g.num_vertices))


def test_no_generators_beyond_max_edges():
    assert GraphComplex(3).generators(4) == []
    assert GraphComplex(4).generators(5) == []


def test_parallel_edges_killed():
    with_kill = enumerate_graph_generators(3, 2)
    without = enumerate_graph_generators(3, 2, orientation_kill=False)
    surviving = {g.code for g in with_kill}
    killed = [g for g in without if g.code not in surviving]
    assert killed and len(without) == len(with_kill) + len(killed)
    assert all(len(g.key[0]) == 2 for g in killed)

    def has_parallel(mg):
        pairs = Counter()
        for f1, f2 in mg.graph.edges:
            u, w = mg.graph.flag_vertex[f1], mg.graph.flag_vertex[f2]
            pairs[(min(u, w), max(u, w))] += 1
        return any(v > 1 for v in pairs.values())

    assert all(not has_parallel(g.mgraph) for g in with_kill)
    assert any(has_parallel(g.mgraph) for g in without)


def test_triangle_survives():
    gens = GraphComplex(3).generators(3)
    shapes = [(g.mgraph.graph.num_vertices, g.mgraph.graph.first_betti())
              for g in gens]
    assert (3, 1) in shapes  # the triangle with one leg per vertex


def test_loop_contraction_hits_genus_one_corolla():
    cx = GraphComplex(3)
    loop_gens = [g for g in cx.generators(1)
                 if g.mgraph.graph.num_vertices == 1 and g.mgraph.genus == (0,)]
    assert len(loop_gens) == 1
    col = cx.index(1)[loop_gens[0].code]
    column = {r: v for (r, c), v in cx.differential(1).entries.items() if c == col}
    corolla_row = cx.index(0)[cx.generators(0)[0].code]
    assert column == {corolla_row: 1} or column == {corolla_row: -1}


# ---------------------------------------------------------------------------
# independent differential oracle


def encode(mg):
    g = mg.graph
    legs = tuple(sorted((lab, g.flag_vertex[f]) for lab, f in g.legs.items()))
    edges = Counter()
    for f1, f2 in g.edges:
        u, w = g.flag_vertex[f1], g.flag_vertex[f2]
        edges[(min(u, w), max(u, w))] += 1
    return mg.genus, legs, edges


def contract_encoding(genus, legs, edges, pair):
    genus = list(genus)
    edges = Counter(edges)
    edges[pair] -= 1
    if not edges[pair]:
        del edges[pair]
    u, w = pair
    if u == w:
        genus[u] += 1
        remap = {v: v for v in range(len(genus))}
    else:
        genus[u] += genus[w]
        del genus[w]
        remap = {v: (v if v < w else u if v == w else v - 1)
                 for v in range(len(genus) + 1)}
    new_edges = Counter()
    for (a, b), count in edges.items():
        a2, b2 = remap[a], remap[b]
        new_edges[(min(a2, b2), max(a2, b2))] += count
    new_legs = tuple(sorted((lab, remap[v]) for lab, v in legs))
    return tuple(genus), new_legs, new_edges


def vertex_isomorphisms(enc_a, enc_b):
    """Every vertex bijection matching genus, legs and edge multisets."""
    genus_a, legs_a, edges_a = enc_a
    genus_b, legs_b, edges_b = enc_b
    if len(genus_a) != len(genus_b):
        return
    leg_map_a, leg_map_b = dict(legs_a), dict(legs_b)
    for pi in itertools.permutations(range(len(genus_a))):
        if any(genus_a[v] != genus_b[pi[v]] for v in range(len(genus_a))):
            continue
        if any(pi[leg_map_a[lab]] != leg_map_b[lab] for lab in leg_map_a):
            continue
        mapped = Counter()
        for (a, b), count in edges_a.items():
            a2, b2 = pi[a], pi[b]
            mapped[(min(a2, b2), max(a2, b2))] += count
        if mapped == edges_b:
            yield pi


def find_isomorphism(enc_a, enc_b):
    """A vertex bijection matching genus, legs and edge multisets, or None."""
    return next(vertex_isomorphisms(enc_a, enc_b), None)


def oracle_has_odd_automorphism(enc):
    """Whether some leg-fixing automorphism permutes the edges oddly.

    An automorphism is a vertex automorphism lifted bundle by bundle: any
    bijection of each bundle of parallel edges (or loops) onto its image,
    loops flipped at will (a flip fixes the edge).  A bundle of two or more
    edges therefore allows a transposition; otherwise every vertex
    automorphism lifts to one edge permutation, whose parity is read off.
    """
    edges = enc[2]
    if any(count > 1 for count in edges.values()):
        return True
    pairs = sorted(edges)
    for pi in vertex_isomorphisms(enc, enc):
        images = [pairs.index((min(pi[a], pi[b]), max(pi[a], pi[b])))
                  for a, b in pairs]
        if perm_parity(images) < 0:
            return True
    return False


def test_kill_rule_is_two_cycle():
    # every class with m <= 5: an odd automorphism exists exactly when the
    # key has a cycle of two blocks, and exactly then the kill drops it
    for m in (3, 4, 5):
        everything = GraphComplex(m, orientation_kill=False)
        survivors = GraphComplex(m)
        for i in range(m + 1):
            for gen in everything.generators(i):
                odd = oracle_has_odd_automorphism(encode(gen.mgraph))
                assert odd == (len(gen.key[0]) == 2), gen.code
                assert odd == (gen.code not in survivors.index(i)), gen.code


def vertex_pairs(mg, edges):
    """The endpoint pair of each flag edge."""
    g = mg.graph
    return [tuple(sorted((g.flag_vertex[f1], g.flag_vertex[f2])))
            for f1, f2 in edges]


def oracle_differential(cx, i):
    sources = cx.generators(i)
    targets = cx.generators(i - 1)
    target_data = []
    for target in targets:
        mg = target.mgraph
        code, flag_order = canonical_modular_data(mg, cx.orient_seed)
        assert code == target.code
        target_data.append((encode(mg), vertex_pairs(mg, flag_order)))
    entries = {}
    for col, gen in enumerate(sources):
        mg = gen.mgraph
        code, flag_order = canonical_modular_data(mg, cx.orient_seed)
        assert code == gen.code
        # survivors have no parallel edges, so endpoint pairs name edges
        order = vertex_pairs(mg, flag_order)
        assert len(set(order)) == len(order)
        genus, legs, edges = encode(mg)
        for pos, pair in enumerate(order):
            move_sign = (-1) ** (len(order) - 1 - pos)
            new_enc = contract_encoding(genus, legs, edges, pair)
            if any(count > 1 for count in new_enc[2].values()):
                continue  # a parallel pair appears: that class is killed
            surviving = []
            for other in order:
                if other == pair:
                    continue
                u, w = other
                if pair[0] != pair[1]:
                    ru = u if u < pair[1] else pair[0] if u == pair[1] else u - 1
                    rw = w if w < pair[1] else pair[0] if w == pair[1] else w - 1
                else:
                    ru, rw = u, w
                surviving.append((min(ru, rw), max(ru, rw)))
            row = None
            for idx, (enc_b, _ref) in enumerate(target_data):
                pi = find_isomorphism(new_enc, enc_b)
                if pi is not None:
                    row = idx
                    break
            assert row is not None, "contraction left the surviving classes"
            ref = target_data[row][1]
            transported = [(min(pi[u], pi[w]), max(pi[u], pi[w]))
                           for u, w in surviving]
            sign = move_sign * relative_sign(transported, ref)
            key = (row, col)
            total = entries.get(key, 0) + sign
            if total:
                entries[key] = total
            else:
                del entries[key]
    return SparseIntMatrix(len(targets), len(sources), entries)


@pytest.mark.parametrize("m,i", [(3, 1), (3, 2), (3, 3),
                                 (4, 1), (4, 2), (4, 3), (4, 4)])
def test_differential_matches_oracle(m, i):
    for seed in (0, 12345):
        cx = GraphComplex(m, orient_seed=seed)
        assert cx.differential(i) == oracle_differential(cx, i)


def test_canonical_form_once_per_class(monkeypatch):
    # rows are found by key: the flag-graph canonical form only names the
    # classes, once each, however many terms land on them
    from stirhom import graphcomplex
    calls = []
    canonical = graphcomplex.canonical_modular_data

    def counting(mg, orient_seed=0):
        calls.append(mg)
        return canonical(mg, orient_seed)

    monkeypatch.setattr(graphcomplex, "canonical_modular_data", counting)
    cx = GraphComplex(4)
    cx.differentials()
    for i in range(cx.max_edges + 1):
        cx.action_matrix(i, [2, 3, 1, 4])
    assert len(calls) == sum(cx.dims().values())


def test_d_squared():
    assert composes_to_zero(GraphComplex(3).differentials())
    assert composes_to_zero(GraphComplex(4).differentials())


# ---------------------------------------------------------------------------
# homology


def test_betti_values():
    assert GraphComplex(3).betti().support() == [3]
    assert GraphComplex(3).betti()[3] == 1
    b4 = GraphComplex(4).betti()
    assert b4.support() == [4] and b4[4] == 3
    b5 = GraphComplex(5).betti()
    assert b5.support() == [5] and b5[5] == 12


def test_decomposition_ranks():
    assert verify_decomposition(GraphComplex(4))
    assert verify_decomposition(GraphComplex(5))


def test_betti_euler_matches_chain_euler():
    for m in (3, 4):
        cx = GraphComplex(m)
        assert cx.betti().euler_characteristic() == cx.euler_characteristic()


def test_negative_control_changes_betti():
    changed = False
    for m in (3, 4, 5):
        on = GraphComplex(m).betti().as_dict()
        off = GraphComplex(m, orientation_kill=False).betti().as_dict()
        if on != off:
            changed = True
            break
    assert changed


def test_negative_control_keeps_rank_formula():
    # the coreduction is valid only for d^2 = 0; on the kill-off matrices it
    # would report the kill-on answer, so these values pin the rank formula
    expected = {4: {0: 0, 1: 0, 2: 0, 3: -2, 4: 1},
                5: {0: 0, 1: 0, 2: 0, 3: -8, 4: -18, 5: 2}}
    for m, values in expected.items():
        off = GraphComplex(m, orientation_kill=False).homology()
        assert off.betti.as_dict() == values
        assert off.certificate == "unverified"


def test_orientation_seed_invariance():
    base = GraphComplex(4).betti().as_dict()
    assert GraphComplex(4, orient_seed=5).betti().as_dict() == base


# ---------------------------------------------------------------------------
# optional equivariant comparison (flagged; ranks are the required check)


def test_graph_action_is_signed_permutation_and_commutes():
    cx = GraphComplex(4)
    perm = {1: 3, 2: 1, 3: 2, 4: 4}
    actions = {i: cx.action_matrix(i, perm) for i in range(cx.max_edges + 1)}
    for i, m in actions.items():
        assert len(m.entries) == cx.dim(i)
        assert all(v in (-1, 1) for v in m.entries.values())
    for i in range(1, cx.max_edges + 1):
        d = cx.differential(i)
        assert actions[i - 1] @ d == d @ actions[i]
    with pytest.raises(Exception):
        cx.action_matrix(0, {1: 1, 2: 2, 3: 3, 4: 5})


@pytest.mark.parametrize("m", [4, 5])
def test_graph_action_group_law_and_equivariance(m):
    cx = GraphComplex(m)
    rng = random.Random(m)
    perms = []
    for j in range(2, m + 1):
        perm = list(range(1, m + 1))
        perm[0], perm[j - 1] = j, 1
        perms.append(perm)
    for _ in range(3):
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        perms.append(perm)
    d = cx.differentials()
    for sigma, tau in zip(perms, perms[1:] + perms[:1]):
        # (sigma after tau)(j) = sigma(tau(j)), as sequences of images
        product = [sigma[t - 1] for t in tau]
        for i in range(cx.max_edges + 1):
            assert (cx.action_matrix(i, sigma) @ cx.action_matrix(i, tau)
                    == cx.action_matrix(i, product))
    for perm in perms:
        actions = [cx.action_matrix(i, perm) for i in range(cx.max_edges + 1)]
        for i, di in d.items():
            assert actions[i - 1] @ di == di @ actions[i]


def test_character_level_decomposition():
    from stirhom.graphcomplex import graph_homology_character
    from stirhom.characters import equivariant_euler_character
    from stirhom.stirling import StirlingComplex
    assert (graph_homology_character(GraphComplex(4))
            == equivariant_euler_character(StirlingComplex(3, 2)))
    assert verify_decomposition(GraphComplex(4), include_characters=True)
    assert verify_decomposition(GraphComplex(5), include_characters=True)
