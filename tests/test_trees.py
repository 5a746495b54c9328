"""The flag-graph oracle against brute force, and the key-native classes
against the oracle.

``flag_graphs`` (the flag presentation, canonical codes and stable-tree
enumeration) is checked against labeled-tree enumeration, isomorphism
search and ``networkx`` path counts; tree contraction lives in the
flag-tree oracle ``stirling_oracle``.  The genus-one classes are contracted
through ``GraphComplex.contraction_columns``, drawn as flag graphs from their
keys, and their orientation kill is checked against a raw automorphism
search.  The keys of every degree of both complexes are checked against
the rooted-shape enumeration of ``shape_oracle``, the graph complex's
table of block partitions and cycles against that oracle's own
enumerator, and a complex is checked to hold no tree once its pass is
over.
"""

from __future__ import annotations

import itertools
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import flag_graphs as T
import graph_terms_oracle
from stirhom import graphcomplex
from stirhom import stirling
from stirhom.characters import partitions, representative_permutation
from stirhom.graphcomplex import GraphComplex, _CycleTable, _hung_clusters
from stirhom.stirling import StirlingComplex, _Tree, _members, survey
from stirhom.trees import LaminarSearch, _bit_images, _mask_set
from helpers import laminar_families, perm_parity, signed
from shape_oracle import _partitions_into_blocks, block_cycles, oracle_keys
from stirling_oracle import contract_edge, contract_edge_with_maps, map_edge


def flag_graph(m, key):
    """The flag representative of a genus-one generator, drawn from its key."""
    return T.representative(m, key)[0]


def build_two_vertex_tree(n, child_labels):
    """The n-tree with one edge whose child vertex carries child_labels."""
    child_labels = sorted(child_labels)
    root_labels = [lab for lab in range(n + 1) if lab not in child_labels]
    flag_vertex = [None] * (n + 1)
    for lab in root_labels:
        flag_vertex[lab] = 0
    for lab in child_labels:
        flag_vertex[lab] = 1
    involution = list(range(n + 1)) + [n + 2, n + 1]
    flag_vertex += [0, 1]
    legs = {lab: lab for lab in range(n + 1)}
    return T.Tree(T.Graph(2, flag_vertex, involution, legs))


def corolla(n):
    legs = {lab: lab for lab in range(n + 1)}
    return T.Tree(T.Graph(1, [0] * (n + 1), list(range(n + 1)), legs))


# ---------------------------------------------------------------------------
# brute-force enumeration oracle via labeled trees and graph isomorphism


def oracle_count_stable_trees(n, i):
    """Count isomorphism classes by exhausting labeled trees.

    Nodes 0..n are the legs (degree one, keeping their labels); i+1 further
    unlabeled nodes are internal and must reach degree >= 3.  Labeled trees
    come from Pruefer sequences; classes are merged by isomorphism matching
    on leg labels.
    """
    internal = i + 1
    total = n + 1 + internal
    found = []
    for seq in itertools.product(range(total), repeat=total - 2):
        g = nx.from_prufer_sequence(list(seq))
        if any(g.degree[leg] != 1 for leg in range(n + 1)):
            continue
        if any(g.degree[v] < 3 for v in range(n + 1, total)):
            continue
        for node in g.nodes:
            g.nodes[node]["label"] = node if node <= n else -1
        if not any(nx.is_isomorphic(
                g, h, node_match=lambda a, b: a["label"] == b["label"])
                for h in found):
            found.append(g)
    return len(found)


@pytest.mark.parametrize("n,i", [(3, 1), (4, 1), (4, 2)])
def test_enumeration_matches_bruteforce(n, i):
    assert len(T.enumerate_stable_trees(n, i)) == oracle_count_stable_trees(n, i)


def test_enumeration_edge_cases():
    assert len(T.enumerate_stable_trees(2, 0)) == 1
    assert T.enumerate_stable_trees(5, 4) == []
    with pytest.raises(T.GraphError):
        T.enumerate_stable_trees(1, 0)


def test_enumeration_codes_sorted_and_distinct():
    for n, i in [(4, 2), (5, 2), (5, 3)]:
        codes = [T.canonical_code(t) for t in T.enumerate_stable_trees(n, i)]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_flag_count_and_genus_invariants():
    for n, i in [(4, 0), (4, 2), (5, 3), (6, 2)]:
        for t in T.enumerate_stable_trees(n, i):
            g = t.graph
            assert g.num_flags == 2 * g.num_edges + len(g.legs)
            assert g.first_betti() == 0
            assert all(g.valence(v) >= 3 for v in range(g.num_vertices))
            assert g.num_edges == i


# ---------------------------------------------------------------------------
# canonical codes


def test_canonical_code_invariant_under_flag_permutation():
    # same tree, internal flags allocated in the opposite order
    a = build_two_vertex_tree(3, (2, 3))
    flag_vertex = [0, 0, 1, 1, 1, 0]
    involution = [0, 1, 2, 3, 5, 4]
    b = T.Tree(T.Graph(2, flag_vertex, involution, {0: 0, 1: 1, 2: 2, 3: 3}))
    assert T.canonical_code(a) == T.canonical_code(b)


def test_canonical_code_separates_leg_placements():
    a = build_two_vertex_tree(3, (1, 2))
    b = build_two_vertex_tree(3, (1, 3))
    assert T.canonical_code(a) != T.canonical_code(b)


def triangle_graph(leg_vertex):
    flag_vertex = [leg_vertex[1], leg_vertex[2], leg_vertex[3]]
    involution = [0, 1, 2]
    for u, w in [(0, 1), (1, 2), (2, 0)]:
        a = len(flag_vertex)
        flag_vertex.extend((u, w))
        involution.extend((a + 1, a))
    return T.ModularGraph(
        T.Graph(3, flag_vertex, involution, {1: 0, 2: 1, 3: 2}), (0, 0, 0))


def test_triangle_mirror_same_code():
    # brute-force isomorphism oracle: some vertex bijection preserving legs
    # and adjacency exists between the two presentations
    a = triangle_graph({1: 0, 2: 1, 3: 2})
    b = triangle_graph({1: 0, 2: 2, 3: 1})

    def iso_exists(x, y):
        gx, gy = x.graph, y.graph
        leg_x = {lab: gx.flag_vertex[f] for lab, f in gx.legs.items()}
        leg_y = {lab: gy.flag_vertex[f] for lab, f in gy.legs.items()}
        def pairs(g):
            out = []
            for f1, f2 in g.edges:
                u, w = g.flag_vertex[f1], g.flag_vertex[f2]
                out.append((min(u, w), max(u, w)))
            return sorted(out)
        for perm in itertools.permutations(range(gx.num_vertices)):
            if any(perm[leg_x[lab]] != leg_y[lab] for lab in leg_x):
                continue
            mapped = sorted((min(perm[u], perm[w]), max(perm[u], perm[w]))
                            for u, w in pairs(gx))
            if mapped == pairs(gy):
                return True
        return False

    assert iso_exists(a, b)
    assert T.canonical_code(a) == T.canonical_code(b)


# ---------------------------------------------------------------------------
# contraction


def test_corolla_has_no_edges():
    t = corolla(3)
    assert t.graph.num_edges == 0
    with pytest.raises(T.GraphError):
        contract_edge(t, (0, 1))


def test_contract_two_vertex_tree_gives_corolla():
    t = build_two_vertex_tree(3, (2, 3))
    (edge,) = t.graph.edges
    result = contract_edge(t, edge)
    assert T.canonical_code(result) == T.canonical_code(corolla(3))


def test_contract_loop():
    # the loop's one term lands on the genus-one vertex, trees unchanged
    cx = GraphComplex(3)
    (loop,) = [key for key in cx.generators(1) if len(key[0]) == 1]
    assert flag_graph(3, loop).total_genus() == 1
    ((key, sign),) = signed(*dict(cx.contraction_columns(1))[loop])
    assert key == ((), loop[1]) and sign == 1
    out = flag_graph(3, cx.generators(0)[cx.rows(0)[key]])
    assert out.genus == (1,)
    assert out.graph.num_edges == 0
    assert out.total_genus() == 1
    assert len(out.graph.legs) == 3


def test_contract_counts_and_genus():
    for t in T.enumerate_stable_trees(5, 2):
        for edge in t.graph.edges:
            out = contract_edge(t, edge)
            assert out.graph.num_edges == t.graph.num_edges - 1
            assert out.graph.num_vertices == t.graph.num_vertices - 1
    # every contraction of a genus-one graph, the triangle's included, keeps
    # genus one and drops one edge; nothing is killed, so every target
    # exists, and each edge gives a term but the two parallel edges of a
    # 2-cycle, which contract to the same loop with opposite signs
    triangle = T.canonical_code(triangle_graph({1: 0, 2: 1, 3: 2}))
    for m in (3, 4):
        cx = GraphComplex(m, orientation_kill=False)
        for i in range(1, m + 1):
            targets = cx.generators(i - 1)
            for gen, (plus, minus) in cx.contraction_columns(i):
                terms = plus + minus
                assert len(terms) == i - 2 * (len(gen[0]) == 2)
                for key in terms:
                    out = flag_graph(m, targets[cx.rows(i - 1)[key]])
                    assert out.total_genus() == 1
                    assert out.graph.num_edges == i - 1
                if T.canonical_code(flag_graph(m, gen)) == triangle:
                    assert sorted(len(key[0]) for key in terms) == [2, 2, 2]


@settings(max_examples=40, deadline=None)
@given(st_.integers(0, 10 ** 6))
def test_double_contraction_commutes(pick):
    trees = T.enumerate_stable_trees(5, 2) + T.enumerate_stable_trees(6, 3)
    t = trees[pick % len(trees)]
    edges = t.graph.edges
    e1, e2 = edges[pick % len(edges)], edges[(pick // 7) % len(edges)]
    if e1 == e2:
        return
    r1, fm1, _ = contract_edge_with_maps(t, e1)
    r12 = contract_edge(r1, map_edge(fm1, e2))
    r2, fm2, _ = contract_edge_with_maps(t, e2)
    r21 = contract_edge(r2, map_edge(fm2, e1))
    assert T.canonical_code(r12) == T.canonical_code(r21)


def test_contract_rejects_non_edges():
    t = build_two_vertex_tree(3, (2, 3))
    with pytest.raises(T.GraphError):
        contract_edge(t, (0, 1))
    with pytest.raises(T.GraphError):
        contract_edge(t, (50, 51))


# ---------------------------------------------------------------------------
# automorphisms: a raw flag-permutation search against the cycle-length rule


def oracle_automorphisms(mg):
    """All flag permutations commuting with the structure, by raw search.

    Legs are fixed, so only the edge flags are permuted.
    """
    g = mg.graph
    nf = g.num_flags
    legs = set(g.legs.values())
    inner = [f for f in range(nf) if f not in legs]
    out = []
    for images in itertools.permutations(inner):
        phi = list(range(nf))
        for f, x in zip(inner, images):
            phi[f] = x
        if any(phi[g.involution[f]] != g.involution[phi[f]] for f in range(nf)):
            continue
        # the induced vertex map must be a well-defined genus-preserving bijection
        vmap = {}
        ok = True
        for f in range(nf):
            v, w = g.flag_vertex[f], g.flag_vertex[phi[f]]
            if vmap.setdefault(v, w) != w:
                ok = False
                break
        if not ok or len(set(vmap.values())) != g.num_vertices:
            continue
        if any(mg.genus[v] != mg.genus[w] for v, w in vmap.items()):
            continue
        out.append(tuple(phi))
    return sorted(out)


def oracle_killed(mg):
    """True when some automorphism permutes the edges oddly."""
    edges = mg.graph.edges
    index = {e: pos for pos, e in enumerate(edges)}
    return any(perm_parity([index[tuple(sorted((phi[a], phi[b])))]
                              for a, b in edges]) < 0
               for phi in oracle_automorphisms(mg))


def parallel_pair_graph():
    """Legs 1, 2 on one vertex, leg 3 on the other, two edges between."""
    g = T.Graph(2, [0, 0, 1, 0, 1, 1, 0], [0, 1, 2, 4, 3, 6, 5],
                {1: 0, 2: 1, 3: 2})
    return T.ModularGraph(g, (0, 0))


def test_tree_automorphisms_trivial():
    for t in T.enumerate_stable_trees(4, 2):
        autos = oracle_automorphisms(t.as_modular())
        assert autos == [tuple(range(t.graph.num_flags))]
    # so a genus-one vertex with hanging trees is rigid as well
    cx = GraphComplex(4)
    for i in range(cx.max_edges + 1):
        for key in cx.generators(i):
            if not key[0]:
                mg = flag_graph(4, key)
                assert oracle_automorphisms(mg) == [tuple(range(mg.graph.num_flags))]


def test_parallel_edge_automorphisms():
    mg = parallel_pair_graph()
    autos = oracle_automorphisms(mg)
    assert len(autos) == 2
    assert oracle_killed(mg)
    # its class has a 2-cycle and is killed
    code = T.canonical_code(mg)
    (key,) = [key for key in GraphComplex(3, orientation_kill=False).generators(2)
              if T.canonical_code(flag_graph(3, key)) == code]
    assert len(key[0]) == 2
    assert key not in GraphComplex(3).rows(2)


def test_loop_automorphisms():
    g = T.Graph(1, [0, 0, 0, 0, 0], [0, 1, 2, 4, 3], {1: 0, 2: 1, 3: 2})
    mg = T.ModularGraph(g, (0,))
    autos = oracle_automorphisms(mg)
    assert len(autos) == 2
    # the loop-flag swap fixes the single edge, hence acts evenly
    assert not oracle_killed(mg)
    code = T.canonical_code(mg)
    (key,) = [key for key in GraphComplex(3).generators(1)
              if T.canonical_code(flag_graph(3, key)) == code]
    assert len(key[0]) == 1


def test_automorphisms_closed_under_composition():
    mg = parallel_pair_graph()
    autos = set(oracle_automorphisms(mg))
    assert tuple(range(mg.graph.num_flags)) in autos
    for a in autos:
        for b in autos:
            assert tuple(a[x] for x in b) in autos


def test_kill_rule_matches_raw_search():
    # m = 3 has few flags: every class against the raw search
    everything = GraphComplex(3, orientation_kill=False)
    survivors = GraphComplex(3)
    for i in range(everything.max_edges + 1):
        for key in everything.generators(i):
            killed = oracle_killed(flag_graph(3, key))
            assert killed == (len(key[0]) == 2), everything.code(key)
            assert killed == (key not in survivors.rows(i)), everything.code(key)


# ---------------------------------------------------------------------------
# paths


def as_networkx(tree):
    g = nx.MultiGraph()
    g.add_nodes_from(range(tree.graph.num_vertices))
    g.add_edges_from((tree.graph.flag_vertex[f1], tree.graph.flag_vertex[f2])
                     for f1, f2 in tree.graph.edges)
    return g


def test_unique_shortest_paths_in_trees():
    for t in T.enumerate_stable_trees(5, 3):
        g = as_networkx(t)
        for v in g.nodes:
            for w in g.nodes:
                assert len(list(nx.all_shortest_paths(g, v, w))) == 1


def test_output_flags_point_to_root():
    for t in T.enumerate_stable_trees(5, 3):
        assert t.output_flag(t.root_vertex) == t.graph.legs[0]
        g = as_networkx(t)
        for v in range(t.graph.num_vertices):
            assert len(t.input_flags(v)) == t.graph.valence(v) - 1
            depth = len(t.path_edges_to_root(v))
            assert depth == nx.shortest_path_length(g, v, t.root_vertex)


# ---------------------------------------------------------------------------
# dot export


def test_dot_export_mentions_decorations():
    from stirhom.stirling import StirlingComplex
    # the generator with one edge below the root, its child distinguished
    # with alternating legs 2 and 3: drawn from its key
    cx = StirlingComplex(3, 2)
    (pos,) = [pos for pos, key in enumerate(cx.generators(1))
              if key == (1 << 0b1100, 0b1100, 1 << 4 | 1 << 8)]
    text = cx.generator_dot().split("\n\n")[cx.dim(0) + pos]
    assert text.startswith(f"graph s_3_2_1_{pos} ")
    assert "  v1 [label=\"\", color=red];" in text
    assert "v1 -- leg2 [color=red]" in text and "v1 -- leg3 [color=red]" in text
    assert text.count("leg") == 8 and "  v0 -- v1;" in text
    graphs = GraphComplex(3)
    (pos,) = [pos for pos, key in enumerate(graphs.generators(3)) if len(key[0]) == 3]
    triangle = graphs.generator_dot().split("\n\n")[-graphs.dim(3) + pos]
    assert triangle.startswith(f"graph gc_3_3_{pos} ")
    assert triangle.count('label="g=0"') == 3
    assert "  v0 -- v1;" in triangle and "  v2 -- v0;" in triangle


# ---------------------------------------------------------------------------
# the laminar families against the rooted shapes


CASES = ([("stirling", n, k) for n in range(2, 7) for k in range(2, n + 1)]
         + [("graph", m, kill) for m in range(3, 7) for kill in (True, False)])


@pytest.mark.parametrize("kind,size,other", CASES)
def test_generators_equal_the_shape_oracle(kind, size, other):
    # every degree, and none below degree 0, which the reach check reads
    cx = StirlingComplex(size, other) if kind == "stirling" else GraphComplex(size, other)
    for i in range(cx.max_edges + 1):
        assert cx.generators(i) == oracle_keys(cx, i)
    assert cx.generators(-1) == []


@pytest.mark.parametrize("kill", [True, False])
def test_cycle_table_equals_the_oracle_cycles(kill):
    # the partitions and cycles listed on masks against the oracle's
    # frozenset enumerator and direction rule, for every m <= 8 (the key
    # comparisons stop at m = 7); a sorted list of cycles also catches one
    # listed twice
    def masks(blocks):
        return tuple(sum(1 << j for j in b) for b in blocks)

    for m in range(1, 9):
        expected = {}
        for c in range(1, m + 1):
            if not (kill and c == 2):
                for blocks, cycles in block_cycles(tuple(range(1, m + 1)), c):
                    expected[masks(blocks)] = sorted(map(masks, cycles))
        full = (1 << m + 1) - 2
        expected[(full,)].insert(0, ())
        table = _CycleTable(m, kill)
        assert {blocks: sorted(cycles)
                for blocks, (_pool, cycles) in table.partitions.items()} == expected
        every = sorted(cycle for cycles in expected.values() for cycle in cycles)
        assert [cycle for cycle, _blocks, _pool in table.ascending] == every
        assert all(set(cycle or (full,)) == set(blocks) and pool == _hung_clusters(blocks)
                   for cycle, blocks, pool in table.ascending)
        assert list(table.listed) == every


def test_laminar_families_come_out_ascending():
    # strictly ascending mask-sets: the Stirling walk relies on it to emit
    # its keys sorted without sorting a degree; on the smaller pools they
    # are every pairwise compatible combination, sorted
    pools = [StirlingComplex(n, 2)._clusters for n in range(2, 7)]
    pools += [_hung_clusters([0b1110, 0b110000]), _hung_clusters([(1 << 7) - 2])]
    for masks in pools:
        for size in range(len(masks) + 1):
            families = list(laminar_families(masks, size))
            assert all(a < b for a, b in zip(families, families[1:]))
            if len(masks) <= 26:
                assert families == sorted(
                    _mask_set(combo) for combo in itertools.combinations(masks, size)
                    if all(a & b in (0, a, b) for a, b in itertools.combinations(combo, 2)))
            if not families:
                break


def recursive_laminar_families(masks, size, move=None):
    """The depth-first search of ``laminar_families`` as nested generators,
    one per chosen orbit: the reference its stack of frames must follow,
    family for family and in the same order."""
    if not 0 < size <= len(masks):
        if size == 0:
            yield 0
        return
    orbits, seen = [], 0
    for a in sorted(masks):
        if not seen >> a & 1:
            orbit, b = [a], a if move is None else move[a]
            while b != a:
                orbit.append(b)
                b = move[b]
            seen |= _mask_set(orbit)
            if all(x & y in (0, x, y) for x, y in itertools.combinations(orbit, 2)):
                orbits.append(orbit)
    kept = [a for orbit in orbits for a in orbit]
    compatible = {a: _mask_set(b for b in kept if a & b in (0, a, b)) for a in kept}
    below, leaders, lower = {}, 0, 0
    for orbit in orbits:
        members, common = _mask_set(orbit), lower
        for a in orbit:
            common &= compatible[a]
        below[orbit[0]] = members, len(orbit), common
        leaders |= 1 << orbit[0]
        lower |= members

    def extend(family, allowed, left):
        if not left:
            yield family
            return
        rest = allowed & leaders
        while rest:
            top = rest & -rest
            rest ^= top
            members, count, common = below[top.bit_length() - 1]
            common &= allowed
            if count <= left and common.bit_count() >= left - count:
                yield from extend(family | members, common, left - count)

    yield from extend(0, lower, size)


def _assert_as_recursive(masks, move=None):
    """The stack search gives the recursive reference's families in its
    order, size by size, until both run out."""
    for size in itertools.count(-1):
        families = list(laminar_families(masks, size, move))
        assert families == list(recursive_laminar_families(masks, size, move))
        if size > 0 and not families:
            break


def test_stack_search_follows_the_recursive_search():
    # the pools of the two tests above, without a move and with every move
    # they check: Stirling pools n <= 4 under every permutation, n = 5 per
    # cycle type, and the hung pools of every block partition of m <= 5
    pools = [StirlingComplex(n, 2)._clusters for n in range(2, 7)]
    pools += [_hung_clusters([0b1110, 0b110000]), _hung_clusters([(1 << 7) - 2])]
    for masks in pools:
        _assert_as_recursive(masks)
    for n in range(2, 5):
        for perm in itertools.permutations(range(n + 1)):
            _assert_as_recursive(StirlingComplex(n, 2)._clusters, _rerooting(n, perm))
    for mu in partitions(6):
        _assert_as_recursive(StirlingComplex(5, 2)._clusters,
                             _rerooting(5, representative_permutation(mu)))
    for m in range(3, 6):
        for c in range(1, m + 1):
            for blocks in _partitions_into_blocks(tuple(range(1, m + 1)), c, 1):
                blocks = [sum(1 << j for j in b) for b in blocks]
                masks = _hung_clusters(blocks)
                for perm in itertools.permutations(range(1, m + 1)):
                    image = _bit_images((0,) + perm)
                    if all(image[b] in blocks for b in blocks):
                        _assert_as_recursive(masks, {a: image[a] for a in masks})


def _assert_stable_families(masks, move):
    """The families ``move`` maps onto themselves, as the enumeration by its
    orbits gives them, against a filter of every family, size by size."""
    for size in itertools.count():
        every = list(laminar_families(masks, size))
        stable = list(laminar_families(masks, size, move))
        assert sorted(stable) == [family for family in every
                                  if _mask_set(move[c] for c in _members(family)) == family]
        assert len(set(stable)) == len(stable)
        if not every:
            break


def _rerooting(n, perm):
    """The move of a permutation of 0..n on the clusters of a Stirling tree:
    the side of each image without leg 0."""
    image = _bit_images(perm)
    everything = len(image) - 1
    return {c: everything ^ image[c] if image[c] & 1 else image[c]
            for c in StirlingComplex(n, 2)._clusters}


def test_stable_families_of_the_stirling_pools():
    # every permutation of 0..n for n <= 4, re-rooting included, and each
    # cycle type's representative for n = 5
    for n in range(2, 5):
        for perm in itertools.permutations(range(n + 1)):
            _assert_stable_families(StirlingComplex(n, 2)._clusters, _rerooting(n, perm))
    for mu in partitions(6):
        _assert_stable_families(StirlingComplex(5, 2)._clusters,
                                _rerooting(5, representative_permutation(mu)))


def test_stable_families_of_the_graph_pools():
    # the clusters hung in every block partition of m <= 5 legs, under
    # every permutation of the legs that maps its blocks onto themselves
    for m in range(3, 6):
        for c in range(1, m + 1):
            for blocks in _partitions_into_blocks(tuple(range(1, m + 1)), c, 1):
                blocks = [sum(1 << j for j in b) for b in blocks]
                masks = _hung_clusters(blocks)
                for perm in itertools.permutations(range(1, m + 1)):
                    image = _bit_images((0,) + perm)
                    if all(image[b] in blocks for b in blocks):
                        _assert_stable_families(masks, {a: image[a] for a in masks})


def test_survey_views_each_tree_once(monkeypatch):
    # one survey derives one view per laminar family: the walk of each
    # degree leaves it where the differential and the reach check find it
    built = []

    class Counted(_Tree):
        __slots__ = ()

        def __init__(self, n, clusters):
            built.append(clusters)
            super().__init__(n, clusters)

    monkeypatch.setattr(stirling, "_Tree", Counted)
    assert survey(6, 3)["reach_ok"]
    cx = StirlingComplex(6, 3)
    families = [f for i in range(cx.max_edges + 1)
                for f in laminar_families(cx._clusters, i)]
    assert sorted(built) == sorted(families)


# ---------------------------------------------------------------------------
# no tree outlives the pass


def reachable_from(*roots):
    """Every object reachable from ``roots``, not entering modules or their
    globals."""
    import gc
    import sys
    skip = {id(m) for m in sys.modules.values()}
    skip |= {id(vars(m)) for m in sys.modules.values() if m is not None}
    seen = set(skip)
    stack = [v for v in roots if id(v) not in skip]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(x for x in gc.get_referents(obj) if id(x) not in seen)


@pytest.mark.parametrize("make", [lambda: StirlingComplex(6, 2), lambda: GraphComplex(6)],
                         ids=["stirling-6-2", "graph-6"])
def test_no_tree_outlives_the_pass(make):
    # after the pass every per-degree cache is empty, and what the complex
    # holds besides its homology has no tree view, shape or key in it
    cx = make()
    cx.homology()
    assert cx._caches and not any(cx._caches)
    state = [value for name, value in vars(cx).items() if name != "_homology"]
    assert not [obj for obj in reachable_from(*state) if isinstance(obj, (_Tree, tuple))]


# ---------------------------------------------------------------------------
# the search set-ups a pass shares


def _assert_fresh(search, masks, move):
    """A shared set-up gives, size by size, what a fresh search gives."""
    for size in range(-1, len(masks) + 2):
        assert list(search.families(size)) == list(laminar_families(masks, size, move))


class CountedSearch(LaminarSearch):
    built = []

    def __init__(self, masks, move=None):
        CountedSearch.built.append(move is None)
        super().__init__(masks, move)


@pytest.mark.parametrize("n", range(2, 7))
def test_stirling_search_setups_equal_fresh_searches(monkeypatch, n):
    # in one pass, every relabeling equivariant_euler_character applies (the
    # identity included) offers the keys on the trees a fresh search of its
    # orbits gives, degree by degree; the walk sets up one search and each
    # relabeling one more, every one of which gives what a fresh search
    # gives at every size; after the pass every cache and table is empty
    monkeypatch.setattr(stirling, "LaminarSearch", CountedSearch)
    CountedSearch.built = []
    cx = StirlingComplex(n, 2)
    perms = [representative_permutation(mu) for mu in partitions(n + 1)]
    for i in cx.degrees():
        for perm in perms:
            fresh = [(clusters, dv, alt)
                     for clusters in laminar_families(cx._clusters, i, _rerooting(n, perm))
                     for dv, alts in cx._alternating_sets(cx.tree(clusters)) for alt in alts]
            assert list(cx.fixable_keys(i, perm)) == fresh
        if i == cx.max_edges:
            assert len(cx._searches) == len(perms) + 1
            for bits, search in cx._searches.items():
                _assert_fresh(search, cx._clusters,
                              None if bits is None else _rerooting(n, bits))
    assert CountedSearch.built == [True] + [False] * len(perms)
    assert not any(cx._caches) and not any(cx._tables)


@pytest.mark.parametrize("m,kill", [(m, kill) for m in range(3, 7) for kill in (True, False)])
def test_graph_search_setups_equal_fresh_searches(monkeypatch, m, kill):
    # in one pass, every relabeling equivariant_euler_character applies offers
    # exactly the keys it fixes, by the sorting rule's action; each
    # relabeling sets up one search per block partition it maps onto itself
    # with a cycle it fixes, every one of which gives what a fresh search
    # gives at every size; after the pass every cache and table is empty
    keys = {i: GraphComplex(m, kill).generators(i) for i in range(m + 1)}
    monkeypatch.setattr(graphcomplex, "LaminarSearch", CountedSearch)
    CountedSearch.built = []
    cx = GraphComplex(m, kill)
    perms = [[p + 1 for p in representative_permutation(mu)] for mu in partitions(m)]
    for i in cx.degrees():
        for perm in perms:
            action = graph_terms_oracle.action_terms(perm)
            fixed = [key for key in keys[i] if action(key)[0][0] == key]
            assert sorted(cx.fixable_keys(i, perm)) == fixed
        if i == m:
            table = cx._cycle_table()
            for (blocks, bits), search in table.searches.items():
                pool, image = table.partitions[blocks][0], _bit_images(bits)
                _assert_fresh(search, pool, {c: image[c] for c in pool})
            assert CountedSearch.built.count(False) == len(table.searches)
    assert not any(cx._caches) and not any(cx._tables)
