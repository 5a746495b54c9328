"""Stirling complexes: generators, differential, action, reach.

The first-differential oracle below applies the contraction rules to
one-edge trees directly (the only target is the corolla), sharing nothing
with the production differential except the published basis orders, which
``helpers.reference_orders`` spells out.  The flag-tree oracle in
``stirling_oracle`` names and orients its generators the way the package
did before keys named them; every differential and action matrix must
equal its matrices up to the signed generator bijection P between the two
bases, D = P D_flag P^-1, and every reach verdict must agree.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stirhom import linalg
from stirhom.cli import main
from stirhom.linalg import composes_to_zero, rank_exact
from stirhom.stirling import (DomainError, StirlingComplex, compose, survey,
                              transposition)

import stirling_oracle
from flag_graphs import _tree_from_shape, canonical_tree_data
from helpers import (from_triplets, make_generator, reference_orders,
                     relative_sign, reoriented_homology, transport)


def tree_from_nested(shape, n):
    return _tree_from_shape(shape, n)


def mask(*labels):
    """The leaf set of the given leg labels as a bitmask."""
    return sum(1 << j for j in labels)


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
    corolla = mask(1, 2, 3)
    with pytest.raises(DomainError):
        make_generator(3, [], corolla, [mask(1)])
    with pytest.raises(DomainError):
        make_generator(3, [], corolla, [mask(0), mask(1)])
    # two crossing clusters are no tree
    with pytest.raises(DomainError):
        make_generator(4, [mask(1, 2), mask(2, 3)], mask(1, 2, 3, 4),
                       [mask(4), mask(1, 2)])


def test_generators_sorted_distinct():
    cx = StirlingComplex(5, 3)
    keys = cx.generators(2)
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert len({cx.code(key) for key in keys}) == len(keys)


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

    def label(side):
        return side.bit_length() - 1

    by_labels = {}
    for row, key in enumerate(targets):
        labels = [label(side) for side in reference_orders(cx, key)[1]]
        by_labels[frozenset(labels)] = (row, labels)
    triplets = []
    for col, key in enumerate(sources):
        (edge,), alt_order = reference_orders(cx, key)
        if edge not in alt_order:
            # no alternating flag on the edge: all alternating flags are
            # legs and survive with their labels
            src = [label(side) for side in alt_order]
            row, ref = by_labels[frozenset(src)]
            triplets.append((row, col, relative_sign(src, ref)))
        else:
            # replacement: the child's inputs (all legs here) step in, one
            # term each, with no sign beyond the final alignment
            for b in range(1, cx.n + 1):
                if not edge >> b & 1:
                    continue
                src = [b if side == edge else label(side)
                       for side in alt_order]
                row, ref = by_labels[frozenset(src)]
                triplets.append((row, col, relative_sign(src, ref)))
    return from_triplets(len(targets), len(sources), triplets)


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
    key = make_generator(5, [mask(2, 3), mask(4, 5)], mask(1, 2, 3, 4, 5),
                         [mask(1), mask(2, 3)])
    cx = StirlingComplex(5, 2)
    col = cx.rows(2)[key]
    column = cx.differential(2).cols[col]
    assert len(column) == 3
    assert all(v in (-1, 1) for v in column.values())
    edge_order, alt_order = reference_orders(cx, key)
    alt_edges = [c for c in edge_order if c in alt_order]
    assert len(alt_edges) == 1
    assert len(list(cx.contraction_terms(key))) == 3


def test_all_entries_unit():
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        cx = StirlingComplex(n, k)
        for i in range(1, cx.max_edges + 1):
            assert all(v in (-1, 1) for _r, _c, v in cx.differential(i).triplets())


def test_d_squared():
    for n, k in [(5, 2), (4, 4), (5, 3)]:
        d = StirlingComplex(n, k).differentials()
        assert all(composes_to_zero(d[i - 1], d[i]) for i in range(2, len(d) + 1))


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
        identity = from_triplets(
            cx.dim(i), cx.dim(i), [(j, j, 1) for j in range(cx.dim(i))])
        assert cx.action_matrix(i, tuple(range(5))) == identity


def test_root_fixing_action_is_signed_permutation():
    cx = StirlingComplex(4, 2)
    for perm in [(0, 2, 1, 3, 4), (0, 2, 3, 4, 1)]:
        for i in range(cx.max_edges + 1):
            m = cx.action_matrix(i, perm)
            cols = {}
            for _r, c, v in m.triplets():
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
    gen = stirling_oracle.make_generator(t, child, alt)
    cx = StirlingComplex(4, 2)
    col, source_sign = stirling_oracle.position(cx, 1, gen)
    sigma = transposition(4, 0, 1)
    column = cx.action_matrix(1, sigma).cols[col]

    relabeled = t.relabeled(sigma)
    z = relabeled.output_flag(child)
    assert z in gen.alt
    others = [f for f in relabeled.graph.vertex_flags(child) if f not in gen.alt]
    assert len(others) == 2
    expected = {}
    for b in others:
        alt_order = [b if f == z else f for f in gen.alt_order]
        _code, ceo, cao = canonical_tree_data(relabeled, child, frozenset(alt_order))
        sign = -(relative_sign(gen.edge_order, ceo)
                 * relative_sign(alt_order, cao))
        # from the flag orientations to the key-native ones
        target = stirling_oracle.make_generator(relabeled, child, alt_order)
        row, target_sign = stirling_oracle.position(cx, 1, target)
        expected[row] = target_sign * sign * source_sign
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
    with pytest.raises(DomainError, match="bijection of 0..3"):
        cx.action_matrix(0, {0: 0})


# ---------------------------------------------------------------------------
# reach


def test_reach_values_from_marked_trees():
    cx = StirlingComplex(7, 2)
    # four edges, distinguished vertex two steps from the root with both
    # inputs alternating: reach 8 - 2 - 1 = 5
    x, y = mask(3, 4), mask(5, 6)
    gen_a = make_generator(7, [mask(2, 3, 4, 5, 6, 7), x | y, x, y], x | y,
                           [x, y])
    tree_a, dv_a = cx.tree(gen_a[0]), gen_a[1]
    assert len(reference_orders(cx, gen_a)[0]) == 4
    assert tree_a.depth(dv_a) == 2
    assert len(tree_a.inputs[dv_a]) + 1 == 3
    assert cx.reach(gen_a) == 5
    # three edges, distinguished vertex adjacent to the root with two
    # alternating legs among four inputs: reach 6 - 1 - 0 = 5
    dv_b = mask(2, 3, 4, 5, 6, 7)
    gen_b = make_generator(7, [dv_b, mask(4, 5), mask(6, 7)], dv_b,
                           [mask(2), mask(3)])
    tree_b = cx.tree(gen_b[0])
    assert len(reference_orders(cx, gen_b)[0]) == 3
    assert tree_b.depth(dv_b) == 1
    assert len(tree_b.inputs[dv_b]) + 1 == 5
    assert cx.reach(gen_b) == 5


def test_reach_corolla_and_domain():
    cx = StirlingComplex(5, 2)
    root = mask(1, 2, 3, 4, 5)
    assert cx.reach(make_generator(5, [], root, [mask(1), mask(2)])) == 0
    full = StirlingComplex(5, 5)
    with pytest.raises(DomainError):
        full.reach(make_generator(5, [], root, [mask(j) for j in range(1, 6)]))


def test_reach_filtration():
    for n, k in [(5, 2), (3, 2), (4, 3)]:
        cx = StirlingComplex(n, k)
        assert all(cx.reach_filtration_holds(i) for i in range(cx.max_edges + 1))


def test_survey_scores_each_reach_once(monkeypatch):
    scored = []
    score = StirlingComplex.vertex_reach

    def recorded(cx, tree, dv):
        value = score(cx, tree, dv)
        scored.append((tree.edges, dv, value))
        return value

    monkeypatch.setattr(StirlingComplex, "vertex_reach", recorded)
    assert survey(5, 3)["reach_ok"]
    calls = list(scored)
    # the acyclic part by its definition, the vertices its keys sit at
    cx = StirlingComplex(5, 3)
    acyclic = [(clusters, dv) for i in range(cx.max_edges + 1)
               for clusters, dv, _alt in cx.generators(i)
               if dv != cx.tree(clusters).full or len(cx.tree(clusters).inputs[dv]) > cx.k]
    assert len(acyclic) == 140
    vertices = {(cx.tree(clusters).edges, dv) for clusters, dv in acyclic}
    assert len({(edges, dv) for edges, dv, _value in calls}) == len(calls)
    assert {(edges, dv) for edges, dv, value in calls if value is not None} == vertices


def test_the_walk_scores_every_key():
    # the reach the walk stores per key is the one reach and
    # in_acyclic_part give key by key
    for n in range(2, 7):
        for k in range(2, n + 1):
            cx = StirlingComplex(n, k)
            for i in range(-1, cx.max_edges + 1):
                keys = cx.generators(i)
                assert cx._reach[i] == [cx.reach(key) if cx.in_acyclic_part(key) else None
                                        for key in keys]


def test_contraction_terms_never_cancel():
    # the reach check reads its targets off the differential's entries,
    # which is sound only because every contraction term is one +-1 entry
    for n in range(2, 7):
        for k in range(2, n + 1):
            cx = StirlingComplex(n, k)
            for i in range(1, cx.max_edges + 1):
                column = {}
                for _r, c, v in cx.differential(i).triplets():
                    column.setdefault(c, []).append(v)
                for col, gen in enumerate(cx.generators(i)):
                    values = column.get(col, [])
                    assert len(values) == len(list(cx.contraction_terms(gen)))
                    assert all(v in (-1, 1) for v in values)


def test_reach_check_can_fail(monkeypatch):
    # with the edgeless generators left out of the acyclic part, a
    # one-edge generator's contraction leaves it
    original = StirlingComplex.vertex_reach

    def without_corollas(self, tree, dv):
        return original(self, tree, dv) if tree.edges else None

    monkeypatch.setattr(StirlingComplex, "vertex_reach", without_corollas)
    cx = StirlingComplex(4, 2)
    assert [cx.reach_filtration_holds(i) for i in range(3)] == [True, False, True]
    assert survey(4, 2)["reach_ok"] is False


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
    # two other orientations of the generators, as S D S'
    base = StirlingComplex(4, 2).betti().as_dict()
    assert reoriented_homology(StirlingComplex(4, 2), 3).betti.as_dict() == base
    assert reoriented_homology(StirlingComplex(4, 2), 11).betti.as_dict() == base


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
    # a chain vector as a one-column matrix: d takes it to a nonzero
    # boundary, and d again to zero
    cx = StirlingComplex(5, 2)
    vec = from_triplets(cx.dim(2), 1, [(0, 0, 1), (7, 0, -2)])
    once = cx.differential(2) @ vec
    assert not once.is_zero()
    assert (cx.differential(1) @ once).is_zero()


@settings(max_examples=20, deadline=None)
@given(st_.integers(0, 10 ** 6))
def test_contraction_terms_drop_an_edge(pick):
    cx = StirlingComplex(5, 2)
    gens = [(i, g) for i in (2, 3) for g in cx.generators(i)]
    i, gen = gens[pick % len(gens)]
    edge_order, alt_order = reference_orders(cx, gen)
    for key, sign in cx.contraction_terms(gen):
        assert key in cx.rows(i - 1) and sign in (-1, 1)
        target_edges, target_alt = reference_orders(cx, key)
        assert len(target_edges) == len(edge_order) - 1
        assert len(target_alt) == len(alt_order)
        assert set(target_alt) <= set(cx.tree(key[0]).inputs[key[1]])


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
        triplets = list(d.triplets())
        triplets.remove(min(triplets))
        return from_triplets(d.nrows, d.ncols, triplets)

    monkeypatch.setattr(StirlingComplex, "differential", corrupted)


def record_steps(monkeypatch):
    """The events of every reduction step, by degree: ``("d2", ok)`` for
    its d^2 check and ``("pairs", count)`` for its pairing, in order."""
    steps = {}
    step, pair = linalg.Coreduction.step, linalg.Coreduction._pair
    check = linalg.composes_to_zero

    def logged_step(self, i, dim, d=None):
        steps[i] = []
        return step(self, i, dim, d)

    def logged_pair(self, d, faces, live):
        count = pair(self, d, faces, live)
        steps[max(steps)].append(("pairs", count))
        return count

    def logged_check(lower, upper):
        ok = check(lower, upper)
        steps[max(steps)].append(("d2", ok))
        return ok

    monkeypatch.setattr(linalg.Coreduction, "step", logged_step)
    monkeypatch.setattr(linalg.Coreduction, "_pair", logged_pair)
    monkeypatch.setattr(linalg, "composes_to_zero", logged_check)
    return steps


def test_survey_takes_no_pair_before_its_d_squared_check(monkeypatch):
    # every step above the bottom one pairs only once d_{i-1} d_i = 0 holds
    steps = record_steps(monkeypatch)
    assert survey(5, 2, reach_check=False)["certificate"] == "morse-integral"
    assert {i: [kind for kind, _value in events] for i, events in steps.items()} == {
        0: [], 1: ["pairs"], 2: ["d2", "pairs"], 3: ["d2", "pairs"]}
    assert all(ok for events in steps.values() for kind, ok in events if kind == "d2")


def test_survey_skips_the_reduction_when_d_squared_fails(monkeypatch):
    # the check of step 2 fails and nothing pairs from there on; step 1 has
    # no d_0 to check, and its pairs count in no rank, as every
    # differential is then ranked whole
    corrupt(monkeypatch, 1)
    steps = record_steps(monkeypatch)
    cx = StirlingComplex(4, 2)
    result = survey(4, 2, reach_check=False)
    assert steps == {0: [], 1: [("pairs", steps[1][0][1])], 2: [("d2", False)]}
    assert not result["d2_ok"]
    assert result["certificate"] == "unverified"
    assert result["ranks"] == {i: rank_exact(cx.differential(i)) for i in (1, 2)}


def test_survey_reports_a_broken_d2_instead_of_raising(monkeypatch, capsys):
    # with d_2 corrupted the rank formula gives a negative Betti number,
    # which must be reported, not raised, since d^2 = 0 failed
    corrupt(monkeypatch, 2)
    steps = record_steps(monkeypatch)
    result = survey(4, 2)
    assert [kind for kind, _value in steps[2]] == ["d2"]
    assert not result["d2_ok"]
    assert result["certificate"] == "unverified"
    assert min(result["betti"].values.values()) < 0
    assert main(["betti", "--n", "4", "--k", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exactness against the flag-tree oracle


def oracle_permutations(n):
    """All of S_{n+1} for n <= 3; above that the transpositions (0 t) and
    (1 t), and for n = 4, 5 seeded random permutations too."""
    if n <= 3:
        return list(itertools.permutations(range(n + 1)))
    perms = [transposition(n, a, t) for a in (0, 1) for t in range(a + 1, n + 1)]
    if n <= 5:
        rng = random.Random(n)
        for _ in range(4):
            perm = list(range(n + 1))
            rng.shuffle(perm)
            perms.append(tuple(perm))
    return perms


@pytest.mark.parametrize("n,k,seed", [(n, k, seed) for n in range(2, 7)
                                      for k in range(2, n + 1)
                                      for seed in (0, 12345)])
def test_matches_flag_tree_oracle(n, k, seed):
    # D = P D_flag P^-1 for every differential and action matrix, with P
    # the signed bijection from the flag generators to the key-native ones;
    # a seeded oracle orients its generators otherwise, which P absorbs
    cx = StirlingComplex(n, k)
    oracle = stirling_oracle.StirlingComplex(n, k, orient_seed=seed)
    perms = oracle_permutations(n)
    p = {i: stirling_oracle.signed_bijection(cx, oracle, i)
         for i in range(cx.max_edges + 1)}
    p[-1] = []
    for i in range(cx.max_edges + 1):
        assert cx.differential(i) == transport(
            oracle.differential(i), p[i - 1], p[i])
        assert cx.reach_filtration_holds(i) == oracle.reach_filtration_holds(i)
        for perm in perms:
            assert cx.action_matrix(i, perm) == transport(
                oracle.action_matrix(i, perm), p[i], p[i])
