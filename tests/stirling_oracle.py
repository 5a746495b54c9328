"""Reference Stirling complex on flag-graph trees, for the exactness tests.

This is the flag-tree implementation the package used before generators
became cluster bitmasks: every generator is a ``Tree`` with a distinguished
vertex and a set of alternating flags, every differential term builds,
validates and canonicalises the contracted tree, and the action relabels
the tree and canonicalises it again.  It shares no enumeration, contraction
or relabeling code with ``stirhom.stirling``.  Its generators are named,
sorted and oriented by ``flag_graphs.canonical_tree_data``, as the package
did before it named them by their keys; ``key_orders`` reads each one's key
and reference orders in key names, and the tests require the two
complexes to agree up to the signed generator bijection this gives against
the documented reference orders of ``helpers.reference_orders``.
"""

from __future__ import annotations

import itertools

from stirhom.linalg import ChainComplex
from stirhom.stirling import DomainError, _check_type, _mask_set

from helpers import from_triplets, reference_orders, relative_sign
from flag_graphs import (Graph, GraphError, Tree, canonical_tree_data,
                         enumerate_stable_trees)


def as_permutation(perm, n):
    """The images of the leg labels 0..n as a tuple, from a sequence of them
    or a dict; anything that is no bijection of 0..n raises."""
    labels = list(range(n + 1))
    if isinstance(perm, dict):
        perm = tuple(perm[j] for j in labels) if sorted(perm) == labels else ()
    else:
        perm = tuple(perm)
    if sorted(perm) != labels:
        raise DomainError(f"expected a bijection of 0..{n}")
    return perm


def contract_edge_with_maps(tree, edge):
    """Contract an edge of a tree, returning (result, flag_map, vertex_map).

    ``flag_map`` sends surviving old flags to new flag indices (the two
    flags of the contracted edge map to None); ``vertex_map`` sends old
    vertices to new ones.  The result is built and validated afresh.
    """
    graph = tree.graph
    f1, f2 = edge
    if not graph.is_edge((f1, f2)):
        raise GraphError(f"({f1}, {f2}) is not an edge of this graph")
    keep, drop = graph.flag_vertex[f1], graph.flag_vertex[f2]
    survivors = [f for f in range(graph.num_flags) if f not in edge]
    flag_map = [None] * graph.num_flags
    for new, old in enumerate(survivors):
        flag_map[old] = new
    vertex_map = [v - (1 if v > drop else 0) for v in range(graph.num_vertices)]
    vertex_map[drop] = vertex_map[keep]
    flag_vertex = [vertex_map[graph.flag_vertex[old]] for old in survivors]
    involution = [flag_map[graph.involution[old]] for old in survivors]
    legs = {lab: flag_map[f] for lab, f in graph.legs.items()}
    result = Tree(Graph(graph.num_vertices - 1, flag_vertex, involution, legs,
                        check=False))
    return result, tuple(flag_map), tuple(vertex_map)


def contract_edge(tree, edge):
    """Contract an edge of a tree."""
    return contract_edge_with_maps(tree, edge)[0]


def map_edge(flag_map, edge):
    a, b = flag_map[edge[0]], flag_map[edge[1]]
    return (a, b) if a < b else (b, a)


class StirlingGenerator:
    """One isomorphism class of decorated trees with its reference orders."""

    __slots__ = ("tree", "dv", "alt", "code", "edge_order", "alt_order")

    def __init__(self, tree, dv, alt, code, edge_order, alt_order):
        self.tree = tree
        self.dv = dv
        self.alt = frozenset(alt)
        self.code = code
        self.edge_order = edge_order
        self.alt_order = alt_order

    @property
    def k(self):
        return len(self.alt)

    def __repr__(self):
        return f"StirlingGenerator({self.code})"


def make_generator(tree, dv, alt, orient_seed=0):
    """Validate and canonically orient a decorated tree."""
    alt = frozenset(alt)
    if len(alt) < 2:
        raise DomainError("at least two alternating flags are required")
    inputs = set(tree.input_flags(dv))
    if not alt <= inputs:
        raise DomainError("alternating flags must be input flags of the "
                          "distinguished vertex")
    code, edge_order, alt_order = canonical_tree_data(tree, dv, alt, orient_seed)
    return StirlingGenerator(tree, dv, alt, code, edge_order, alt_order)


def key_orders(gen):
    """The key of an oracle generator and its edge and alternating orders
    as key names: edges by their clusters, flags by their far sides."""
    tree = gen.tree
    g = tree.graph

    def below(v):
        # the leaf set below vertex v
        return sum(far(f) for f in tree.input_flags(v))

    def far(f):
        mate = g.involution[f]
        if mate == f:
            return 1 << g.flag_label[f]
        return below(g.flag_vertex[mate])

    def cluster(edge):
        # the leaf set below the edge's lower end, whose output flag it holds
        f1, f2 = edge
        lower = g.flag_vertex[f2]
        if tree.output_flag(lower) != f2:
            lower = g.flag_vertex[f1]
        return below(lower)

    edge_order = tuple(cluster(e) for e in gen.edge_order)
    alt_order = tuple(far(f) for f in gen.alt_order)
    key = (_mask_set(edge_order), below(gen.dv), _mask_set(alt_order))
    return key, edge_order, alt_order


def position(cx, i, gen):
    """The row of an oracle generator in degree i of the key-native
    complex ``cx``, and the sign between the two orientations."""
    key, edge_order, alt_order = key_orders(gen)
    new_edges, new_alt = reference_orders(cx, key)
    return cx.rows(i)[key], (relative_sign(edge_order, new_edges)
                             * relative_sign(alt_order, new_alt))


def signed_bijection(cx, oracle, i):
    """P_i as the list of ``position`` of each oracle generator; it must hit
    every generator of ``cx`` once."""
    p = [position(cx, i, gen) for gen in oracle.generators(i)]
    assert sorted(row for row, _sign in p) == list(range(cx.dim(i)))
    return p


class StirlingComplex(ChainComplex):
    """The chain complex of type (n, k), graded by edge count i."""

    def __init__(self, n, k, orient_seed=0):
        _check_type(n, k)
        super().__init__()
        self._index = {}
        self.n = n
        self.k = k
        self.orient_seed = orient_seed

    @property
    def max_edges(self):
        return self.n - self.k

    def total_degree(self, i):
        return i + self.k

    def generators(self, i):
        if i not in self._gens:
            self._gens[i] = self._enumerate(i)
        return self._gens[i]

    def dim(self, i):
        return len(self.generators(i))

    def index(self, i):
        """Position of each degree-i generator, by code."""
        if i not in self._index:
            self._index[i] = {g.code: pos for pos, g in enumerate(self.generators(i))}
        return self._index[i]

    def _enumerate(self, i):
        if i < 0:
            return []
        gens = []
        for tree in enumerate_stable_trees(self.n, i):
            for v in range(tree.graph.num_vertices):
                inputs = sorted(tree.input_flags(v))
                if len(inputs) < self.k:
                    continue
                for alt in itertools.combinations(inputs, self.k):
                    code, eo, ao = canonical_tree_data(tree, v, frozenset(alt),
                                                       self.orient_seed)
                    gens.append(StirlingGenerator(tree, v, alt, code, eo, ao))
        gens.sort(key=lambda g: g.code)
        return gens

    # -- differential -------------------------------------------------------

    def contraction_terms(self, gen):
        """Raw differential terms of one generator, before accumulation.

        Yields ``(target_tree, target_dv, target_alt_order, surviving_edges,
        move_sign)`` where the orders are the source orders transported
        through the contraction (with the replacement flag substituted in
        place for alternating-edge contractions).
        """
        tree = gen.tree
        num_edges = len(gen.edge_order)
        for pos, edge in enumerate(gen.edge_order):
            move_sign = -1 if (num_edges - 1 - pos) % 2 else 1
            f1, f2 = edge
            alt_flag = f1 if f1 in gen.alt else (f2 if f2 in gen.alt else None)
            target, flag_map, vertex_map = contract_edge_with_maps(tree, edge)
            surviving = [map_edge(flag_map, e) for e in gen.edge_order if e != edge]
            new_dv = vertex_map[gen.dv]
            if alt_flag is None:
                alt_order = [flag_map[f] for f in gen.alt_order]
                yield target, new_dv, alt_order, surviving, move_sign
            else:
                # the edge hangs below the distinguished vertex; its child's
                # inputs replace the lost alternating flag one at a time
                child_out = f2 if alt_flag == f1 else f1
                child = tree.graph.flag_vertex[child_out]
                for b in tree.input_flags(child):
                    alt_order = [flag_map[b if f == alt_flag else f]
                                 for f in gen.alt_order]
                    yield target, new_dv, alt_order, surviving, move_sign

    def differential(self, i):
        """Matrix of d: degree i -> degree i-1 (columns are sources)."""
        if i in self._diffs:
            return self._diffs[i]
        sources = self.generators(i)
        nrows = self.dim(i - 1) if i >= 1 else 0
        target_index = self.index(i - 1) if i >= 1 else {}
        triplets = []
        for col, gen in enumerate(sources):
            for target, dv, alt_order, surviving, move_sign in self.contraction_terms(gen):
                code, ceo, cao = canonical_tree_data(target, dv,
                                                     frozenset(alt_order),
                                                     self.orient_seed)
                sign = (move_sign * relative_sign(surviving, ceo)
                        * relative_sign(alt_order, cao))
                triplets.append((target_index[code], col, sign))
        matrix = from_triplets(nrows, len(sources), triplets)
        self._diffs[i] = matrix
        return matrix

    # -- symmetric group action --------------------------------------------

    def action_matrix(self, i, perm):
        """Matrix of a permutation of the leg labels 0..n on degree i."""
        perm = as_permutation(perm, self.n)
        gens = self.generators(i)
        index = self.index(i)
        triplets = []
        for col, gen in enumerate(gens):
            relabeled = gen.tree.relabeled(perm)
            dv = gen.dv
            out = relabeled.output_flag(dv)
            if out not in gen.alt:
                code, ceo, cao = canonical_tree_data(relabeled, dv, gen.alt,
                                                     self.orient_seed)
                sign = (relative_sign(gen.edge_order, ceo)
                        * relative_sign(gen.alt_order, cao))
                triplets.append((index[code], col, sign))
            else:
                # the relabeled alternating set captured the new output flag;
                # trade it for each remaining flag at the vertex
                others = [f for f in relabeled.graph.vertex_flags(dv)
                          if f not in gen.alt]
                for b in others:
                    alt_order = [b if f == out else f for f in gen.alt_order]
                    code, ceo, cao = canonical_tree_data(relabeled, dv,
                                                         frozenset(alt_order),
                                                         self.orient_seed)
                    sign = -(relative_sign(gen.edge_order, ceo)
                             * relative_sign(alt_order, cao))
                    triplets.append((index[code], col, sign))
        return from_triplets(len(gens), len(gens), triplets)

    # -- reach filtration ----------------------------------------------------

    def in_acyclic_part(self, tree, dv):
        """Membership in the acyclic subcomplex: the distinguished vertex
        has valence above k+1, or it is not the root vertex."""
        return tree.graph.valence(dv) > self.k + 1 or dv != tree.root_vertex

    def reach(self, tree, dv):
        if not self.in_acyclic_part(tree, dv):
            raise DomainError("generator lies outside the acyclic subcomplex")
        e = tree.graph.num_edges
        p = len(tree.path_edges_to_root(dv))
        nu = 1 if tree.graph.valence(dv) == self.k + 1 else 0
        return 2 * e - p - nu

    def reach_filtration_holds(self, i):
        """On the degree-i generators of the acyclic subcomplex, the
        differential never leaves that subcomplex and never increases the
        reach, and the reach stays within its bounds."""
        upper = 2 * (self.n - self.k) - 2
        for gen in self.generators(i):
            if not self.in_acyclic_part(gen.tree, gen.dv):
                continue
            r = self.reach(gen.tree, gen.dv)
            if self.n > self.k and not 0 <= r <= upper:
                return False
            for target, dv, _ao, _se, _ms in self.contraction_terms(gen):
                if (not self.in_acyclic_part(target, dv)
                        or self.reach(target, dv) > r):
                    return False
        return True
