"""The genus-one commutative graph complex with labeled legs.

Generators in degree i are isomorphism classes of stable connected
genus-one graphs with m labeled legs and i edges, each contributing the
line det(edges) -- except that a class is killed (contributes zero) when
some leg-fixing automorphism induces an odd permutation of its edge set.
The differential is the signed sum of edge contractions: bridges merge
their endpoints (genus labels add) and loops vanish while raising their
vertex's genus by one.

Genus-one graphs come in exactly two families: trees with a single
genus-one vertex, and graphs with one cycle (a loop, a pair of parallel
edges, or a polygon) and all genus labels zero.  Both are enumerated
constructively from rooted-tree shapes hung on the special vertex or on
the cycle, then deduplicated by canonical code.
"""

from __future__ import annotations

import itertools
import math

from .linalg import ChainComplex, SparseIntMatrix
from .stirling import StirlingComplex
from .trees import (Graph, GraphError, ModularGraph, _compositions,
                    _partitions_into_blocks, _rooted_shapes,
                    canonical_modular_data, contract_edge_with_maps,
                    has_odd_automorphism, map_edge, relative_sign, to_dot)
from .characters import (equivariant_euler_character, homology_character,
                         representative_permutation, stirling_unsigned)


class GraphGenerator:
    """One surviving isomorphism class with its reference edge order."""

    __slots__ = ("mgraph", "code", "edge_order")

    def __init__(self, mgraph, code, edge_order):
        self.mgraph = mgraph
        self.code = code
        self.edge_order = edge_order

    def __repr__(self):
        return f"GraphGenerator({self.code})"


class _Assembler:
    """Incremental construction of a genus-labeled graph.

    Legs must be added for labels 1..m; they receive the lowest flag
    indices ordered by label, edge flags follow in insertion order.
    """

    def __init__(self, m):
        self.m = m
        self.genus = []
        self.leg_vertex = {}
        self.edge_list = []

    def add_vertex(self, genus):
        self.genus.append(genus)
        return len(self.genus) - 1

    def add_leg(self, v, label):
        self.leg_vertex[label] = v

    def add_edge(self, u, w):
        self.edge_list.append((u, w))

    def build(self):
        flag_vertex = [self.leg_vertex[lab] for lab in range(1, self.m + 1)]
        involution = list(range(self.m))
        for u, w in self.edge_list:
            a = len(flag_vertex)
            flag_vertex.extend((u, w))
            involution.extend((a + 1, a))
        legs = {lab: lab - 1 for lab in range(1, self.m + 1)}
        graph = Graph(len(self.genus), flag_vertex, involution, legs, check=False)
        return ModularGraph(graph, self.genus)


def _hang(asm, shape, vertex):
    legs, children = shape
    for lab in legs:
        asm.add_leg(vertex, lab)
    for child in children:
        cid = asm.add_vertex(0)
        asm.add_edge(vertex, cid)
        _hang(asm, child, cid)


def _shape_edge_count(shape):
    _legs, children = shape
    return sum(1 + _shape_edge_count(c) for c in children)


def _genus_vertex_family(m, i):
    """Trees with one genus-one vertex, built as shapes rooted there."""
    for shape in _rooted_shapes(frozenset(range(1, m + 1)), i, min_inputs=1):
        asm = _Assembler(m)
        root = asm.add_vertex(1)
        _hang(asm, shape, root)
        yield asm.build()


def _loop_family(m, i):
    """A single loop, with the rest of the graph hanging off its vertex."""
    if i < 1:
        return
    for shape in _rooted_shapes(frozenset(range(1, m + 1)), i - 1, min_inputs=1):
        asm = _Assembler(m)
        root = asm.add_vertex(0)
        asm.add_edge(root, root)
        _hang(asm, shape, root)
        yield asm.build()


def _cycle_family(m, i):
    """One cycle of length >= 2 with a non-empty hanging tree per vertex."""
    labels = tuple(range(1, m + 1))
    for c in range(2, min(i, m) + 1):
        hang_edges = i - c
        for blocks in _partitions_into_blocks(labels, c, 1):
            # fix the block containing the smallest label at position 0 to
            # quotient rotations; reflections are removed by code dedup
            first, rest = blocks[0], blocks[1:]
            for arrangement in itertools.permutations(rest):
                ordered = (first,) + arrangement
                caps = [len(b) - 1 for b in ordered]
                for alloc in _compositions(hang_edges, caps):
                    pools = [_rooted_shapes(frozenset(b), e, min_inputs=1)
                             for b, e in zip(ordered, alloc)]
                    if any(not pool for pool in pools):
                        continue
                    for combo in itertools.product(*pools):
                        asm = _Assembler(m)
                        ids = [asm.add_vertex(0) for _ in range(c)]
                        for pos in range(c):
                            asm.add_edge(ids[pos], ids[(pos + 1) % c])
                        for vertex, shape in zip(ids, combo):
                            _hang(asm, shape, vertex)
                        yield asm.build()


def enumerate_graph_generators(m, i, orientation_kill=True, orient_seed=0):
    """Classes of genus-one graphs with m legs and i edges, in one pass.

    Returns the surviving generators, sorted by canonical code, and the set
    of codes of the classes killed by an odd automorphism.  With
    ``orientation_kill`` disabled nothing is killed (negative-control mode;
    the resulting numbers are deliberately wrong).
    """
    classes = {}
    for mg in itertools.chain(_genus_vertex_family(m, i),
                              _loop_family(m, i),
                              _cycle_family(m, i)):
        code, edge_order = canonical_modular_data(mg, orient_seed)
        if code not in classes:
            classes[code] = GraphGenerator(mg, code, edge_order)
    survivors, killed = [], set()
    for code, gen in sorted(classes.items()):
        if orientation_kill and has_odd_automorphism(gen.mgraph):
            killed.add(code)
        else:
            survivors.append(gen)
    return survivors, killed


class GraphComplex(ChainComplex):
    """Feynman-transform-style complex of genus-one graphs, graded by edges.

    Without the orientation kill (the negative control) the generators do
    not form a complex: d^2 = 0 fails, so ``betti`` reports the per-degree
    rank formula, negative values included, with certificate
    ``"unverified"``.
    """

    def __init__(self, m, orientation_kill=True, orient_seed=0):
        if m < 3:
            raise GraphError("the genus-one graph complex requires m >= 3")
        super().__init__()
        self.m = m
        self.orientation_kill = orientation_kill
        self.orient_seed = orient_seed
        self._killed = {}

    @property
    def max_edges(self):
        return self.m

    def generators(self, i):
        if i not in self._gens:
            self._gens[i], self._killed[i] = enumerate_graph_generators(
                self.m, i, self.orientation_kill, self.orient_seed)
        return self._gens[i]

    def differential(self, i):
        if i in self._diffs:
            return self._diffs[i]
        sources = self.generators(i)
        target_index = self.index(i - 1) if i >= 1 else {}
        acc = {}
        for col, gen in enumerate(sources):
            num_edges = len(gen.edge_order)
            for pos, edge in enumerate(gen.edge_order):
                move_sign = -1 if (num_edges - 1 - pos) % 2 else 1
                target, flag_map, _vm = contract_edge_with_maps(gen.mgraph, edge)
                surviving = [map_edge(flag_map, e)
                             for e in gen.edge_order if e != edge]
                code, ceo = canonical_modular_data(target, self.orient_seed)
                row = target_index.get(code)
                if row is None:
                    if code not in self._killed[i - 1]:
                        raise RuntimeError(
                            f"contraction left the enumerated classes: {code}")
                    continue
                sign = move_sign * relative_sign(surviving, ceo)
                key = (row, col)
                total = acc.get(key, 0) + sign
                if total:
                    acc[key] = total
                else:
                    del acc[key]
        matrix = SparseIntMatrix(self.dim(i - 1) if i >= 1 else 0,
                                 len(sources), acc)
        self._diffs[i] = matrix
        return matrix

    def action_matrix(self, i, perm):
        """Matrix of a permutation of the leg labels 1..m on degree i.

        Optional equivariant machinery: relabeling maps surviving classes
        to surviving classes (automorphism groups are conjugate), and the
        orientation transport is well-defined because survivors admit only
        even edge automorphisms.  Each column has a single +-1 entry.
        """
        if isinstance(perm, dict):
            perm = {int(a): int(b) for a, b in perm.items()}
        else:
            perm = {j + 1: p for j, p in enumerate(perm)}
        if sorted(perm) != list(range(1, self.m + 1)) \
                or sorted(perm.values()) != list(range(1, self.m + 1)):
            raise GraphError(f"expected a bijection of 1..{self.m}")
        gens = self.generators(i)
        index = self.index(i)
        acc = {}
        for col, gen in enumerate(gens):
            g = gen.mgraph.graph
            new_legs = {perm[lab]: f for lab, f in g.legs.items()}
            relabeled = ModularGraph(g.with_legs(new_legs), gen.mgraph.genus,
                                     check=False)
            code, ceo = canonical_modular_data(relabeled, self.orient_seed)
            row = index.get(code)
            if row is None:
                raise RuntimeError("relabeling left the surviving classes")
            acc[(row, col)] = relative_sign(gen.edge_order, ceo)
        return SparseIntMatrix(len(gens), len(gens), acc)

    def generator_dot(self):
        chunks = []
        for i in range(self.max_edges + 1):
            for pos, g in enumerate(self.generators(i)):
                chunks.append(to_dot(g.mgraph, name=f"gc_{self.m}_{i}_{pos}"))
        return "\n".join(chunks)


def graph_homology_character(cx, rank_seed=0):
    """Character of the graph homology under leg-label permutations
    (optional equivariant machinery; see ``homology_character``)."""
    return homology_character(
        cx, cx.m, lambda mu: [p + 1 for p in representative_permutation(mu)],
        rank_seed)


def verify_decomposition(cx, seed=0, include_characters=False):
    """Rank comparison between the graph complex and its Stirling pieces.

    The graph homology must be concentrated in a single degree, its rank
    must equal (m-1)!/2, and the same rank must equal the sum of the top
    Betti numbers of the even-k Stirling complexes on m-1 labels; d^2 = 0
    must hold on every complex.  With ``include_characters`` the full
    symmetric-group characters of the two sides are compared as well
    (optional; ranks are the required check).  Each piece is built once.
    """
    graph = cx.homology(seed)
    support = graph.betti.support()
    if not graph.d2_ok or len(support) != 1:
        return False
    value = graph.betti[support[0]]
    if value != math.factorial(cx.m - 1) // 2:
        return False
    n = cx.m - 1
    pieces = [StirlingComplex(n, k) for k in range(2, n + 1, 2)]
    total = 0
    for piece in pieces:
        result = piece.homology(seed)
        if (not result.d2_ok or result.betti.support() != [n]
                or result.betti[n] != stirling_unsigned(n, piece.k)):
            return False
        total += result.betti[n]
    if value != total:
        return False
    if include_characters:
        characters = [equivariant_euler_character(piece, seed) for piece in pieces]
        if graph_homology_character(cx, seed) != sum(characters[1:], characters[0]):
            return False
    return True
