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
from functools import lru_cache

from .linalg import (SparseIntMatrix, betti_from_dims_and_ranks, morse_reduce,
                     rank_exact)
from .stirling import stirling_complex
from .trees import (Graph, GraphError, ModularGraph, _partitions_into_blocks,
                    _rooted_shapes, canonical_modular_data,
                    contract_edge_with_maps, has_odd_automorphism, map_edge,
                    relative_sign, to_dot)
from .characters import (ClassFunction, equivariant_euler_character,
                         partitions, representative_permutation,
                         stirling_unsigned)


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
                for alloc in _compositions_capped(hang_edges, caps):
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


def _compositions_capped(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    for head in range(min(caps[0], total) + 1):
        for tail in _compositions_capped(total - head, caps[1:]):
            yield (head,) + tail


def _all_classes(m, i):
    """Every isomorphism class at (m, i), keyed by canonical code."""
    classes = {}
    for mg in itertools.chain(_genus_vertex_family(m, i),
                              _loop_family(m, i),
                              _cycle_family(m, i)):
        code, edge_order = canonical_modular_data(mg)
        if code not in classes:
            classes[code] = (mg, edge_order)
    return classes


def enumerate_graph_generators(m, i, orientation_kill=True, orient_seed=0):
    """Surviving classes of genus-one graphs with m legs and i edges.

    With ``orientation_kill`` disabled, classes killed by an odd
    automorphism are kept (negative-control mode; the resulting numbers
    are deliberately wrong).
    """
    if m < 3:
        raise GraphError("genus-one graph generators require m >= 3")
    if i < 0:
        return []
    gens = []
    for code, (mg, _eo) in sorted(_all_classes(m, i).items()):
        if orientation_kill and has_odd_automorphism(mg):
            continue
        code, edge_order = canonical_modular_data(mg, orient_seed)
        gens.append(GraphGenerator(mg, code, edge_order))
    return gens


class GraphComplex:
    """Feynman-transform-style complex of genus-one graphs, graded by edges."""

    def __init__(self, m, orientation_kill=True, orient_seed=0):
        if m < 3:
            raise GraphError("the genus-one graph complex requires m >= 3")
        self.m = m
        self.orientation_kill = orientation_kill
        self.orient_seed = orient_seed
        self._gens = {}
        self._index = {}
        self._killed = {}
        self._diffs = {}

    @property
    def max_edges(self):
        return self.m

    def generators(self, i):
        if i not in self._gens:
            self._gens[i] = enumerate_graph_generators(
                self.m, i, self.orientation_kill, self.orient_seed)
        return self._gens[i]

    def index(self, i):
        if i not in self._index:
            self._index[i] = {g.code: pos for pos, g in enumerate(self.generators(i))}
        return self._index[i]

    def killed_codes(self, i):
        if i not in self._killed:
            if self.orientation_kill:
                killed = {code for code, (mg, _eo) in _all_classes(self.m, i).items()
                          if has_odd_automorphism(mg)}
            else:
                killed = set()
            self._killed[i] = killed
        return self._killed[i]

    def dim(self, i):
        return len(self.generators(i))

    def dims(self):
        return {i: self.dim(i) for i in range(self.max_edges + 1)}

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
                    if code not in self.killed_codes(i - 1):
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

    def verify_d_squared(self):
        for i in range(2, self.max_edges + 1):
            if not (self.differential(i - 1) @ self.differential(i)).is_zero():
                return False
        return True

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

    def ranks(self, seed=0):
        return {i: rank_exact(self.differential(i), seed)
                for i in range(1, self.max_edges + 1)}

    def betti(self, seed=0, check=True):
        """Betti numbers in the edge grading.

        Without the orientation kill the generators do not form a complex;
        the resulting (possibly negative) numbers are reported anyway so
        the negative control can observe the difference.  The coreduction
        needs d^2 = 0, so it runs only when that was verified; every other
        case, the negative control included, takes per-degree elimination.
        """
        if check and self.orientation_kill:
            if not self.verify_d_squared():
                raise RuntimeError("differential does not square to zero")
            diffs = {i: self.differential(i)
                     for i in range(1, self.max_edges + 1)}
            ranks = morse_reduce(self.dims(), diffs, seed).ranks
        else:
            ranks = self.ranks(seed)
        return betti_from_dims_and_ranks(self.dims(), ranks, lambda i: i,
                                         strict=self.orientation_kill)

    def euler_characteristic(self):
        return sum((-1) ** i * self.dim(i) for i in range(self.max_edges + 1))

    def generator_dot(self):
        chunks = []
        for i in range(self.max_edges + 1):
            for pos, g in enumerate(self.generators(i)):
                chunks.append(to_dot(g.mgraph, name=f"gc_{self.m}_{i}_{pos}"))
        return "\n".join(chunks)


@lru_cache(maxsize=8)
def graph_complex(m, orientation_kill=True, orient_seed=0):
    return GraphComplex(m, orientation_kill, orient_seed)


def graph_differential(m, i, orient_seed=0):
    return graph_complex(m, orient_seed=orient_seed).differential(i)


def graph_betti(m, seed=0, orientation_kill=True, orient_seed=0):
    return graph_complex(m, orientation_kill, orient_seed).betti(
        seed, check=orientation_kill)


def graph_homology_character(m, orient_seed=0, rank_seed=0):
    """Character of the graph homology under leg-label permutations.

    Requires concentration in a single degree (verified); the value at a
    cycle type is the alternating trace sum over the chain degrees,
    normalized to the top.  Optional equivariant machinery.
    """
    cx = graph_complex(m, True, orient_seed)
    betti = cx.betti(rank_seed)
    support = betti.support()
    if len(support) != 1:
        raise RuntimeError(f"graph homology at m={m} is not concentrated")
    top = support[0]
    values = {}
    for mu in partitions(m):
        base = representative_permutation(mu)
        perm = {j + 1: base[j] + 1 for j in range(m)}
        total = 0
        for i in range(cx.max_edges + 1):
            matrix = cx.action_matrix(i, perm)
            total += (-1) ** i * sum(v for (r, c), v in matrix.entries.items()
                                     if r == c)
        values[mu] = (-1) ** top * total
    return ClassFunction(m, values)


def verify_decomposition(m, seed=0, include_characters=False):
    """Rank comparison between the graph complex and its Stirling pieces.

    The graph homology must be concentrated in a single degree, its rank
    must equal (m-1)!/2, and the same rank must equal the sum of the top
    Betti numbers of the even-k Stirling complexes on m-1 labels.  With
    ``include_characters`` the full symmetric-group characters of the two
    sides are compared as well (optional; ranks are the required check).
    """
    betti = graph_betti(m, seed)
    support = betti.support()
    if len(support) != 1:
        return False
    value = betti[support[0]]
    if value != math.factorial(m - 1) // 2:
        return False
    n = m - 1
    total = 0
    for k in range(2, n + 1, 2):
        piece = stirling_complex(n, k).betti(seed)
        if piece.support() != [n] or piece[n] != stirling_unsigned(n, k):
            return False
        total += piece[n]
    if value != total:
        return False
    if include_characters:
        graph_side = graph_homology_character(m, rank_seed=seed)
        stirling_side = None
        for k in range(2, n + 1, 2):
            piece = equivariant_euler_character(n, k, rank_seed=seed)
            stirling_side = piece if stirling_side is None \
                else stirling_side + piece
        if graph_side != stirling_side:
            return False
    return True
