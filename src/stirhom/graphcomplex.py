"""The genus-one commutative graph complex with labeled legs.

Generators in degree i are isomorphism classes of stable connected
genus-one graphs with legs 1..m and i edges, each contributing the line
det(edges), except for the classes the orientation kill removes (below).
The differential is the signed sum of edge contractions.

Two kinds.  A stable genus-one graph is either a genus-one vertex with
trees hanging from it, or one cycle of c >= 1 genus-zero vertices (c = 1
is a loop, c = 2 a pair of parallel edges), each vertex holding a non-empty
block of legs, directly or in the trees hanging from it.  With leaf sets as
int bitmasks, bit j for leg j as in ``stirling``, a class is its key
``(cycle, clusters)``.  ``cycle`` is ``()`` for the genus-one vertex,
``(full,)`` for a loop, and otherwise the blocks in cyclic order, rotated so
that the block of leg 1 comes first and read in the direction whose second
block has the smaller lowest leg.  ``clusters`` is the frozenset of the
leaf sets below the hanging edges.  The key is canonical by construction,
so every differential and action term finds its row by key.

Edges are named by their cluster (a hanging edge), by the union of the two
blocks they join (an edge of a cycle with c >= 3), or ``LOOP``.  The two
parallel edges of a 2-cycle, which only the negative control keeps, are
``full`` and ``full | 1`` (bit 0 is no leg's) in the order the
representative adds them; a contraction that closes a 2-cycle names them
in the order the source adds them.  Contracting a hanging
edge drops its cluster, a cycle edge merges its two blocks, and the loop
leaves the genus-one vertex with the same clusters.  A permutation of the
legs acts on every mask bit by bit.

The orientation kill.  The legs are labeled, so the hanging trees and the
blocks are rigid: a leg-fixing automorphism can only flip a loop, which
fixes its edge, or swap the two parallel edges of a 2-cycle, an odd
permutation of the edges.  A class is therefore killed exactly when c = 2.

Names and order.  Each generator keeps the code and reference edge order
of the flag-graph construction: ``trees.canonical_modular_data`` runs once
per class, on the representative rebuilt from its key (blocks in key
order, trees hung in ``_rooted_shapes`` order).  The codes name the
generators and fix their order, so every matrix entry and DOT drawing is
that of the flag-graph construction.
"""

from __future__ import annotations

import itertools
import math

from .linalg import ChainComplex, SparseIntMatrix
from .stirling import StirlingComplex, _accumulate, _shape_clusters
from .trees import (Graph, GraphError, ModularGraph, _compositions,
                    _partitions_into_blocks, _rooted_shapes,
                    canonical_modular_data, relative_sign, to_dot)
from .characters import (equivariant_euler_character, homology_character,
                         representative_permutation, stirling_unsigned)

LOOP = 0  # the name of the loop's edge; no leaf set is empty


class GraphGenerator:
    """One class: its key, code and reference order of edge names."""

    __slots__ = ("m", "key", "code", "edge_order")

    def __init__(self, m, key, orient_seed=0):
        mgraph, names = _representative(m, key)
        code, flag_order = canonical_modular_data(mgraph, orient_seed)
        self.m = m
        self.key = key
        self.code = code
        # edge k of the representative is the flag pair (m + 2k, m + 2k + 1)
        self.edge_order = tuple(names[(f - m) // 2] for f, _mate in flag_order)

    @property
    def mgraph(self):
        """The representative flag graph, rebuilt from the key."""
        return _representative(self.m, self.key)[0]

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
        self.names = []

    def add_vertex(self, genus):
        self.genus.append(genus)
        return len(self.genus) - 1

    def add_leg(self, v, label):
        self.leg_vertex[label] = v

    def add_edge(self, u, w, name):
        self.edge_list.append((u, w))
        self.names.append(name)

    def build(self):
        """The graph and the names of its edges in insertion order."""
        flag_vertex = [self.leg_vertex[lab] for lab in range(1, self.m + 1)]
        involution = list(range(self.m))
        for u, w in self.edge_list:
            a = len(flag_vertex)
            flag_vertex.extend((u, w))
            involution.extend((a + 1, a))
        legs = {lab: lab - 1 for lab in range(1, self.m + 1)}
        graph = Graph(len(self.genus), flag_vertex, involution, legs, check=False)
        return ModularGraph(graph, self.genus), tuple(self.names)


def _hang(asm, shape, vertex):
    legs, children = shape
    for lab in legs:
        asm.add_leg(vertex, lab)
    for child in children:
        cid = asm.add_vertex(0)
        asm.add_edge(vertex, cid, _shape_clusters(child)[0])
        _hang(asm, child, cid)


def _shape(leaves, clusters):
    """The ``_rooted_shapes`` shape hung from a vertex with leaf set
    ``leaves``: the largest of ``clusters`` within it sit below its edges."""
    inside = [c for c in clusters if c & leaves == c]
    kids = [c for c in inside if not any(c != d and c & d == c for d in inside)]
    below = [c for c in inside if c not in kids]
    rest = leaves
    for c in kids:
        rest ^= c
    legs = tuple(j for j in range(rest.bit_length()) if rest >> j & 1)
    return legs, tuple(sorted(_shape(c, below) for c in kids))


def _cycle_names(cycle):
    """The names of the cycle edges; edge pos joins blocks pos and pos+1."""
    c = len(cycle)
    if c == 1:
        return (LOOP,)
    names = [cycle[pos] | cycle[(pos + 1) % c] for pos in range(c)]
    if c == 2:
        names[1] |= 1  # the second parallel edge
    return tuple(names)


def _normal_cycle(blocks):
    """The cycle read from the block of leg 1, in the direction whose second
    block has the smaller lowest leg."""
    if not blocks:
        return blocks
    start = next(pos for pos, b in enumerate(blocks) if b & 2)
    blocks = blocks[start:] + blocks[:start]
    if len(blocks) > 2 and blocks[1] & -blocks[1] > blocks[-1] & -blocks[-1]:
        blocks = blocks[:1] + blocks[:0:-1]
    return blocks


def _representative(m, key):
    """The flag graph of a key and the names of its edges in flag order."""
    cycle, clusters = key
    asm = _Assembler(m)
    if not cycle:
        _hang(asm, _shape((1 << m + 1) - 2, clusters), asm.add_vertex(1))
        return asm.build()
    ids = [asm.add_vertex(0) for _ in cycle]
    for pos, name in enumerate(_cycle_names(cycle)):
        asm.add_edge(ids[pos], ids[(pos + 1) % len(ids)], name)
    for vertex, block in zip(ids, cycle):
        _hang(asm, _shape(block, clusters), vertex)
    return asm.build()


def _keys(m, i):
    """The key of every class with m legs and i edges, each once."""
    labels = tuple(range(1, m + 1))

    def clusters(shapes):
        return frozenset(c for s in shapes for c in _shape_clusters(s)[1])

    for shape in _rooted_shapes(frozenset(labels), i, min_inputs=1):
        yield (), clusters([shape])
    for c in range(1, min(i, m) + 1):
        for blocks in _partitions_into_blocks(labels, c, 1):
            # the block of leg 1 comes first and blocks come ordered by
            # their lowest leg, so each cycle is read in one direction
            first, rest = blocks[0], blocks[1:]
            for arrangement in itertools.permutations(rest):
                if arrangement and min(arrangement[0]) > min(arrangement[-1]):
                    continue
                ordered = (first,) + arrangement
                cycle = tuple(sum(1 << j for j in b) for b in ordered)
                caps = [len(b) - 1 for b in ordered]
                for alloc in _compositions(i - c, caps):
                    pools = [_rooted_shapes(b, e, min_inputs=1)
                             for b, e in zip(ordered, alloc)]
                    for combo in itertools.product(*pools):
                        yield cycle, clusters(combo)


def enumerate_graph_generators(m, i, orientation_kill=True, orient_seed=0):
    """The degree-i generators, one per class, sorted by code.

    With the orientation kill the classes with a 2-cycle are left out;
    without it (the negative control) they stay and the numbers are
    deliberately wrong.
    """
    gens = [GraphGenerator(m, key, orient_seed) for key in _keys(m, i)
            if not (orientation_kill and len(key[0]) == 2)]
    gens.sort(key=lambda g: g.code)
    return gens


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

    @property
    def max_edges(self):
        return self.m

    def generators(self, i):
        if i not in self._gens:
            self._gens[i] = enumerate_graph_generators(
                self.m, i, self.orientation_kill, self.orient_seed)
        return self._gens[i]

    def contraction_terms(self, gen):
        """Raw differential terms of one generator, before accumulation.

        Yields ``(target_key, surviving_names, move_sign)``: the source
        order without the contracted edge, its edges renamed as in the
        target.  Targets with a 2-cycle are yielded too.
        """
        cycle, clusters = gen.key
        names = gen.edge_order
        cycle_names = _cycle_names(cycle)
        for pos, name in enumerate(names):
            move_sign = -1 if (len(names) - 1 - pos) % 2 else 1
            rename = {}
            if name in clusters:
                target = (cycle, clusters - {name})
            elif len(cycle) == 1:
                target = ((), clusters)
            elif len(cycle) == 2:
                # the other parallel edge becomes the loop
                target = ((cycle[0] | cycle[1],), clusters)
                rename = {name ^ 1: LOOP}
            else:
                j = cycle_names.index(name)
                rotated = cycle[j:] + cycle[:j]
                target = (_normal_cycle((name,) + rotated[2:]), clusters)
                others = [n for n in cycle_names if n != name]
                if len(cycle) == 3:
                    # the two left become parallel, named in source order
                    rename = dict(zip(others, _cycle_names(target[0])))
                else:
                    rename = {n: n | name for n in others if n & name}
            surviving = tuple(rename.get(n, n) for n in names if n != name)
            yield target, surviving, move_sign

    def differential(self, i):
        if i in self._diffs:
            return self._diffs[i]
        sources = self.generators(i)
        targets = self.generators(i - 1)
        rows = self.rows(i - 1)
        acc = {}
        for col, gen in enumerate(sources):
            for key, surviving, move_sign in self.contraction_terms(gen):
                if self.orientation_kill and len(key[0]) == 2:
                    continue  # the target class is killed
                row = rows[key]
                sign = move_sign * relative_sign(surviving, targets[row].edge_order)
                _accumulate(acc, (row, col), sign)
        matrix = SparseIntMatrix(len(targets), len(sources), acc)
        self._diffs[i] = matrix
        return matrix

    def action_matrix(self, i, perm):
        """Matrix of a permutation of the leg labels 1..m on degree i.

        ``perm`` is a dict or a sequence with ``perm[j - 1]`` the image of
        j.  Relabeling preserves the cycle length, so it maps surviving
        classes to surviving classes; each column has a single +-1 entry.
        """
        if isinstance(perm, dict):
            perm = {int(a): int(b) for a, b in perm.items()}
        else:
            perm = {j + 1: p for j, p in enumerate(perm)}
        if sorted(perm) != list(range(1, self.m + 1)) \
                or sorted(perm.values()) != list(range(1, self.m + 1)):
            raise GraphError(f"expected a bijection of 1..{self.m}")
        # bit 0, which no leg owns, stays put
        image = [0] * (1 << self.m + 1)
        for mask in range(1, len(image)):
            low = mask & -mask
            bit = low.bit_length() - 1
            image[mask] = image[mask ^ low] | 1 << perm.get(bit, 0)
        gens = self.generators(i)
        rows = self.rows(i)
        acc = {}
        for col, gen in enumerate(gens):
            cycle, clusters = gen.key
            key = (_normal_cycle(tuple(image[b] for b in cycle)),
                   frozenset(image[c] for c in clusters))
            row = rows[key]
            names = tuple(image[n] for n in gen.edge_order)
            acc[(row, col)] = relative_sign(names, gens[row].edge_order)
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
