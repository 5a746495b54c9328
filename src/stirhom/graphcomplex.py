"""The genus-one commutative graph complex with labeled legs.

Generators in degree i are isomorphism classes of stable connected
genus-one graphs with legs 1..m and i edges, each contributing the line
det(edges), except for the classes the orientation kill removes (below).
The differential is the signed sum of edge contractions; it and the
action of leg relabelings are given as terms that ``ChainComplex`` assembles.

Two kinds.  A stable genus-one graph is either a genus-one vertex with
trees hanging from it, or a cycle of c >= 1 edges (c = 1 is a loop, c = 2
a pair of parallel edges), each vertex on it of genus zero and holding a
non-empty block of legs, directly or in the trees hanging from it.  With
leaf sets as int bitmasks, bit j for leg j as in ``stirling``, a class is
its key ``(cycle, clusters)``.  ``cycle`` is ``()`` for the genus-one vertex,
``(full,)`` for a loop, and otherwise the blocks in cyclic order, rotated so
that the block of leg 1 comes first and read in the direction whose second
block has the smaller lowest leg.  ``clusters`` is the set of the leaf
sets below the hanging edges: a laminar family of leaf sets of two or
more legs, each inside one block, a block itself allowed, where the
genus-one vertex has the one block {1..m}; every such family is a class,
and the families are enumerated over the blocks of each cycle.  The key
is canonical by construction, so every differential and action term
finds its row by key.

Edges are named by their cluster (a hanging edge), by the union of the two
blocks they join (an edge of a cycle with c >= 3), or ``LOOP``.  The two
parallel edges of a 2-cycle, which only the negative control keeps, are
``full`` and ``full | 1`` (bit 0 is no leg's); a contraction that closes a
2-cycle names them in the order of the source's cycle edges.  Contracting a
hanging edge drops its cluster, a cycle edge merges its two blocks, and the
loop leaves the genus-one vertex with the same clusters.  A permutation of
the legs acts on every mask bit by bit.

The orientation kill.  The legs are labeled, so the hanging trees and the
blocks are rigid: a leg-fixing automorphism can only flip a loop, which
fixes its edge, or swap the two parallel edges of a 2-cycle, an odd
permutation of the edges.  A class is therefore killed exactly when c = 2.

Names and signs.  A generator is its key: ``clusters`` is stored as an int
with bit C set for each cluster C, so keys are totally ordered, the
generators of a degree are sorted by key, and ``code`` spells the key out.
The reference edge order is the edge names sorted ascending, so each term
reads its sign off positions.  Contracting the edge at place p of e gives
(-1)^(e-1-p); dropping a hanging edge or the loop leaves the other names
sorted, and a cycle contraction, which renames, or a relabeling takes the
parity of sorting the renamed names.  The tests check every matrix
against the flag-graph construction up to the signed generator bijection,
and check that the homology does not change when the basis is reoriented.
"""

from __future__ import annotations

import itertools
import math

from .linalg import ChainComplex
from .stirling import StirlingComplex, _bit_images, _mask_set, _members, _spell
from .trees import _partitions_into_blocks, laminar_families, sort_sign
from .characters import (equivariant_euler_character, homology_character,
                         representative_permutation, stirling_unsigned)

LOOP = 0  # the name of the loop's edge; no leaf set is empty


class GraphError(ValueError):
    """Parameters outside the domain of the genus-one graph complex."""


def _cycle_names(cycle):
    """The names of the cycle edges; edge pos joins blocks pos and pos+1."""
    c = len(cycle)
    if c == 1:
        return (LOOP,)
    names = [cycle[pos] | cycle[(pos + 1) % c] for pos in range(c)]
    if c == 2:
        names[1] |= 1  # the second parallel edge
    return tuple(names)


def _names(key):
    """The names of a class's edges, sorted: its reference order."""
    cycle, clusters = key
    return sorted(_cycle_names(cycle) + tuple(_members(clusters)))


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


def _hung_clusters(blocks):
    """The clusters a tree hung from a vertex of one of ``blocks`` may have:
    every leaf set of two or more legs inside one block, the block itself
    included."""
    found = []
    for b in blocks:
        sub = b
        while sub:
            if sub.bit_count() > 1:
                found.append(sub)
            sub = sub - 1 & b
    return found


def _keys(m, i):
    """The key of every class with m legs and i edges, each once."""
    labels = tuple(range(1, m + 1))
    for clusters in laminar_families(_hung_clusters([(1 << m + 1) - 2]), i):
        yield (), clusters
    for c in range(1, min(i, m) + 1):
        for blocks in _partitions_into_blocks(labels, c, 1):
            masks = {b: sum(1 << j for j in b) for b in blocks}
            # clusters in different blocks are disjoint, so the families of
            # i - c clusters serve every cycle order of the blocks
            families = list(laminar_families(_hung_clusters(masks.values()), i - c))
            # the block of leg 1 comes first and blocks come ordered by
            # their lowest leg, so each cycle is read in one direction
            first, rest = blocks[0], blocks[1:]
            for arrangement in itertools.permutations(rest):
                if arrangement and min(arrangement[0]) > min(arrangement[-1]):
                    continue
                cycle = tuple(masks[b] for b in (first,) + arrangement)
                for clusters in families:
                    yield cycle, clusters


def enumerate_graph_generators(m, i, orientation_kill=True):
    """The keys of the degree-i generators, one per class, sorted; none for
    i < 0.

    With the orientation kill the classes with a 2-cycle are left out;
    without it (the negative control) they stay and the numbers are
    deliberately wrong.
    """
    return sorted(key for key in _keys(m, i)
                  if not (orientation_kill and len(key[0]) == 2))


class GraphComplex(ChainComplex):
    """Feynman-transform-style complex of genus-one graphs, graded by edges.

    Without the orientation kill (the negative control) the generators do
    not form a complex: d^2 = 0 fails, so ``betti`` reports the per-degree
    rank formula, negative values included, with certificate
    ``"unverified"``.
    """

    def __init__(self, m, orientation_kill=True):
        if m < 3:
            raise GraphError("the genus-one graph complex requires m >= 3")
        super().__init__()
        self.m = m
        self.orientation_kill = orientation_kill

    @property
    def max_edges(self):
        return self.m

    def walk(self, i):
        """The keys of degree i, sorted: the cycle leads each key, so they
        are sorted whole, not family by family."""
        return enumerate_graph_generators(self.m, i, self.orientation_kill)

    def code(self, key):
        """The key spelled out: cycle blocks and clusters, as decimal masks."""
        cycle, clusters = key
        return f"G{self.m}:{_spell(cycle)}|{_spell(_members(clusters))}"

    def contraction_terms(self, key):
        """The differential's terms of one generator, one per edge; a cycle
        edge renames its neighbours.  With the orientation kill, targets
        with a 2-cycle are killed and not yielded."""
        cycle, clusters = key
        names = _names(key)
        cycle_names = _cycle_names(cycle)
        last = len(names) - 1
        for pos, name in enumerate(names):
            sign = -1 if (last - pos) % 2 else 1
            rename = {}
            if clusters >> name & 1:
                target = (cycle, clusters ^ 1 << name)
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
            if self.orientation_kill and len(target[0]) == 2:
                continue
            if rename:
                sign *= sort_sign([rename.get(n, n) for n in names if n != name])
            yield target, sign

    def action_terms(self, perm):
        """The terms of a permutation of the leg labels 1..m, as a function
        from a generator to the list of its one term, signed by the parity
        of sorting the relabeled edge names; with ``fixed`` only when the
        generator is fixed, tested on the cycle (each relabeled once, kept
        in a dict local to the function), then on each moved cluster.

        ``perm`` is a dict or a sequence with ``perm[j - 1]`` the image of
        j; it is checked, and its image table built, once.  Relabeling
        preserves the cycle length, so it maps surviving classes to
        surviving classes.
        """
        if isinstance(perm, dict):
            perm = {int(a): int(b) for a, b in perm.items()}
        else:
            perm = {j + 1: p for j, p in enumerate(perm)}
        legs = list(range(1, self.m + 1))
        if sorted(perm) != legs or sorted(perm.values()) != legs:
            raise GraphError(f"expected a bijection of 1..{self.m}")
        # bit 0, which no leg owns, stays put
        image = _bit_images([0] + [perm[j] for j in legs])
        moved = _mask_set(m for m, to in enumerate(image) if to != m)
        blocks = {}

        def terms(key, fixed=False):
            cycle, clusters = key
            if cycle not in blocks:
                blocks[cycle] = _normal_cycle(tuple(map(image.__getitem__, cycle)))
            if not fixed:
                target = blocks[cycle], _mask_set(image[c] for c in _members(clusters))
            elif blocks[cycle] != cycle:
                return ()
            else:
                # the image of each moved cluster must be a cluster again;
                # then the set of clusters is kept
                rest = clusters & moved
                while rest:
                    low = rest & -rest
                    if not clusters >> image[low.bit_length() - 1] & 1:
                        return ()
                    rest ^= low
                target = key
            return [(target, sort_sign([image[name] for name in _names(key)]))]

        return terms

    def generator_dot(self):
        """DOT drawings of every generator, each vertex labeled by its genus."""
        return "\n".join(_graph_dot(self.m, key, f"gc_{self.m}_{i}_{pos}")
                         for i in range(self.max_edges + 1)
                         for pos, key in enumerate(self.generators(i)))


def _graph_dot(m, key, name):
    """GraphViz source of one class, drawn from its key: the genus-one
    vertex or each cycle vertex in block order comes first, then the vertex
    below each cluster in ascending order."""
    cycle, clusters = key
    members = _members(clusters)
    blocks = cycle or ((1 << m + 1) - 2,)
    below = {c: len(blocks) + pos for pos, c in enumerate(members)}

    def holder(leaves):
        # the smallest cluster strictly holding leaves, else its block
        above = [c for c in members if c & leaves == leaves and c != leaves]
        if above:
            return below[min(above, key=int.bit_count)]
        return next(pos for pos, b in enumerate(blocks) if b & leaves)

    lines = [f"graph {name} {{", "  node [shape=circle];"]
    lines += [f'  v{pos} [label="g={0 if cycle else 1}"];'
              for pos in range(len(blocks))]
    lines += [f'  v{v} [label="g=0"];' for v in below.values()]
    for lab in range(1, m + 1):
        lines.append(f'  leg{lab} [shape=plaintext, label="{lab}"];')
        lines.append(f"  v{holder(1 << lab)} -- leg{lab};")
    lines += [f"  v{pos} -- v{(pos + 1) % len(cycle)};" for pos in range(len(cycle))]
    lines += [f"  v{holder(c)} -- v{v};" for c, v in below.items()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_homology_character(cx):
    """Character of the graph homology under leg-label permutations
    (optional equivariant machinery; see ``homology_character``)."""
    return homology_character(
        cx, cx.m, lambda mu: [p + 1 for p in representative_permutation(mu)])


def verify_decomposition(cx, include_characters=False):
    """Rank comparison between the graph complex and its Stirling pieces.

    The graph homology must be concentrated in a single degree, its rank
    must equal (m-1)!/2, and the same rank must equal the sum of the top
    Betti numbers of the even-k Stirling complexes on m-1 labels; d^2 = 0
    must hold on every complex.  With ``include_characters`` the full
    symmetric-group characters of the two sides are compared as well
    (optional; ranks are the required check).  Each complex is built in one
    pass, which takes its traces before its homology is read.
    """
    n = cx.m - 1
    pieces = [StirlingComplex(n, k) for k in range(2, n + 1, 2)]
    if include_characters:
        try:
            graph_character = graph_homology_character(cx)
            characters = [equivariant_euler_character(piece) for piece in pieces]
        except RuntimeError:
            # a homology that is not concentrated in one degree
            return False
        if graph_character != sum(characters[1:], characters[0]):
            return False
    graph = cx.homology()
    support = graph.betti.support()
    if not graph.d2_ok or len(support) != 1:
        return False
    value = graph.betti[support[0]]
    if value != math.factorial(cx.m - 1) // 2:
        return False
    total = 0
    for piece in pieces:
        result = piece.homology()
        if (not result.d2_ok or result.betti.support() != [n]
                or result.betti[n] != stirling_unsigned(n, piece.k)):
            return False
        total += result.betti[n]
    return value == total
