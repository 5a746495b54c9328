"""The genus-one commutative graph complex with labeled legs.

Generators in degree i are isomorphism classes of stable connected
genus-one graphs with legs 1..m and i edges, each contributing the line
det(edges), except for the classes the orientation kill removes (below).
The differential is the signed sum of edge contractions and the action
of leg relabelings the signed image of a key, both given as columns ``(key,
(plus, minus))`` read cycle by cycle, each run of keys of one cycle off
the cycle's view; ``ChainComplex`` assembles both.

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
the legs acts on every mask bit by bit, and fixes a key exactly when it
maps its cycle and its family of clusters onto themselves.  A pass lists
the block partitions once, on masks, with their cycles in normal form and
the clusters hung in them (``_CycleTable``): the walk of a degree reads
the cycles ascending, each with its families, so the keys come out
sorted, and a trace enumerates the keys it fixes from the partitions it
maps onto themselves, off the laminar search the table sets up once per
relabeling and block partition it maps onto itself, for every degree.

The orientation kill.  The legs are labeled, so the hanging trees and the
blocks are rigid: a leg-fixing automorphism can only flip a loop, which
fixes its edge, or swap the two parallel edges of a 2-cycle, an odd
permutation of the edges.  A class is therefore killed exactly when c = 2.

Names and signs.  A generator is its key: ``clusters`` is stored as an int
with bit C set for each cluster C, so keys are totally ordered, the
generators of a degree are sorted by key, and ``code`` spells the key out.
The reference edge order is the edge names sorted ascending, so each term
reads its sign off positions.  A pass derives one view per cycle: its edge
names as a mask-set, and for each cycle edge the normal target cycle of
its contraction (none where the kill removes it), the sign of sorting the
renamed names of the other cycle edges among themselves, and a flip mask,
the XOR over the renamed names n -> n' of the mask-set bits strictly
between n and n', which keeps that sign in bit 1, a bit no cluster has.
A key's edges are then the bits of ``names | clusters`` in ascending
order, and contracting the edge at place p of e gives (-1)^(e-1-p):
dropping a hanging edge or the loop leaves the other names sorted, and a
cycle contraction, which renames, also takes the view's sign and one more
-1 per cluster a renamed name passes, the parity of ``(clusters | 2) &
flip``.  A relabeling takes the parity of sorting the relabeled names.
The tests check every term against the rule that sorts the renamed names
of each key, every matrix against the flag-graph construction up to the
signed generator bijection, and that the homology does not change when the
basis is reoriented.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .linalg import ChainComplex
from .stirling import StirlingComplex
from .trees import LaminarSearch, _mask_set, _members, _spell, sort_sign
from .characters import equivariant_euler_character, stirling_unsigned

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


class _Cycle:
    """The view of one cycle, derived once per pass.

    ``names`` is the mask-set of its edge names.  ``targets`` and ``flips``
    have an entry per cycle edge, in ascending order of the names.  The
    target is the normal cycle the edge's contraction leaves, None where
    the kill removes it and for the two edges of a 2-cycle, whose terms
    cancel.  The flip mask is the XOR over the renamed names
    n -> n' of the mask-set bits strictly between n and n', with bit 1 set
    when sorting the renamed names of the other cycle edges among
    themselves is odd; bit 1 is no cluster's, since a cluster holds two
    legs.  A cluster lies strictly between a renamed name and its new name
    exactly when the rename moves the name past it, so a key's contraction
    of the edge takes the parity of ``(clusters | 2) & flip``.  Each target
    is the tuple that ``listed`` (the pass's table of cycles) holds for it,
    so the views of a pass share their targets.
    """

    __slots__ = ("names", "targets", "flips")

    def __init__(self, cycle, orientation_kill, listed):
        names = _cycle_names(cycle)
        self.names = _mask_set(names)
        c = len(cycle)
        if c <= 1:
            # the genus-one vertex has no cycle edge; the loop leaves it
            self.targets, self.flips = ((),) * c, (0,) * c
            return
        if c == 2 or orientation_kill and c == 3:
            # a 3-cycle leaves a 2-cycle, which the kill removes.  Either
            # edge of a 2-cycle leaves the other as the loop, the same
            # target, and the two terms cancel: the names ``full`` and
            # ``full | 1`` are adjacent bits, so their places differ by one,
            # and renamed to LOOP either passes the same clusters, as no
            # cluster is ``full``
            self.targets, self.flips = (None,) * c, (0,) * c
            return
        ordered = sorted(names)
        terms = {}
        for j, name in enumerate(names):
            rotated = cycle[j:] + cycle[:j]
            target = _normal_cycle((name,) + rotated[2:])
            before, after = names[j - 1], names[(j + 1) % c]
            if c == 3:
                # the two left become parallel, named in source order
                rename = dict(zip(sorted((before, after), key=names.index),
                                  _cycle_names(target)))
            else:
                # the neighbours of the edge take in its blocks
                rename = {before: before | name, after: after | name}
            flip = 0
            for n, new in rename.items():
                low, high = min(n, new), max(n, new)
                flip ^= (1 << high) - (1 << low + 1)
            flip &= ~3  # bits 0 and 1 are no cluster's
            if sort_sign([rename.get(n, n) for n in ordered if n != name]) < 0:
                flip |= 2
            terms[name] = listed[target], flip
        self.targets, self.flips = zip(*(terms[name] for name in ordered))

    def column(self, key):
        """The differential's column of a key on this cycle: the targets
        of its positive and of its negative terms, one per edge, in the
        order of its edges, the bits of ``names | clusters`` ascending,
        signed by place, and a cycle edge also by the flip mask.  Targets
        the kill removes, and the cancelling pair of a 2-cycle, are left
        out."""
        cycle, clusters = key
        targets, flips = self.targets, self.flips
        place = 0
        marked = clusters | 2  # bit 1 of a flip mask is the view's sign
        plus, minus = [], []
        rest = self.names | clusters
        negative = not rest.bit_count() % 2
        while rest:
            low = rest & -rest
            rest ^= low
            if clusters & low:
                (minus if negative else plus).append((cycle, clusters ^ low))
            else:
                target = targets[place]
                if target is not None:
                    odd = (marked & flips[place]).bit_count() & 1
                    (minus if negative ^ odd else plus).append((target, clusters))
                place += 1
            negative = not negative
        return plus, minus


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


def _block_cycles(m, c):
    """Each partition of legs 1..m into c blocks, as its block masks, with
    every cycle of those blocks: the distinct ``_normal_cycle`` images of
    the orderings of the blocks after the first.  Each block holds the
    lowest leg the blocks before it leave, and a submask of the rest."""
    stack = [((), (1 << m + 1) - 2)]
    while stack:
        blocks, left = stack.pop()
        if len(blocks) == c - 1:
            blocks += (left,)
            first, *rest = blocks
            yield blocks, list(dict.fromkeys(
                _normal_cycle((first,) + order) for order in itertools.permutations(rest)))
            continue
        low = left & -left
        rest = sub = left ^ low
        while True:
            if (rest ^ sub).bit_count() >= c - 1 - len(blocks):
                stack.append((blocks + (low | sub,), rest ^ sub))
            if not sub:
                break
            sub = sub - 1 & rest


class _CycleTable:
    """The cycles of the classes with m legs, listed once per pass.

    ``partitions`` maps the blocks of each partition of the legs, listed on
    masks by ``_block_cycles``, to the clusters hung in them and the cycles
    on them; the genus-one vertex, the empty cycle, shares the one block
    {1..m} with the loop.  ``ascending`` lists every cycle ascending, with
    its blocks and their clusters, and ``listed`` maps each cycle to the
    tuple listed for it.  With the orientation kill the 2-cycles are left
    out.  Tables compare by the leg count and kill that fix them, so calls
    of ``enumerate_graph_generators`` with equal arguments compare equal.
    """

    __slots__ = ("fixed_by", "partitions", "ascending", "listed", "searches")

    def __init__(self, m, orientation_kill):
        self.fixed_by = m, orientation_kill
        self.partitions = {}
        for c in range(1, m + 1):
            if not (orientation_kill and c == 2):
                for blocks, cycles in _block_cycles(m, c):
                    self.partitions[blocks] = _hung_clusters(blocks), cycles
        self.partitions[((1 << m + 1) - 2,)][1].insert(0, ())
        self.ascending = sorted(((cycle, blocks, pool)
                                 for blocks, (pool, cycles) in self.partitions.items()
                                 for cycle in cycles), key=lambda entry: entry[0])
        self.listed = {cycle: cycle for cycle, _blocks, _pool in self.ascending}
        self.searches = {}

    def search(self, blocks, bits, image):
        """The laminar search over the clusters hung in ``blocks`` of a
        relabeling ``bits`` that maps the blocks onto themselves, whose
        ``image`` table moves the clusters, set up once per table."""
        key = blocks, bits
        search = self.searches.get(key)
        if search is None:
            search = self.searches[key] = LaminarSearch(self.partitions[blocks][0], image)
        return search

    def __eq__(self, other):
        return isinstance(other, _CycleTable) and self.fixed_by == other.fixed_by

    def __hash__(self):
        return hash(self.fixed_by)


def enumerate_graph_generators(m, i, orientation_kill=True, cycles=None):
    """The keys of the degree-i generators, one per class, sorted; none for
    i < 0.

    With the orientation kill the classes with a 2-cycle are left out;
    without it (the negative control) they stay and the numbers are
    deliberately wrong.  ``cycles`` is the ``_CycleTable`` of the pass (a
    new one by default).  The keys are built in order, cycle by cycle: the
    cycles come ascending, each with its families of clusters, which the
    search of its block partition gives ascending; the families of one
    block partition serve every cycle on it with the same number of edges,
    since clusters in different blocks are disjoint.
    """
    if cycles is None:
        cycles = _CycleTable(m, orientation_kill)
    keys, families = [], {}
    for cycle, blocks, pool in cycles.ascending:
        size = i - len(cycle)
        if size >= 0:
            if (blocks, size) not in families:
                families[blocks, size] = list(LaminarSearch(pool).families(size))
            keys += [(cycle, clusters) for clusters in families[blocks, size]]
    return keys


class GraphComplex(ChainComplex):
    """Feynman-transform-style complex of genus-one graphs, graded by edges.

    Without the orientation kill (the negative control) the generators do
    not form a complex: d^2 = 0 fails, so ``betti`` reports the per-degree
    rank formula, negative values included, with certificate
    ``"unverified"``.
    """

    error = GraphError

    def __init__(self, m, orientation_kill=True):
        if m < 3:
            raise GraphError("the genus-one graph complex requires m >= 3")
        super().__init__()
        self.m = m
        self.orientation_kill = orientation_kill
        self.legs = range(1, m + 1)
        # what a pass lists once and every degree reads: its table of
        # cycles (one slot) and a view per cycle
        self._cycles, self._views = [], {}
        self._tables += [self._cycles, self._views]

    @property
    def max_edges(self):
        return self.m

    def _cycle_table(self):
        """The ``_CycleTable`` of the pass, listed on first use."""
        if not self._cycles:
            self._cycles.append(_CycleTable(self.m, self.orientation_kill))
        return self._cycles[0]

    def walk(self, i):
        """The keys of degree i, sorted, built cycle by cycle from the
        pass's table of cycles."""
        return enumerate_graph_generators(self.m, i, self.orientation_kill,
                                          self._cycle_table())

    def code(self, key):
        """The key spelled out: cycle blocks and clusters, as decimal masks."""
        cycle, clusters = key
        return f"G{self.m}:{_spell(cycle)}|{_spell(_members(clusters))}"

    def view(self, cycle):
        """The ``_Cycle`` view of a cycle, derived on first use in a pass."""
        view = self._views.get(cycle)
        if view is None:
            view = self._views[cycle] = _Cycle(cycle, self.orientation_kill,
                                               self._cycle_table().listed)
        return view

    def contraction_columns(self, i):
        """The column of every degree-i key, cycle by cycle: the keys of a
        cycle are adjacent, so each run of them reads the cycle's view
        once."""
        for cycle, keys in itertools.groupby(self._keys(i), itemgetter(0)):
            column = self.view(cycle).column
            for key in keys:
                yield key, column(key)

    def action_columns(self, keys, perm):
        """The column of each of ``keys`` under a permutation of the legs
        1..m, in their order: its one term, signed by the parity of sorting
        the relabeled edge names.  Each run of keys of one cycle relabels
        the cycle and reads its view once.  Relabeling preserves the cycle
        length, so it maps surviving classes to surviving classes.  ``perm``
        is a dict or a sequence with ``perm[j - 1]`` the image of j; bit 0,
        which no leg owns, stays put.
        """
        image = self._image(perm)
        for cycle, run in itertools.groupby(keys, itemgetter(0)):
            blocks = _normal_cycle(tuple(map(image.__getitem__, cycle)))
            names = self.view(cycle).names
            for key in run:
                clusters = key[1]
                target = blocks, _mask_set(image[c] for c in _members(clusters))
                positive = sort_sign([image[name] for name in _members(names | clusters)]) > 0
                yield key, (([target], []) if positive else ([], [target]))

    def fixable_keys(self, i, perm):
        """The keys of degree i a permutation of the legs fixes.  A key is
        fixed when its cycle and its family of clusters are: the cycles
        come from the block partitions the permutation maps onto
        themselves, the families from the relabeling's search of each, by
        the orbits of the clusters hung in its blocks, both off the pass's
        table of cycles, which the walk reads too."""
        bits, image = self.relabeling(perm), self._image(perm)
        table = self._cycle_table()
        for blocks, (_pool, cycles) in table.partitions.items():
            # a cycle has an edge per block, the empty one none
            if len(blocks) > max(i, 1) or any(image[b] not in blocks for b in blocks):
                continue
            kept = [cycle for cycle in cycles
                    if _normal_cycle(tuple(map(image.__getitem__, cycle))) == cycle]
            families = {}
            for cycle in kept:
                size = i - len(cycle)
                if size not in families:
                    families[size] = list(table.search(blocks, bits, image).families(size))
                for clusters in families[size]:
                    yield cycle, clusters

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


def verify_decomposition(cx):
    """Character comparison between the graph complex and its Stirling pieces.

    The graph homology must be concentrated in a single degree with rank
    (m-1)!/2, each even-k Stirling complex on m-1 labels must be
    concentrated in degree m-1 with rank |s(m-1, k)|, and the graph's
    character under its m leg labels must equal the sum of the pieces'
    characters, which holds the ranks equal too: a character's value at the
    identity is the rank.  d^2 = 0 must hold on every complex.  Each complex
    is built in one pass, which takes its traces before its homology is read.
    """
    n = cx.m - 1
    pieces = [StirlingComplex(n, k) for k in range(2, n + 1, 2)]
    try:
        graph_character = equivariant_euler_character(cx)
        characters = [equivariant_euler_character(piece) for piece in pieces]
    except RuntimeError:
        # a homology that is not concentrated in one degree
        return False
    graph = cx.homology()
    if graph.betti[graph.concentrated_in] != math.factorial(n) // 2:
        return False
    for piece in pieces:
        result = piece.homology()
        if (result.concentrated_in != n
                or result.betti[n] != stirling_unsigned(n, piece.k)):
            return False
    return graph_character == sum(characters[1:], characters[0])
