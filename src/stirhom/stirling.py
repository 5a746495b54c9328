"""Chain complexes of oriented Stirling trees, on cluster bitmasks.

A Stirling tree of type (n, k) is a stable n-tree with a distinguished
vertex and a set of k >= 2 alternating input flags at that vertex.  The
complex in internal degree i is spanned by one generator per isomorphism
class of such trees with i edges; each generator is the canonical element
of det(edges) tensor det(alternating flags).

Clusters.  A stable tree with legs 1..n rooted at leg 0 is exactly its
laminar family of clusters, the leaf sets below its edges (Buneman; Semple
and Steel, *Phylogenetics*, 2003).  A leaf set is an int bitmask, bit j for
leg j; an edge is named by its cluster, a vertex by the cluster of the edge
above it and the root by the full mask.  Every flag at a vertex has a far
side, the legs beyond it: ``1 << j`` for leg j, the child's cluster for an
edge below, and the complement within {0..n} for the flag above.  The
trees of degree i are the laminar families of i clusters C with
2 <= |C| <= n-1, and no tree is stored: ascending masks extend inclusion,
so the vertex above an edge is the first later cluster that holds it, or
the root.  A generator is its key, the triple ``(clusters, dv, alt)``: its
edge clusters, the cluster of the distinguished vertex, and the far sides
of the alternating flags, with the two sets stored as ints that have bit m
set for each member mask m.  The triple is canonical by construction, so
every differential and action term finds its row by it.

One walk per degree.  The families of a degree come in ascending order,
off the one search set-up of the pass, and the walk over them gets each
tree's view, the input far sides of every vertex, from ``tree`` once per
pass.  While the view is at hand the walk lists the tree's keys, sorted
by ``(dv, alt)``, so the keys of the degree come out sorted, and scores
the reach of each vertex once.  The differential of the degree is
assembled on the same walk, a tree at a time: the walk reads one
skeleton per edge off the view (its cluster, the other clusters, the
place sign and the parent vertex) and hands the assembler the column
``(key, (plus, minus))`` of every key of the tree, the targets of its
positive and of its negative terms, which ``_tree_columns``, the one place
the contraction signs are set, builds together.

The differential contracts edges.  Contracting the edge above cluster C
drops C, and the distinguished vertex moves to C's parent when it was C.
An alternating C is replaced by each input of its vertex, one term per
replacement.  The symmetric group on the n+1 leg labels permutes the bits;
where the image of a cluster contains leg 0 the tree is re-rooted, and the
cluster becomes the complement of that image.  When the alternating set
captures the new output flag of the distinguished vertex, the image is the
signed sum over trading it for each other flag there.  The differential
and the action are given as columns of the one form that ``ChainComplex``
assembles and traces; the action reads each run of keys of one tree
together, and a trace reads the action columns of the keys on the trees
whose clusters the permutation maps onto themselves, and of no other key.

Signs by position.  The generators of a degree are sorted by key, and
``code`` spells the key out.  The reference order of the edges is their
clusters sorted ascending, that of the alternating flags their far sides
sorted ascending, so each term reads its sign off positions.  Contracting
the edge at place p of e moves it to the last wedge slot, (-1)^(e-1-p), and
leaves the other clusters sorted.  Trading an alternating far side a for b
passes the other alternating far sides strictly between a and b, one sign
each.  A relabeling, or a trade term of one, takes the parity of sorting
the renamed edges and far sides.  The tests check every matrix against
the flag-tree construction up to the signed generator bijection, and check
that the homology does not change when the basis is reoriented.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .linalg import ChainComplex, alternating_sum, products_agree
from .trees import LaminarSearch, _mask_set, _members, _spell, sort_sign


class DomainError(ValueError):
    """Parameters outside the domain where the complex is defined."""


# the byte that stores a key outside the acyclic part, above every reach
OUTSIDE = 255
# the byte of each reach score, and of None (outside), that the walk
# appends: a score that does not fit below ``OUTSIDE`` has none, so the walk
# raises rather than wraps it
_BYTE = {score: bytes([score]) for score in range(OUTSIDE)}
_BYTE[None] = bytes([OUTSIDE])


class _Tree:
    """The view of one stable tree, derived from its clusters.

    ``edges`` lists the clusters ascending, the reference edge order;
    ``up[c]`` is the vertex above the edge with cluster c; ``inputs[D]``
    lists the far sides of the input flags of vertex D ascending, its
    children and its own legs.  Ascending masks extend inclusion, so the
    clusters met so far that have no parent yet are disjoint, the next
    cluster that holds one of them is its parent, and the legs of a vertex
    are those no earlier cluster holds.
    """

    __slots__ = ("n", "full", "edges", "up", "inputs")

    def __init__(self, n, clusters):
        self.n = n
        self.full = full = (1 << n + 1) - 2
        self.edges = edges = tuple(_members(clusters))
        self.up = up = {}
        self.inputs = inputs = {}
        top, covered = [], 0
        for d in edges + (full,):
            sides, rest = [], [d]
            for c in top:
                if c & d == c:
                    up[c] = d
                    sides.append(c)
                else:
                    rest.append(c)
            top = rest
            legs = d & ~covered
            covered |= d
            while legs:
                low = legs & -legs
                sides.append(low)
                legs ^= low
            sides.sort()
            inputs[d] = tuple(sides)

    def depth(self, d):
        """The number of edges between vertex d and the root."""
        up, full, count = self.up, self.full, 0
        while d != full:
            d = up[d]
            count += 1
        return count


def _rerooted(image):
    """The side of the image of every mask without leg 0: where a
    relabeling takes an edge's cluster, re-rooting included."""
    everything = len(image) - 1
    return [everything ^ m if m & 1 else m for m in image]


def _tree_columns(clusters, tree, sets):
    """The differential's column ``(key, (plus, minus))`` of each key
    ``(clusters, dv, alt)`` on one tree, vertex by vertex as ``sets``
    lists them with their alternating sets: the targets of its positive
    and of its negative terms, each side in the reference order of the
    edges.  The tree's skeleton, read once off its view, holds per edge
    its cluster c, the mask-set of the other clusters, whether contracting
    it is negative (1 when (-1)^(e-1-p) is -1 at place p of e, else 0) and
    the vertex above it.  Each edge has one term, whose contraction moves
    the distinguished vertex to c's parent when it was c; an alternating
    edge c, which hangs below dv, has one term per input b of its child
    instead, which replaces the lost alternating flag and, inside c, sorts
    below it, and the trade passes the other alternating far sides
    strictly between b and c, one sign each.  The one place the
    differential's signs are set."""
    up, inputs, last = tree.up, tree.inputs, len(tree.edges) - 1
    skeleton = [(c, clusters ^ 1 << c, (last - pos) & 1, up[c])
                for pos, c in enumerate(tree.edges)]
    for dv, alts in sets:
        for alt in alts:
            plus, minus = [], []
            for c, rest, negative, above in skeleton:
                if above != dv or not alt >> c & 1:
                    (minus if negative else plus).append((rest, above if c == dv else dv, alt))
                    continue
                others = alt ^ 1 << c
                below = others & (1 << c) - 1
                for b in inputs[c]:
                    passed = (below >> b + 1).bit_count()
                    (minus if negative ^ passed & 1 else plus).append((rest, dv, others | 1 << b))
            yield (clusters, dv, alt), (plus, minus)


def _check_type(n, k):
    if n < 2 or k < 2 or k > n:
        raise DomainError(f"type ({n}, {k}) requires 2 <= k <= n")


class StirlingComplex(ChainComplex):
    """The chain complex of type (n, k), graded by edge count i.

    Internal degree i corresponds to total degree i + k; the complex is
    concentrated in internal degrees 0..n-k.
    """

    error = DomainError

    def __init__(self, n, k):
        _check_type(n, k)
        super().__init__()
        self.n = n
        self.k = k
        self.legs = range(n + 1)
        # the clusters a tree of type (n, k) may have
        self._clusters = [c for c in range(2, 1 << n + 1, 2) if 2 <= c.bit_count() < n]
        self._view = {}
        self._reach = {}
        self._caches += [self._view, self._reach]
        # one int per distinct alternating set, which every key holding
        # that set shares
        self._alts = {}
        # the pass's laminar search set-ups, by relabeling (None: the walk)
        self._searches = {}
        self._tables += [self._alts, self._searches]

    @property
    def max_edges(self):
        return self.n - self.k

    def total_degree(self, i):
        return i + self.k

    # defined on this class, not only inherited, because the size records
    # of perfbench/layers.py wrap this class's own ``generators``
    generators = ChainComplex.generators

    def _trees(self, i):
        """The one walk over degree i: each laminar family of i clusters,
        ascending, off the pass's one search set-up, with its view, got
        once from ``tree``, which holds it while its keys are met, and its
        alternating sets.  Each vertex with at least k inputs is scored
        once by ``vertex_reach``, and the score of every key goes to
        ``_reach[i]``, one byte per key, ``OUTSIDE`` for a key outside the
        acyclic part, which the walk fills whole.  ``walk`` reads the keys
        off it, and ``contraction_columns`` the columns of d_i."""
        reach = self._reach[i] = bytearray()
        for clusters in self._search(None).families(i):
            tree = self.tree(clusters)
            sets = self._alternating_sets(tree)
            for dv, alts in sets:
                reach += _BYTE[self.vertex_reach(tree, dv)] * len(alts)
            yield clusters, tree, sets

    def walk(self, i):
        """The keys of degree i, tree by tree, each tree's sorted by ``(dv,
        alt)``, which keeps the whole walk sorted by key."""
        for clusters, _tree, sets in self._trees(i):
            for dv, alts in sets:
                for alt in alts:
                    yield clusters, dv, alt

    def _alternating_sets(self, tree):
        """The generators on one tree, vertex by vertex ascending: each
        vertex dv with at least k inputs and its alternating sets sorted,
        so the keys ``(clusters, dv, alt)`` come out sorted: the sets drawn
        from the far sides largest first come in descending order of their
        mask-sets, which compare by their largest member first, and are
        reversed.  Each set is interned in the pass's table, so equal sets
        are one int."""
        intern, k = self._alts.setdefault, self.k
        sets = []
        for dv, inputs in tree.inputs.items():
            if len(inputs) >= k:
                alts = [intern(alt, alt) for alt in
                        map(_mask_set, itertools.combinations(inputs[::-1], k))]
                alts.reverse()
                sets.append((dv, alts))
        return sets

    def _search(self, bits, perm=None):
        """The laminar search over the clusters, set up once per pass: one
        for the walk (``bits`` None) and one for each relabeling ``bits``
        of ``perm``, which moves each cluster to the side of its image
        without leg 0."""
        search = self._searches.get(bits)
        if search is None:
            side = None if perm is None else _rerooted(self._image(perm))
            search = self._searches[bits] = LaminarSearch(self._clusters, side)
        return search

    def fixable_keys(self, i, perm):
        """The keys of degree i a permutation of the leg labels can fix: the
        keys on the trees whose clusters it maps onto themselves,
        re-rooting included, which the relabeling's search enumerates by
        the orbits of the clusters."""
        search = self._search(self.relabeling(perm), perm)
        return ((clusters, dv, alt) for clusters in search.families(i)
                for dv, alts in self._alternating_sets(self.tree(clusters))
                for alt in alts)

    def tree(self, clusters):
        """The view of the tree whose edges are ``clusters``, the one place
        views are derived.  The last one of each degree is kept until
        ``release`` drops the degree, since the walk takes each view here
        while its keys are met and every other walk over the keys, which
        are sorted by clusters, meets the keys of one tree in a row."""
        i = clusters.bit_count()
        held = self._view.get(i)
        if held is None or held[0] != clusters:
            held = self._view[i] = clusters, _Tree(self.n, clusters)
        return held[1]

    def code(self, key):
        """The key spelled out: edge clusters, distinguished vertex and
        alternating far sides, as decimal masks."""
        clusters, dv, alt = key
        return f"T{self.n}:{_spell(_members(clusters))}|{dv}|{_spell(_members(alt))}"

    # -- columns -------------------------------------------------------------

    def contraction_columns(self, i):
        """The column of every degree-i key, tree by tree on the walk of
        degree i, which runs again when degree i is held: ``_tree_columns``
        builds the columns of each tree's keys together."""
        for tree_keys in self._trees(i):
            yield from _tree_columns(*tree_keys)

    def action_columns(self, keys, perm):
        """The column of each of ``keys`` under a permutation of the leg
        labels 0..n, in their order: one term, or the signed trade terms
        when the relabeled alternating set captures the new output flag,
        signed by the parity of sorting the renamed edges and far sides.
        Each run of keys of one tree reads its view, its relabeled clusters
        and the sign of sorting its renamed edges once.

        ``perm`` is a bijection of {0..n} given as a sequence (perm[j] is
        the image of j) or a dict; the classical permutation group on n+1
        letters is identified with these by exchanging the letters 0 and
        n+1.  ``relabeling`` checks it, and its image table is built once
        per pass.
        """
        image = self._image(perm)
        everything = len(image) - 1
        side = _rerooted(image)
        for clusters, run in itertools.groupby(keys, itemgetter(0)):
            tree = self.tree(clusters)
            # every term of the run shares the relabeled clusters
            relabeled = _mask_set(side[c] for c in tree.edges)
            edge_sign = sort_sign([side[c] for c in tree.edges])
            for key in run:
                _clusters, dv, alt = key
                sides = tree.inputs[dv] + (everything ^ dv,)
                out = next(s for s in sides if image[s] & 1)
                # every term of the key shares the distinguished vertex
                new_dv = everything ^ image[out]
                alt_images = [image[a] for a in _members(alt)]
                if not alt >> out & 1:
                    candidates = [(alt_images, edge_sign)]
                else:
                    # trade the captured output flag for each remaining flag there
                    candidates = [([image[b] if a & 1 else a for a in alt_images], -edge_sign)
                                  for b in sides if not alt >> b & 1]
                plus, minus = [], []
                for names, sign in candidates:
                    (plus if sign * sort_sign(names) > 0 else minus).append(
                        (relabeled, new_dv, _mask_set(names)))
                yield key, (plus, minus)

    def verify_action(self, perms, pairs=()):
        """True when each relabeling in ``perms``, and the sigma of each
        pair, commutes with d (A_{i-1} d_i = d_i A_i) and each pair (sigma,
        tau) obeys A(sigma) A(tau) = A(sigma tau), column by column.  It
        holds every differential and every degree's keys throughout; each
        relabeling walks the degrees holding, of its own matrices, only
        A_{i-1} and A_i, and a pair's law reuses A_i(sigma)."""
        laws = {}
        for sigma, tau in pairs:
            sigma, tau = self.relabeling(sigma), self.relabeling(tau)
            laws.setdefault(sigma, []).append((tau, compose(sigma, tau)))
        relabelings = dict.fromkeys(map(self.relabeling, perms)) | dict.fromkeys(laws)
        d = self.differentials()
        for perm in relabelings:
            for i in range(self.max_edges + 1):
                action = self.action_matrix(i, perm)
                if i and not products_agree(below, d[i], d[i], action):
                    return False
                below = action
                if not all(products_agree(action, self.action_matrix(i, tau),
                                          self.action_matrix(i, prod))
                           for tau, prod in laws.get(perm, ())):
                    return False
        return True

    # -- reach filtration ----------------------------------------------------

    def vertex_reach(self, tree, dv):
        """The reach every generator at vertex dv of ``tree`` shares, 2e
        minus the depth of dv minus one when dv has exactly k inputs; None
        outside the acyclic subcomplex, where dv is the root vertex with
        exactly k inputs."""
        exact = len(tree.inputs[dv]) == self.k
        if exact and dv == tree.full:
            return None
        return 2 * len(tree.edges) - tree.depth(dv) - exact

    def _reaches(self, i):
        """The reach of each degree-i generator, one byte each and
        ``OUTSIDE`` outside the acyclic part, as the walk of degree i scored
        it: every walk that counts the degree scores it, so ``dim`` walks
        only when none has."""
        self.dim(i)
        return self._reach[i]

    def reach_filtration_holds(self, i):
        """On the degree-i generators of the acyclic subcomplex, the
        differential never leaves that subcomplex and never increases the
        reach, and the reach stays within its bounds.

        The targets are read off the rows of ``differential(i)``: no two
        contraction terms of one generator share a target, so none cancels.
        Degree 0 has none, so its check builds no d_0.  A score is a byte,
        so it is never negative, and ``OUTSIDE`` lies above every score, so
        ``target[r] <= score`` alone rejects a target outside the part.
        """
        upper = 2 * (self.n - self.k) - 2
        source = self._reaches(i)
        if self.n > self.k and any(upper < r < OUTSIDE for r in source):
            return False
        if not i:
            return True
        d, target = self.differential(i), self._reaches(i - 1)
        return all(target[r] <= score
                   for score, col in zip(source, d.columns()) if score != OUTSIDE
                   for r in col)

    def to_json_dict(self):
        degrees = [{"i": i, "dim": len(self.generators(i)),
                    "generators": [self.code(key) for key in self.generators(i)]}
                   for i in range(self.max_edges + 1)]
        diffs = [{"i": i,
                  "triplets": [[r, c, v] for r, c, v in
                               sorted(self.differential(i).triplets())]}
                 for i in range(1, self.max_edges + 1)]
        return {"schema": 1, "n": self.n, "k": self.k,
                "degrees": degrees, "differentials": diffs}

    def generator_dot(self):
        """DOT drawings of every generator, decorations marked."""
        return "\n".join(_tree_dot(self.tree(key[0]), key, f"s_{self.n}_{self.k}_{i}_{pos}")
                         for i in range(self.max_edges + 1)
                         for pos, key in enumerate(self.generators(i)))


def _tree_dot(tree, key, name):
    """GraphViz source of one generator, drawn from its key on its tree: the
    root is v0, the vertex below cluster C is numbered by C's place among
    the sorted clusters, and the distinguished vertex and alternating flags
    are red."""
    _clusters, dv, alt = key
    vertex = {d: pos for pos, d in enumerate((tree.full,) + tree.edges)}
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for d, v in vertex.items():
        color = ", color=red" if d == dv else ""
        lines.append(f'  v{v} [label=""{color}];')
    # the vertex each input flag sits at, by far side; leg 0 is the root's
    above = {side: vertex[d] for d, sides in tree.inputs.items() for side in sides}
    for lab in range(tree.n + 1):
        style = " [color=red]" if alt >> (1 << lab) & 1 else ""
        lines.append(f'  leg{lab} [shape=plaintext, label="{lab}"];')
        lines.append(f"  v{above.get(1 << lab, 0)} -- leg{lab}{style};")
    for c in tree.edges:
        style = " [color=red]" if alt >> c & 1 else ""
        lines.append(f"  v{above[c]} -- v{vertex[c]}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def transposition(n, a, b):
    perm = list(range(n + 1))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def compose(sigma, tau):
    """(sigma after tau)[j] = sigma[tau[j]]."""
    return tuple(sigma[t] for t in tau)


def survey(n, k, rank_seed=0):
    """Type (n, k) in one pass of ``ChainComplex.degrees``: dimensions,
    ranks, Betti numbers, the d^2 and reach checks, the concentration
    degree and the certificate of the pass's reduction (``"unverified"``
    when d^2 = 0 failed).  The reach check of degree i runs in the pass,
    while the reach scores of degree i-1's walk are still held.

    ``rank_seed`` is accepted and ignored: every rank is exact and takes no
    seed, and callers that still pass one (``perfbench/workloads.py``) keep
    working.
    """
    cx = StirlingComplex(n, k)
    reach_ok = True
    for i in cx.degrees():
        if reach_ok:
            reach_ok = cx.reach_filtration_holds(i)
    result = cx.homology()
    return {"n": n, "k": k, "dims": result.dims, "ranks": result.ranks,
            "betti": result.betti, "d2_ok": result.d2_ok,
            "reach_ok": reach_ok, "certificate": result.certificate,
            "concentrated_in": result.concentrated_in,
            "euler": alternating_sum(result.dims)}
