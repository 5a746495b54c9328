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
and the walk over them derives each tree's view, the input far sides of
every vertex, once per pass.  While the view is at hand the walk yields
the tree's keys, sorted by ``(dv, alt)``, so the keys of the degree come
out sorted, and scores the reach of each vertex once.  The differential of
the degree is assembled on the same walk, and its terms find the view
where the walk left it.

The differential contracts edges.  Contracting the edge above cluster C
drops C, and the distinguished vertex moves to C's parent when it was C.
An alternating C is replaced by each input of its vertex, one term per
replacement.  The symmetric group on the n+1 leg labels permutes the bits;
where the image of a cluster contains leg 0 the tree is re-rooted, and the
cluster becomes the complement of that image.  When the alternating set
captures the new output flag of the distinguished vertex, the image is the
signed sum over trading it for each other flag there.  The differential and
the action are given as terms that ``ChainComplex`` assembles and traces.

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

from .linalg import ChainComplex
from .trees import laminar_families, sort_sign


class DomainError(ValueError):
    """Parameters outside the domain where the complex is defined."""


def _mask_set(masks):
    """A set of masks as one int, bit m set for each member m."""
    total = 0
    for m in masks:
        total |= 1 << m
    return total


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
        count = 0
        while d != self.full:
            d = self.up[d]
            count += 1
        return count


def _check_type(n, k):
    if n < 2 or k < 2 or k > n:
        raise DomainError(f"type ({n}, {k}) requires 2 <= k <= n")


class StirlingComplex(ChainComplex):
    """The chain complex of type (n, k), graded by edge count i.

    Internal degree i corresponds to total degree i + k; the complex is
    concentrated in internal degrees 0..n-k.
    """

    def __init__(self, n, k):
        _check_type(n, k)
        super().__init__()
        self.n = n
        self.k = k
        # the clusters a tree of type (n, k) may have
        self._clusters = [c for c in range(2, 1 << n + 1, 2) if 2 <= c.bit_count() < n]
        self._view = {}
        self._reach = {}
        self._caches += [self._view, self._reach]

    @property
    def max_edges(self):
        return self.n - self.k

    def total_degree(self, i):
        return i + self.k

    # defined on this class, not only inherited, because the size records
    # of perfbench/layers.py wrap this class's own ``generators``
    generators = ChainComplex.generators

    def walk(self, i):
        """The one walk over degree i: each laminar family of i clusters,
        ascending, gets its view once, left in the memo of ``tree`` while
        its keys are met, and yields its keys sorted by ``(dv, alt)``,
        which keeps the whole walk sorted by key.  Each vertex with at
        least k inputs is scored once by ``vertex_reach``, and the score of
        every key goes to ``_reach[i]``, which the walk fills whole."""
        reach = self._reach[i] = []
        for clusters in laminar_families(self._clusters, i):
            tree = _Tree(self.n, clusters)
            self._view[i] = clusters, tree
            for dv, inputs in tree.inputs.items():
                if len(inputs) < self.k:
                    continue
                alts = sorted(map(_mask_set, itertools.combinations(inputs, self.k)))
                reach += [self.vertex_reach(tree, dv)] * len(alts)
                for alt in alts:
                    yield clusters, dv, alt

    def tree(self, clusters):
        """The view of the tree whose edges are ``clusters``.  The last one
        of each degree is kept until ``release`` drops the degree, since
        the walk leaves each view there while its keys are met and every
        other walk over the keys, which are sorted by clusters, meets the
        keys of one tree in a row."""
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

    # -- terms ---------------------------------------------------------------

    def contraction_terms(self, key):
        """The differential's terms of one generator, one per contraction
        and, for an alternating edge, one per replacing input b, which lies
        inside the contracted cluster c and so sorts below it."""
        clusters, dv, alt = key
        tree = self.tree(clusters)
        last = len(tree.edges) - 1
        for pos, c in enumerate(tree.edges):
            sign = -1 if (last - pos) % 2 else 1
            rest = clusters ^ 1 << c
            new_dv = tree.up[c] if c == dv else dv
            if not alt >> c & 1:
                yield (rest, new_dv, alt), sign
            else:
                # the edge hangs below the distinguished vertex; its child's
                # inputs replace the lost alternating flag one at a time
                others = alt ^ 1 << c
                for b in tree.inputs[c]:
                    passed = (others & (1 << c) - (1 << b + 1)).bit_count()
                    yield (rest, new_dv, others | 1 << b), -sign if passed % 2 else sign

    def action_terms(self, perm):
        """The terms of a permutation of the leg labels 0..n, as a function
        from a generator to the list of its terms: one term, or the signed
        trade terms when the relabeled alternating set captures the new
        output flag, signed by the parity of sorting the renamed edges and
        far sides.  With ``fixed`` only terms landing on the generator are
        returned: the edges (each tree relabeled once, kept in a dict local
        to the function), then the vertex, and last the alternating sets
        are tested.

        ``perm`` is a bijection of {0..n} given as a sequence (perm[j] is
        the image of j) or a dict; the classical permutation group on n+1
        letters is identified with these by exchanging the letters 0 and
        n+1.  It is checked, and its image table built, once.
        """
        image = _bit_images(_as_permutation(perm, self.n))
        everything = len(image) - 1
        # an edge keeps the side of its image without leg 0
        side = [everything ^ m if m & 1 else m for m in image]
        images = {}

        def terms(key, fixed=False):
            clusters, dv, alt = key
            if clusters not in images:
                images[clusters] = _mask_set(side[c] for c in _members(clusters))
            if fixed and images[clusters] != clusters:
                return ()
            tree = self.tree(clusters)
            sides = tree.inputs[dv] + (everything ^ dv,)
            out = next(s for s in sides if image[s] & 1)
            new_dv = everything ^ image[out]
            # every term shares the distinguished vertex and the clusters
            if fixed and new_dv != dv:
                return ()
            edges = [side[c] for c in tree.edges]
            edge_sign = sort_sign(edges)
            alt_images = [image[a] for a in _members(alt)]
            if not alt >> out & 1:
                candidates = [(alt_images, edge_sign)]
            else:
                # trade the captured output flag for each remaining flag there
                candidates = [([image[b] if a & 1 else a for a in alt_images], -edge_sign)
                              for b in sides if not alt >> b & 1]
            found = [((images[clusters], new_dv, _mask_set(names)), sign * sort_sign(names))
                     for names, sign in candidates]
            return [term for term in found if term[0] == key] if fixed else found

        return terms

    def verify_equivariance(self, perm):
        """True when the action of ``perm`` commutes with the differential."""
        actions = [self.action_matrix(i, perm) for i in range(self.max_edges + 1)]
        return all(actions[i - 1] @ d == d @ actions[i]
                   for i, d in self.differentials().items())

    def verify_group_law(self, pairs):
        """Check action(sigma) . action(tau) == action(sigma tau) per degree."""
        for sigma, tau in pairs:
            sigma = _as_permutation(sigma, self.n)
            tau = _as_permutation(tau, self.n)
            prod = compose(sigma, tau)
            for i in range(self.max_edges + 1):
                lhs = self.action_matrix(i, sigma) @ self.action_matrix(i, tau)
                if lhs != self.action_matrix(i, prod):
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

    def in_acyclic_part(self, key):
        """Membership in the acyclic subcomplex: the distinguished vertex
        has valence above k+1, or it is not the root vertex."""
        return self.vertex_reach(self.tree(key[0]), key[1]) is not None

    def reach(self, key):
        score = self.vertex_reach(self.tree(key[0]), key[1])
        if score is None:
            raise DomainError("generator lies outside the acyclic subcomplex")
        return score

    def _reaches(self, i):
        """The reach of each degree-i generator, None outside the acyclic
        part, as the walk of degree i scored it."""
        self.generators(i)
        return self._reach[i]

    def reach_filtration_holds(self, i):
        """On the degree-i generators of the acyclic subcomplex, the
        differential never leaves that subcomplex and never increases the
        reach, and the reach stays within its bounds.

        The targets are read off the columns of ``differential(i)``: no two
        contraction terms of one generator share a target, so none cancels.
        """
        upper = 2 * (self.n - self.k) - 2
        d = self.differential(i)
        source, target = self._reaches(i), self._reaches(i - 1)
        if self.n > self.k and any(r is not None and not 0 <= r <= upper
                                   for r in source):
            return False
        return all(target[r] is not None and target[r] <= score
                   for score, col in zip(source, d.cols) if score is not None
                   for r in col)

    def to_json_dict(self):
        degrees = [{"i": i, "dim": self.dim(i),
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


def _members(mask_set):
    """The member masks of a mask-set, ascending."""
    out = []
    while mask_set:
        low = mask_set & -mask_set
        out.append(low.bit_length() - 1)
        mask_set ^= low
    return out


def _spell(masks):
    return ",".join(map(str, masks))


def _as_permutation(perm, n):
    labels = list(range(n + 1))
    if isinstance(perm, dict):
        perm = tuple(perm[j] for j in labels) if sorted(perm) == labels else ()
    else:
        perm = tuple(perm)
    if sorted(perm) != labels:
        raise DomainError(f"expected a bijection of 0..{n}")
    return perm


def _bit_images(perm):
    """The image of every mask over bits 0..len(perm)-1 when bit j goes to
    bit perm[j]."""
    image = [0] * (1 << len(perm))
    for m in range(1, len(image)):
        low = m & -m
        image[m] = image[m ^ low] | 1 << perm[low.bit_length() - 1]
    return image


def transposition(n, a, b):
    perm = list(range(n + 1))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def compose(sigma, tau):
    """(sigma after tau)[j] = sigma[tau[j]]."""
    return tuple(sigma[t] for t in tau)


def survey(n, k, rank_seed=0, reach_check=True):
    """Type (n, k) in one pass of ``ChainComplex.degrees``: dimensions,
    ranks, Betti numbers, the d^2 and reach checks, and the certificate of
    the pass's reduction (``"unverified"`` when d^2 = 0 failed).  The reach
    check of degree i runs in the pass, while degree i-1 is still held.

    ``rank_seed`` is accepted and ignored: every rank is exact and takes no
    seed, and callers that still pass one (``perfbench/workloads.py``) keep
    working.
    """
    cx = StirlingComplex(n, k)
    reach_ok = True
    for i in cx.degrees():
        if reach_check and reach_ok:
            reach_ok = cx.reach_filtration_holds(i)
    result = cx.homology()
    return {"n": n, "k": k, "dims": result.dims, "ranks": result.ranks,
            "betti": result.betti, "d2_ok": result.d2_ok,
            "reach_ok": reach_ok, "certificate": result.certificate,
            "euler": sum((-1) ** i * d for i, d in result.dims.items())}
