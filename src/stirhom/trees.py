"""Flag-based graphs, stable n-trees, and genus-labeled (modular) graphs.

A graph is a quadruple (V, F, a, iota): a finite vertex set, a finite flag
set, an attachment map a: F -> V and an involution iota: F -> F.  Orbits of
size two are edges, fixed points are legs.  Loops and parallel edges are
supported natively, which the genus-one graph complex requires.

Trees carry leg labels {0..n}, with the leg labeled 0 acting as the root;
genus-labeled graphs carry leg labels {1..m} and a genus per vertex.
Canonical codes identify objects up to label-preserving isomorphism and
induce the reference edge / flag orderings used for all sign computations
downstream.

Nothing here contracts edges or searches for automorphisms: ``stirling``
and ``graphcomplex`` contract and relabel leaf-set keys, leg-labeled stable
trees are rigid, and the genus-one orientation kill is read off the cycle
length (see ``graphcomplex``).
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache


class GraphError(ValueError):
    """Malformed graph data or an invalid graph operation."""


# ---------------------------------------------------------------------------
# permutation parities


def perm_parity(images):
    """Sign of the permutation i -> images[i] of range(len(images))."""
    n = len(images)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def relative_sign(seq_a, seq_b):
    """Sign of the permutation taking the ordering seq_a to seq_b.

    Both sequences must enumerate the same set of distinct elements.
    """
    if len(seq_a) != len(seq_b):
        raise ValueError("orderings have different lengths")
    pos = {x: i for i, x in enumerate(seq_a)}
    if len(pos) != len(seq_a):
        raise ValueError("ordering contains repeated elements")
    try:
        images = [pos[x] for x in seq_b]
    except KeyError as exc:
        raise ValueError(f"orderings differ as sets: missing {exc}") from None
    return perm_parity(images)


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """A multigraph presented by flags.

    Flags are the integers 0..num_flags-1.  ``flag_vertex[f]`` is the vertex
    a flag is attached to, ``involution`` pairs the two halves of every edge
    and fixes legs, and ``legs`` maps each external label to its flag.
    """

    __slots__ = ("num_vertices", "flag_vertex", "involution", "legs",
                 "_edges", "_vertex_flags", "_flag_label")

    def __init__(self, num_vertices, flag_vertex, involution, legs, check=True):
        self.num_vertices = num_vertices
        self.flag_vertex = tuple(flag_vertex)
        self.involution = tuple(involution)
        self.legs = dict(legs)
        self._edges = None
        self._vertex_flags = None
        self._flag_label = None
        if check:
            self._validate()

    def _validate(self):
        nf = len(self.flag_vertex)
        if len(self.involution) != nf:
            raise GraphError("involution and flag_vertex disagree on flag count")
        if self.num_vertices <= 0:
            raise GraphError("a graph needs at least one vertex")
        for f, g in enumerate(self.involution):
            if not 0 <= g < nf or self.involution[g] != f:
                raise GraphError("involution is not a self-inverse flag map")
        if any(not 0 <= v < self.num_vertices for v in self.flag_vertex):
            raise GraphError("flag attached to a missing vertex")
        fixed = {f for f in range(nf) if self.involution[f] == f}
        if len(set(self.legs.values())) != len(self.legs):
            raise GraphError("leg labeling is not injective")
        if set(self.legs.values()) != fixed:
            raise GraphError("leg labels must cover exactly the involution fixed points")

    @property
    def num_flags(self):
        return len(self.flag_vertex)

    @property
    def edges(self):
        """Edges as ordered pairs (f, iota(f)) with f < iota(f), sorted."""
        if self._edges is None:
            inv = self.involution
            self._edges = tuple((f, inv[f]) for f in range(len(inv)) if f < inv[f])
        return self._edges

    @property
    def num_edges(self):
        return len(self.edges)

    def vertex_flags(self, v):
        if self._vertex_flags is None:
            flags = [[] for _ in range(self.num_vertices)]
            for f, w in enumerate(self.flag_vertex):
                flags[w].append(f)
            self._vertex_flags = tuple(tuple(fs) for fs in flags)
        return self._vertex_flags[v]

    def valence(self, v):
        return len(self.vertex_flags(v))

    @property
    def flag_label(self):
        """Inverse of ``legs``: flag -> external label."""
        if self._flag_label is None:
            self._flag_label = {f: lab for lab, f in self.legs.items()}
        return self._flag_label

    def is_edge(self, pair):
        f, g = pair
        nf = len(self.flag_vertex)
        return (0 <= f < nf and 0 <= g < nf and f != g
                and self.involution[f] == g)

    def with_legs(self, new_legs):
        """Same flag structure with a different leg labeling."""
        return Graph(self.num_vertices, self.flag_vertex, self.involution,
                     new_legs, check=False)

    def connected_component_count(self):
        seen = [False] * self.num_vertices
        count = 0
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            count += 1
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                for f in self.vertex_flags(v):
                    mate = self.involution[f]
                    if mate == f:
                        continue
                    w = self.flag_vertex[mate]
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return count

    def first_betti(self):
        return self.connected_component_count() - self.num_vertices + self.num_edges


def count_shortest_paths(graph, v, w):
    """(length, count) of shortest edge paths from v to w.

    Parallel edges count as distinct paths.  Used to assert uniqueness of
    shortest paths in trees.
    """
    if v == w:
        return 0, 1
    dist = {v: 0}
    ways = {v: 1}
    frontier = [v]
    d = 0
    while frontier:
        d += 1
        nxt = {}
        for u in frontier:
            for f in graph.vertex_flags(u):
                mate = graph.involution[f]
                if mate == f:
                    continue
                x = graph.flag_vertex[mate]
                if x in dist and dist[x] < d:
                    continue
                nxt[x] = nxt.get(x, 0) + ways[u]
        for x, c in nxt.items():
            if x not in dist:
                dist[x] = d
                ways[x] = c
            else:
                ways[x] += c
        if w in dist:
            return dist[w], ways[w]
        frontier = [x for x in nxt if dist[x] == d]
    raise GraphError("vertices lie in different components")


# ---------------------------------------------------------------------------
# trees


class Tree:
    """A stable n-tree: connected, simply connected, every valence >= 3.

    Legs are labeled 0..n and the leg labeled 0 is the root.  Each vertex
    has one output flag (pointing toward the root); the remaining flags are
    its inputs.
    """

    __slots__ = ("graph", "root_vertex", "_output", "_parent_edge", "_order")

    def __init__(self, graph, check=True):
        self.graph = graph
        labels = set(graph.legs)
        if 0 not in labels:
            raise GraphError("a rooted tree needs a leg labeled 0")
        root_flag = graph.legs[0]
        self.root_vertex = graph.flag_vertex[root_flag]
        output = [None] * graph.num_vertices
        parent_edge = [None] * graph.num_vertices
        order = []
        output[self.root_vertex] = root_flag
        stack = [self.root_vertex]
        seen = {self.root_vertex}
        while stack:
            v = stack.pop()
            order.append(v)
            for f in graph.vertex_flags(v):
                mate = graph.involution[f]
                if mate == f or f == output[v]:
                    continue
                w = graph.flag_vertex[mate]
                if w in seen:
                    continue
                seen.add(w)
                output[w] = mate
                parent_edge[w] = (f, mate) if f < mate else (mate, f)
                stack.append(w)
        self._output = tuple(output)
        self._parent_edge = tuple(parent_edge)
        self._order = tuple(order)
        if check:
            self._validate(labels, seen)

    def _validate(self, labels, seen):
        g = self.graph
        if labels != set(range(len(labels))):
            raise GraphError("tree legs must be labeled 0..n")
        if len(labels) < 3:
            raise GraphError("a stable tree needs at least three legs")
        if len(seen) != g.num_vertices:
            raise GraphError("tree is not connected")
        if g.num_edges != g.num_vertices - 1:
            raise GraphError("tree has a cycle")
        for v in range(g.num_vertices):
            if g.valence(v) < 3:
                raise GraphError(f"vertex {v} has valence {g.valence(v)} < 3")

    @property
    def n(self):
        return len(self.graph.legs) - 1

    def output_flag(self, v):
        return self._output[v]

    def input_flags(self, v):
        out = self._output[v]
        return tuple(f for f in self.graph.vertex_flags(v) if f != out)

    def parent_edge(self, v):
        return self._parent_edge[v]

    def path_edges_to_root(self, v):
        """Edges on the unique shortest path from v to the root vertex."""
        path = []
        g = self.graph
        while v != self.root_vertex:
            e = self._parent_edge[v]
            path.append(e)
            up = e[0] if g.flag_vertex[e[0]] != v else e[1]
            v = g.flag_vertex[up]
        return path

    def relabeled(self, perm):
        """Relabel legs by label -> perm[label]; the root may move."""
        n = self.n
        if sorted(perm[j] for j in range(n + 1)) != list(range(n + 1)):
            raise GraphError("leg relabeling must be a bijection of 0..n")
        new_legs = {perm[lab]: f for lab, f in self.graph.legs.items()}
        return Tree(self.graph.with_legs(new_legs), check=False)

    def as_modular(self):
        """View this n-tree as a genus-labeled graph of type (0, n+1).

        The root leg 0 becomes the leg labeled n+1; labels 1..n are fixed.
        """
        n = self.n
        new_legs = {(n + 1 if lab == 0 else lab): f
                    for lab, f in self.graph.legs.items()}
        return ModularGraph(self.graph.with_legs(new_legs),
                            (0,) * self.graph.num_vertices)


# ---------------------------------------------------------------------------
# genus-labeled graphs


class ModularGraph:
    """Connected stable graph with genus labels and legs labeled 1..m."""

    __slots__ = ("graph", "genus")

    def __init__(self, graph, genus, check=True):
        self.graph = graph
        self.genus = tuple(genus)
        if check:
            self._validate()

    def _validate(self):
        g = self.graph
        if len(self.genus) != g.num_vertices:
            raise GraphError("one genus label per vertex required")
        if any(gv < 0 for gv in self.genus):
            raise GraphError("genus labels must be non-negative")
        labels = set(g.legs)
        if labels != set(range(1, len(labels) + 1)):
            raise GraphError("graph legs must be labeled 1..m")
        if g.connected_component_count() != 1:
            raise GraphError("graph is not connected")
        for v in range(g.num_vertices):
            if 2 * self.genus[v] + g.valence(v) < 3:
                raise GraphError(f"vertex {v} is unstable")

    @property
    def m(self):
        return len(self.graph.legs)

    def total_genus(self):
        return self.graph.first_betti() + sum(self.genus)


# ---------------------------------------------------------------------------
# canonical forms for trees


def canonical_tree_data(tree, dv=None, alt=(), orient_seed=0):
    """Canonical code and reference orderings of a (decorated) tree.

    Returns ``(code, edge_order, alt_order)``: a string equal exactly for
    label-preserving isomorphic decorated trees, plus the edges of *this*
    presentation in canonical order and the alternating flags in canonical
    order.  Leg-labeled stable trees are rigid, so any deterministic
    traversal yields a well-defined reference; ``orient_seed`` != 0 applies
    a reproducible pseudo-random shuffle per isomorphism class.
    """
    g = tree.graph
    alt = frozenset(alt)
    flag_label = g.flag_label
    inv = g.involution
    fv = g.flag_vertex
    alt_order = []

    def walk(v, parent_flag):
        leg_items = []
        kid_flags = []
        for f in g.vertex_flags(v):
            if f == parent_flag:
                continue
            if inv[f] == f:
                leg_items.append((flag_label[f], f in alt, f))
            else:
                kid_flags.append(f)
        leg_items.sort()
        packed = []
        for f in kid_flags:
            mate = inv[f]
            sub_code, sub_edges = walk(fv[mate], mate)
            packed.append((sub_code, f in alt, f, mate, sub_edges))
        packed.sort(key=lambda item: item[0])
        edges_out = []
        for _sub_code, _is_alt, f, mate, sub_edges in packed:
            edges_out.append((f, mate) if f < mate else (mate, f))
            edges_out.extend(sub_edges)
        if v == dv:
            alt_order.extend(f for _lab, is_alt, f in leg_items if is_alt)
            alt_order.extend(f for _c, is_alt, f, _m, _e in packed if is_alt)
        code = (v == dv,
                tuple((lab, is_alt) for lab, is_alt, _f in leg_items),
                tuple((sub_code, is_alt) for sub_code, is_alt, *_ in packed))
        return code, edges_out

    root_code, edge_order = walk(tree.root_vertex, tree.graph.legs[0])
    code = f"T{tree.n}:{root_code!r}"
    if orient_seed:
        rng = random.Random(f"{orient_seed}|{code}")
        rng.shuffle(edge_order)
        rng.shuffle(alt_order)
    return code, tuple(edge_order), tuple(alt_order)


# ---------------------------------------------------------------------------
# canonical forms for genus-labeled graphs


def _vertex_keys(mg):
    g = mg.graph
    keys = []
    for v in range(g.num_vertices):
        labs = tuple(sorted(g.flag_label[f] for f in g.vertex_flags(v)
                            if g.involution[f] == f))
        keys.append((mg.genus[v], g.valence(v), labs))
    return keys


def _vertex_orderings(mg):
    """Vertex orderings compatible with the (genus, valence, legs) classes."""
    keys = _vertex_keys(mg)
    classes = {}
    for v, key in enumerate(keys):
        classes.setdefault(key, []).append(v)
    blocks = [classes[key] for key in sorted(classes)]
    for perm_blocks in itertools.product(*(itertools.permutations(b) for b in blocks)):
        ordering = [v for block in perm_blocks for v in block]
        rank = [0] * len(ordering)
        for pos, v in enumerate(ordering):
            rank[v] = pos
        yield tuple(rank)


def canonical_modular_data(mg, orient_seed=0):
    """Canonical code and reference edge order of a genus-labeled graph.

    Minimizes a full encoding over all vertex orderings compatible with the
    (genus, valence, legs) refinement; correct but brute-force, intended
    for desk-scale graphs.
    """
    g = mg.graph
    edges = g.edges
    best = None
    best_edge_order = None
    for rank in _vertex_orderings(mg):
        vertex_block = tuple(sorted(
            (rank[v], mg.genus[v],
             tuple(sorted(g.flag_label[f] for f in g.vertex_flags(v)
                          if g.involution[f] == f)))
            for v in range(g.num_vertices)))
        keyed = []
        for e in edges:
            a, b = rank[g.flag_vertex[e[0]]], rank[g.flag_vertex[e[1]]]
            keyed.append(((a, b) if a <= b else (b, a), e))
        keyed.sort()
        enc = (vertex_block, tuple(pair for pair, _e in keyed))
        if best is None or enc < best:
            best = enc
            best_edge_order = tuple(e for _pair, e in keyed)
    code = f"G{len(g.legs)}:{best!r}"
    edge_order = list(best_edge_order)
    if orient_seed:
        rng = random.Random(f"{orient_seed}|{code}")
        rng.shuffle(edge_order)
    return code, tuple(edge_order)


def canonical_code(obj, orient_seed=0):
    """Canonical code: equal exactly for label-preserving isomorphic inputs."""
    if isinstance(obj, Tree):
        return canonical_tree_data(obj, orient_seed=orient_seed)[0]
    if isinstance(obj, ModularGraph):
        return canonical_modular_data(obj, orient_seed=orient_seed)[0]
    raise TypeError("expected a Tree or a ModularGraph")


# ---------------------------------------------------------------------------
# enumeration of stable rooted trees


def _compositions(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    first_cap = min(caps[0], total)
    for head in range(first_cap + 1):
        for tail in _compositions(total - head, caps[1:]):
            yield (head,) + tail


def _partitions_into_blocks(items, r, min_block):
    """Partitions of ``items`` into exactly r blocks of size >= min_block."""
    if r == 0:
        if not items:
            yield ()
        return
    if len(items) < r * min_block:
        return
    first, rest = items[0], items[1:]
    # the block containing the first element, then recurse
    for extra in range(min_block - 1, len(rest) - (r - 1) * min_block + 1):
        for members in itertools.combinations(rest, extra):
            block = frozenset((first,) + members)
            remaining = tuple(x for x in rest if x not in block)
            for tail in _partitions_into_blocks(remaining, r - 1, min_block):
                yield (block,) + tail


@lru_cache(maxsize=None)
def _rooted_shapes(labels, num_edges, min_inputs=2):
    """Isomorphism classes of rooted trees over a fixed leaf-label set.

    A shape is ``(legs, children)`` with legs the labels attached directly
    to the root and children the shapes hanging below it.  Every non-root
    vertex has at least two inputs; the root has at least ``min_inputs``.
    """
    labels_t = tuple(sorted(labels))
    out = []
    for r in range(0, min(num_edges, len(labels_t) // 2) + 1):
        inner = num_edges - r
        for support_size in range(2 * r, len(labels_t) + 1):
            if len(labels_t) - support_size + r < min_inputs:
                continue
            for support in itertools.combinations(labels_t, support_size):
                legs = tuple(x for x in labels_t if x not in support)
                for blocks in _partitions_into_blocks(support, r, 2):
                    caps = [len(b) - 2 for b in blocks]
                    for alloc in _compositions(inner, caps):
                        pools = [_rooted_shapes(b, e) for b, e in zip(blocks, alloc)]
                        if any(not pool for pool in pools):
                            continue
                        for combo in itertools.product(*pools):
                            out.append((legs, tuple(sorted(combo))))
    return tuple(out)


def _tree_from_shape(shape, n):
    """Build the flag presentation of a rooted shape on labels 1..n.

    Legs occupy the lowest flag indices ordered by label (leg of label j is
    flag j); internal flags follow in construction order.
    """
    flag_vertex = [None] * (n + 1)
    involution = list(range(n + 1))
    counter = itertools.count()

    def new_flag(v):
        involution.append(len(involution))
        flag_vertex.append(v)
        return len(flag_vertex) - 1

    def build(node):
        vid = next(counter)
        legs, children = node
        for lab in legs:
            flag_vertex[lab] = vid
        for child in children:
            up = new_flag(vid)
            cid = build(child)
            down = new_flag(cid)
            involution[up] = down
            involution[down] = up
        return vid

    root = build(shape)
    flag_vertex[0] = root
    num_vertices = next(counter)
    legs = {lab: lab for lab in range(n + 1)}
    return Tree(Graph(num_vertices, flag_vertex, involution, legs, check=False))


def enumerate_stable_trees(n, i):
    """One canonical representative per isomorphism class of stable n-trees
    with i edges, sorted by canonical code."""
    if n < 2:
        raise GraphError("stable n-trees require n >= 2")
    if i < 0:
        raise GraphError("edge count must be non-negative")
    shapes = _rooted_shapes(frozenset(range(1, n + 1)), i)
    trees = [_tree_from_shape(shape, n) for shape in shapes]
    trees.sort(key=lambda t: canonical_tree_data(t)[0])
    return trees


# ---------------------------------------------------------------------------
# DOT export


def to_dot(obj, dv=None, alt=(), name="g"):
    """GraphViz source for a tree or genus-labeled graph.

    The distinguished vertex and the alternating flags, when given, are
    drawn in red; genus labels annotate the vertices.
    """
    if isinstance(obj, Tree):
        graph, genus = obj.graph, None
    elif isinstance(obj, ModularGraph):
        graph, genus = obj.graph, obj.genus
    else:
        raise TypeError("expected a Tree or a ModularGraph")
    alt = frozenset(alt)
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(graph.num_vertices):
        label = "" if genus is None else f"g={genus[v]}"
        color = ', color=red' if v == dv else ""
        lines.append(f'  v{v} [label="{label}"{color}];')
    for lab, f in sorted(graph.legs.items()):
        v = graph.flag_vertex[f]
        style = " [color=red]" if f in alt else ""
        lines.append(f'  leg{lab} [shape=plaintext, label="{lab}"];')
        lines.append(f"  v{v} -- leg{lab}{style};")
    for f1, f2 in graph.edges:
        u, w = graph.flag_vertex[f1], graph.flag_vertex[f2]
        style = " [color=red]" if (f1 in alt or f2 in alt) else ""
        lines.append(f"  v{u} -- v{w}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
