"""The flag-graph construction, kept as the tests' independent oracle.

A graph is a quadruple (V, F, a, iota): a finite vertex set, a finite flag
set, an attachment map a: F -> V and an involution iota: F -> F.  Orbits of
size two are edges, fixed points are legs.  Loops and parallel edges are
supported natively, which the genus-one graph complex requires.

Trees carry leg labels {0..n}, with the leg labeled 0 acting as the root;
genus-labeled graphs carry leg labels {1..m} and a genus per vertex.
Canonical codes identify objects up to label-preserving isomorphism and
induce reference edge and flag orders.  This is how the package named,
ordered and oriented its generators before it named them by their
leaf-set keys; the tests check that the key-native complexes equal the
complexes built here up to a signed generator bijection, and read the
DOT drawings back into flag graphs to compare their codes.
"""

from __future__ import annotations

import itertools
import random

from stirhom.graphcomplex import GraphError, _cycle_names
from stirhom.stirling import _members

from helpers import from_triplets, relative_sign
from shape_oracle import RootedShapes, vertices


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
    # each enumerated shape rebuilt as a nested shape of labels from its
    # leaf sets, every vertex but the root an edge
    trees = [_tree_from_shape(_shape(shape[0], [c for c, _ in vertices(shape)][1:]), n)
             for shape in RootedShapes()(range(1, n + 1), i)]
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


# ---------------------------------------------------------------------------
# genus-one graphs: representatives of keys, contraction, the flag complex


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
        asm.add_edge(vertex, cid, _leaves(child))
        _hang(asm, child, cid)


def _leaves(shape):
    """The leaf set of a nested shape of labels, as a bitmask."""
    legs, children = shape
    return sum(1 << lab for lab in legs) + sum(map(_leaves, children))


def _shape(leaves, clusters):
    """The rooted shape hung from a vertex with leaf set ``leaves``: the
    largest of ``clusters`` within it sit below its edges."""
    inside = [c for c in clusters if c & leaves == c]
    kids = [c for c in inside if not any(c != d and c & d == c for d in inside)]
    below = [c for c in inside if c not in kids]
    rest = leaves
    for c in kids:
        rest ^= c
    legs = tuple(j for j in range(rest.bit_length()) if rest >> j & 1)
    return legs, tuple(sorted(_shape(c, below) for c in kids))


def representative(m, key):
    """The flag graph of a genus-one key and the names of its edges in flag
    order: cycle edges first, then the trees hung in shape order."""
    cycle, clusters = key
    clusters = _members(clusters)
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


def contract_modular(mg, edge):
    """Contract an edge (or loop) of a genus-labeled graph.

    Returns ``(result, flag_map)``; a loop raises the genus of its vertex.
    """
    graph = mg.graph
    f1, f2 = edge
    if not graph.is_edge(edge):
        raise GraphError(f"{edge} is not an edge of this graph")
    keep, drop = sorted((graph.flag_vertex[f1], graph.flag_vertex[f2]))
    survivors = [f for f in range(graph.num_flags) if f not in edge]
    flag_map = [None] * graph.num_flags
    for new, old in enumerate(survivors):
        flag_map[old] = new
    genus = list(mg.genus)
    if keep == drop:
        genus[keep] += 1
        vertex_map = list(range(graph.num_vertices))
    else:
        genus[keep] += genus.pop(drop)
        vertex_map = [v - (1 if v > drop else 0) for v in range(graph.num_vertices)]
        vertex_map[drop] = keep
    result = Graph(len(genus), [vertex_map[graph.flag_vertex[f]] for f in survivors],
                   [flag_map[graph.involution[f]] for f in survivors],
                   {lab: flag_map[f] for lab, f in graph.legs.items()}, check=False)
    return ModularGraph(result, genus), flag_map


def has_parallel_edges(mg):
    """Whether two edges join the same two vertices (or a loop is doubled)."""
    g = mg.graph
    pairs = [tuple(sorted((g.flag_vertex[f1], g.flag_vertex[f2])))
             for f1, f2 in g.edges]
    return len(set(pairs)) != len(pairs)


class FlagGenerator:
    """A genus-one class as the flag construction names it."""

    __slots__ = ("key", "mgraph", "names", "code", "edge_order")

    def __init__(self, m, key, orient_seed):
        self.key = key
        self.mgraph, self.names = representative(m, key)
        self.code, self.edge_order = canonical_modular_data(self.mgraph, orient_seed)

    def name_order(self):
        """The reference edge order as edge names; edge k of the
        representative is the flag pair (m + 2k, m + 2k + 1)."""
        m = self.mgraph.m
        return tuple(self.names[(f - m) // 2] for f, _mate in self.edge_order)


class FlagGraphComplex:
    """The genus-one graph complex built the flag way.

    The classes are the representatives of the given keys, named, sorted and
    oriented by ``canonical_modular_data``; a class with parallel edges is
    killed when the orientation kill is on.  Differential terms contract the
    flag graph and find their row by canonical code, action terms relabel
    the legs and do the same.
    """

    def __init__(self, m, keys_by_degree, orientation_kill=True, orient_seed=0):
        self.m = m
        self.orientation_kill = orientation_kill
        self.orient_seed = orient_seed
        self.gens = {}
        self.index = {}
        for i, keys in keys_by_degree.items():
            gens = [FlagGenerator(m, key, orient_seed) for key in keys]
            if orientation_kill:
                gens = [g for g in gens if not has_parallel_edges(g.mgraph)]
            gens.sort(key=lambda g: g.code)
            self.gens[i] = gens
            self.index[i] = {g.code: pos for pos, g in enumerate(gens)}
            assert len(self.index[i]) == len(gens), "two keys name one class"

    def differential(self, i):
        triplets = []
        for col, gen in enumerate(self.gens[i]):
            order = gen.edge_order
            for pos, edge in enumerate(order):
                move_sign = -1 if (len(order) - 1 - pos) % 2 else 1
                target, flag_map = contract_modular(gen.mgraph, edge)
                if self.orientation_kill and has_parallel_edges(target):
                    continue
                code, ceo = canonical_modular_data(target, self.orient_seed)
                surviving = [tuple(sorted((flag_map[a], flag_map[b])))
                             for a, b in order if (a, b) != edge]
                triplets.append((self.index[i - 1][code], col,
                                 move_sign * relative_sign(surviving, ceo)))
        return from_triplets(
            len(self.gens[i - 1]), len(self.gens[i]), triplets)

    def action_matrix(self, i, perm):
        """``perm[j]`` is the image of leg j, a dict on 1..m."""
        triplets = []
        for col, gen in enumerate(self.gens[i]):
            graph = gen.mgraph.graph
            relabeled = ModularGraph(
                graph.with_legs({perm[lab]: f for lab, f in graph.legs.items()}),
                gen.mgraph.genus, check=False)
            code, ceo = canonical_modular_data(relabeled, self.orient_seed)
            triplets.append((self.index[i][code], col,
                             relative_sign(gen.edge_order, ceo)))
        return from_triplets(
            len(self.gens[i]), len(self.gens[i]), triplets)


# ---------------------------------------------------------------------------
# reading DOT drawings back


def parse_dot(text):
    """The drawings of a DOT file as ``(name, graph, dv, alt)``.

    Legs get the flags 0.. in label order, edges follow in drawing order.
    ``graph`` is a ``Tree`` when a leg 0 is drawn and a ``ModularGraph``
    (genus read from the vertex labels) otherwise; ``dv`` is the red vertex
    and ``alt`` the flags of red lines at it.
    """
    drawings = []
    for chunk in text.strip().split("\n\n"):
        lines = [line.strip().rstrip(";") for line in chunk.splitlines()]
        name = lines[0].split()[1]
        genus, legs, edges, red_legs, red_edges = {}, {}, [], set(), set()
        dv = None
        for line in lines[2:-1]:
            head, _sep, attrs = line.partition(" [")
            red = "color=red" in attrs
            if " -- " not in head:
                if head.startswith("v"):
                    label = attrs.split('label="')[1].split('"')[0]
                    genus[int(head[1:])] = int(label[2:]) if label else 0
                    if red:
                        dv = int(head[1:])
                continue
            u, w = head.split(" -- ")
            if w.startswith("leg"):
                legs[int(w[3:])] = int(u[1:])
                if red:
                    red_legs.add(int(w[3:]))
            else:
                if red:
                    red_edges.add(len(edges))
                edges.append((int(u[1:]), int(w[1:])))
        labels = sorted(legs)
        flag_vertex = [legs[lab] for lab in labels]
        involution = list(range(len(labels)))
        alt = [labels.index(lab) for lab in red_legs]
        for pos, (u, w) in enumerate(edges):
            a = len(flag_vertex)
            flag_vertex.extend((u, w))
            involution.extend((a + 1, a))
            if pos in red_edges:
                alt.append(a if u == dv else a + 1)
        graph = Graph(len(genus), flag_vertex, involution,
                      {lab: pos for pos, lab in enumerate(labels)})
        if 0 in legs:
            drawings.append((name, Tree(graph), dv, alt))
        else:
            mg = ModularGraph(graph, [genus[v] for v in range(len(genus))])
            drawings.append((name, mg, None, ()))
    return drawings


def dot_code(drawing):
    """The canonical code of a parsed drawing, decorations included."""
    _name, graph, dv, alt = drawing
    if isinstance(graph, Tree):
        return canonical_tree_data(graph, dv, alt)[0]
    return canonical_modular_data(graph)[0]
