"""Rooted-shape enumeration, kept as the tests' independent oracle for the
generator keys.

A rooted shape is an isomorphism class of rooted trees over a fixed set of
leaf labels, written ``(leaves, legs, children)``: its leaf-set bitmask
(bit j for leg j), the bits ``1 << j`` of the legs at the root ascending,
and the memoised, shared shapes hanging below it, sorted.  This is how the
package enumerated its trees before it enumerated laminar families of
clusters: a shape is built by splitting its labels into the legs at the
root and the blocks of the subtrees, and allocating the edges among them.
``stirling_keys`` and ``graph_keys`` build the keys of a degree from the
shapes, which the tests compare with ``generators(i)``.

The oracle owns its enumerators: the set partitions into blocks, here on
frozensets of labels, and the cycles of each partition's blocks with its
own direction rule.  From ``stirhom`` it takes only ``GraphComplex``,
``StirlingComplex`` and ``_mask_set``.

``python tests/shape_oracle.py N`` compares every degree of every type
(N, k) and of GC(N) with the orientation kill on and off, and exits
non-zero on the first complex whose keys differ.
"""

from __future__ import annotations

import itertools
import sys

from stirhom.graphcomplex import GraphComplex
from stirhom.stirling import StirlingComplex, _mask_set


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


def block_cycles(labels, c):
    """Each partition of ``labels`` into c blocks, with every cycle of its
    blocks: the first block first, then the others in each order whose
    first block's least label is not above its last's, so each cycle is
    read in one direction."""
    for blocks in _partitions_into_blocks(labels, c, 1):
        first, rest = blocks[0], blocks[1:]
        yield blocks, [(first,) + arrangement
                       for arrangement in itertools.permutations(rest)
                       if not arrangement or min(arrangement[0]) <= min(arrangement[-1])]


def _compositions(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    first_cap = min(caps[0], total)
    for head in range(first_cap + 1):
        for tail in _compositions(total - head, caps[1:]):
            yield (head,) + tail


class RootedShapes:
    """The rooted shapes over a leaf-label set, memoised per instance."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo = {}

    def __call__(self, labels, num_edges, min_inputs=2):
        """The shapes over ``labels`` with ``num_edges`` edges.

        Every non-root vertex has at least two inputs; the root has at
        least ``min_inputs``.
        """
        labels_t = tuple(sorted(labels))
        memo_key = (labels_t, num_edges, min_inputs)
        if memo_key not in self._memo:
            self._memo[memo_key] = self._shapes(labels_t, num_edges, min_inputs)
        return self._memo[memo_key]

    def _shapes(self, labels_t, num_edges, min_inputs):
        leaves = sum(1 << x for x in labels_t)
        out = []
        for r in range(0, min(num_edges, len(labels_t) // 2) + 1):
            inner = num_edges - r
            for support_size in range(2 * r, len(labels_t) + 1):
                if len(labels_t) - support_size + r < min_inputs:
                    continue
                for support in itertools.combinations(labels_t, support_size):
                    legs = tuple(1 << x for x in labels_t if x not in support)
                    for blocks in _partitions_into_blocks(support, r, 2):
                        caps = [len(b) - 2 for b in blocks]
                        for alloc in _compositions(inner, caps):
                            pools = [self(b, e) for b, e in zip(blocks, alloc)]
                            for combo in itertools.product(*pools):
                                out.append((leaves, legs, tuple(sorted(combo))))
        return tuple(out)


def vertices(shape):
    """Each vertex of a shape, root first, as ``(leaves, inputs)``: its leaf
    set and the far sides of its input flags, ascending."""
    stack = [shape]
    while stack:
        leaves, legs, children = stack.pop()
        yield leaves, tuple(sorted(legs + tuple([c[0] for c in children])))
        stack += children


def stable_tree_inputs(n, i):
    """The stable trees on legs 1..n with i edges, each as the input far
    sides of its vertices by vertex leaf set, the root's the full mask."""
    return [dict(vertices(shape)) for shape in RootedShapes()(range(1, n + 1), i)]


def stirling_keys(n, k, i):
    """The sorted keys of degree i of type (n, k), built from the shapes."""
    full = (1 << n + 1) - 2
    return sorted((_mask_set(d for d in inputs if d != full), dv, _mask_set(alt))
                  for inputs in stable_tree_inputs(n, i)
                  for dv, sides in inputs.items()
                  for alt in itertools.combinations(sides, k))


def graph_keys(m, i, orientation_kill=True):
    """The sorted genus-one keys with m legs and i edges, built from the
    shapes hung from each vertex; the classes with a 2-cycle are left out
    under the orientation kill."""
    shapes = RootedShapes()
    labels = tuple(range(1, m + 1))

    def below(shape):
        # the leaf set of every vertex below the root, as a mask-set
        found = 0
        for child in shape[2]:
            found |= 1 << child[0] | below(child)
        return found

    def hung(block, e):
        # the clusters of each shape hung from a vertex: every vertex below
        # its root, even a single child with the root's leaf set
        return [below(s) for s in shapes(block, e, min_inputs=1)]

    keys = [((), clusters) for clusters in hung(labels, i)]
    for c in range(1, min(i, m) + 1):
        if orientation_kill and c == 2:
            continue
        for _blocks, cycles in block_cycles(labels, c):
            for ordered in cycles:
                cycle = tuple(sum(1 << j for j in b) for b in ordered)
                caps = [len(b) - 1 for b in ordered]
                for alloc in _compositions(i - c, caps):
                    pools = [hung(b, e) for b, e in zip(ordered, alloc)]
                    # clusters in different blocks differ, so the sets add
                    keys += [(cycle, sum(combo)) for combo in itertools.product(*pools)]
    return sorted(keys)


def oracle_keys(cx, i):
    """The keys the shapes give for degree i of the complex ``cx``."""
    if isinstance(cx, StirlingComplex):
        return stirling_keys(cx.n, cx.k, i)
    return graph_keys(cx.m, i, cx.orientation_kill)


def main(size):
    complexes = ([(f"({size}, {k})", StirlingComplex(size, k)) for k in range(2, size + 1)]
                 + [(f"GC({size}) kill {'on' if kill else 'off'}", GraphComplex(size, kill))
                    for kill in (True, False)])
    for name, cx in complexes:
        for i in range(-1, cx.max_edges + 1):
            if cx.generators(i) != oracle_keys(cx, i):
                sys.exit(f"{name}: the keys of degree {i} differ from the shape oracle")
            cx.release(i)
        print(f"{name}: every degree equals the shape oracle")


if __name__ == "__main__":
    main(int(sys.argv[1]))
