"""Rooted-shape enumeration and the sign of sorting, shared by both complexes.

A rooted shape is an isomorphism class of rooted trees over a fixed set of
leaf labels, written ``(leaves, legs, children)``: its leaf-set bitmask
(bit j for leg j), the bits ``1 << j`` of the legs at the root ascending,
and the memoised, shared shapes hanging below it, sorted.  ``vertices``
walks a shape root first, giving each vertex's leaf set and the far sides
of its inputs; ``stirling`` builds its trees from that walk, while
``graphcomplex`` reads only the leaf sets.  Every reference order is
sorted, so a sign is the parity of sorting the names a term leaves.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# sign of sorting


def sort_sign(names):
    """Sign of the permutation that sorts the distinct ``names`` ascending,
    the parity of the pairs out of order."""
    inversions = 0
    for pos, a in enumerate(names):
        for b in names[pos + 1:]:
            inversions += a > b
    return -1 if inversions & 1 else 1


# ---------------------------------------------------------------------------
# enumeration of rooted shapes


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


class RootedShapes:
    """The rooted shapes over a leaf-label set, memoised per instance.

    Each complex owns one instance, so the memo, which the recursion fills
    with the shapes of every sub-label-set, is freed with the complex.
    """

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
