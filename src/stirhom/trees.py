"""Laminar-family enumeration and the sign of sorting, shared by both complexes.

A stable tree on labelled legs is exactly its laminar family of clusters,
the leaf sets below its edges (Buneman; Semple and Steel, *Phylogenetics*,
2003).  Leaf sets are int bitmasks, bit j for leg j.  Two clusters are
compatible when they are nested or disjoint, and a family of pairwise
compatible clusters is written as a mask-set, an int with bit m set for
each member mask m: the ``clusters`` of a key.  Each complex says which
clusters it allows and reads everything else off the family.  Every
reference order is sorted, so a sign is the parity of sorting the names a
term leaves.
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
# enumeration


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


def laminar_families(masks, size):
    """Every family of ``size`` pairwise compatible members of ``masks``
    (distinct leaf-set bitmasks), each once, as a mask-set, in ascending
    order of the mask-sets; none when ``size`` is negative.

    Mask-sets compare by their largest member first (colex order), so a
    depth-first search chooses the largest member first, trying candidates
    in ascending order, then the rest of the family among the members below
    it that are compatible with every one chosen so far, kept as a mask-set.
    """
    if size < 0:
        return
    compatible = {a: sum(1 << b for b in masks if a & b in (0, a, b)) for a in masks}

    def extend(family, allowed, left):
        if not left:
            yield family
            return
        rest = allowed
        while rest:
            top = rest & -rest
            rest ^= top
            below = allowed & top - 1 & compatible[top.bit_length() - 1]
            if below.bit_count() >= left - 1:
                yield from extend(family | top, below, left - 1)

    yield from extend(0, sum(1 << a for a in masks), size)
