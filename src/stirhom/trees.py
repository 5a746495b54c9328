"""Laminar families, mask-sets and sort signs, shared by both complexes.

A stable tree on labelled legs is exactly its laminar family of clusters,
the leaf sets below its edges (Buneman; Semple and Steel, *Phylogenetics*,
2003).  Leaf sets are int bitmasks, bit j for leg j.  Two clusters are
compatible when they are nested or disjoint, and a family of pairwise
compatible clusters is written as a mask-set, an int with bit m set for
each member mask m: the ``clusters`` of a key.  Each complex says which
clusters it allows and reads everything else off the family.  A leg
relabeling moves every mask bit by bit (``_bit_images`` tables the image of
each mask), hence clusters to clusters, and keeps compatibility, so the
families it maps onto themselves are the unions of its orbits on the
clusters; the traces enumerate those alone, orbit by orbit.  The one
family search, ``LaminarSearch``, is set up once for a pool of clusters
and a relabeling, with no size: its orbits and their compatibility
masks.  A pass keeps the set-ups it reads more than one degree off: the
Stirling walk's and each relabeling's per pool.  Every reference order
is sorted, so a sign is the parity of sorting the names a term leaves.
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
# mask-sets and enumeration


def _mask_set(masks):
    """A set of masks as one int, bit m set for each member m."""
    total = 0
    for m in masks:
        total |= 1 << m
    return total


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


def _bit_images(perm):
    """The image of every mask over bits 0..len(perm)-1 when bit j goes to
    bit perm[j]."""
    image = [0] * (1 << len(perm))
    for m in range(1, len(image)):
        low = m & -m
        image[m] = image[m ^ low] | 1 << perm[low.bit_length() - 1]
    return image


class LaminarSearch:
    """The search for the families of pairwise compatible members of
    ``masks`` (distinct leaf-set bitmasks), set up once for every size.

    ``move`` is a bijection of ``masks`` (a dict, or a list indexed by
    mask) that preserves compatibility: the image of the clusters under a
    relabeling.  Given it, only the families it maps onto themselves come
    out, and these are the unions of its orbits whose members are pairwise
    compatible.  The set-up depends on no size: the orbits, ascending by
    least member, and per orbit its members, their number, and the members
    of the orbits below it compatible with all of them.  A move that
    preserves compatibility maps the clusters compatible with an orbit onto
    themselves, so they are whole orbits.  ``families`` reads the
    families of one size off the set-up.
    """

    __slots__ = ("count", "below", "leaders", "lower")

    def __init__(self, masks, move=None):
        self.count = len(masks)
        # the orbits whose members are pairwise compatible, ascending by
        # least member, and the compatible members of each one's members
        # among them
        orbits, seen = [], 0
        for a in sorted(masks):
            if not seen >> a & 1:
                orbit, b = [a], a if move is None else move[a]
                while b != a:
                    orbit.append(b)
                    b = move[b]
                seen |= _mask_set(orbit)
                if all(x & y in (0, x, y) for x, y in itertools.combinations(orbit, 2)):
                    orbits.append(orbit)
        kept = [a for orbit in orbits for a in orbit]
        compatible = {a: _mask_set(b for b in kept if a & b in (0, a, b)) for a in kept}
        self.below, self.leaders, lower = {}, 0, 0
        for orbit in orbits:
            members, common = _mask_set(orbit), lower
            for a in orbit:
                common &= compatible[a]
            self.below[orbit[0]] = members, len(orbit), common
            self.leaders |= 1 << orbit[0]
            lower |= members
        self.lower = lower

    def families(self, size):
        """Every family of ``size`` members, each once, as a mask-set; none
        when ``size`` is negative.  Without a move the families come in
        ascending order of the mask-sets.

        The depth-first search runs over whole orbits; without a move each
        orbit is one mask.  Mask-sets compare by their largest member first
        (colex order), so the search chooses the orbit with the largest
        least member first, trying candidates in ascending order, then the
        rest of the family among the orbits with a smaller least member
        that are compatible with every member chosen so far, kept as a
        mask-set.  The search keeps its partial families on an explicit
        stack of frames, not in nested generators, so a family comes out
        of one loop instead of up a chain of suspended calls, and an orbit
        that completes the family is yielded without a frame of its own.
        """
        if not 0 < size <= self.count:
            if size == 0:
                yield 0
            return
        below, leaders, lower = self.below, self.leaders, self.lower
        # a frame is a partial family, the members still allowed, the number
        # left to choose and the candidate orbits not yet tried; descending
        # pushes the parent's frame and goes on with the child's
        stack = []
        family, allowed, left, rest = 0, lower, size, lower & leaders
        while True:
            while rest:
                top = rest & -rest
                rest ^= top
                members, count, common = below[top.bit_length() - 1]
                if count == left:
                    yield family | members
                elif count < left:
                    common &= allowed
                    if common.bit_count() >= left - count:
                        stack.append((family, allowed, left, rest))
                        family, allowed, left = family | members, common, left - count
                        rest = common & leaders
            if not stack:
                return
            family, allowed, left, rest = stack.pop()

