"""Constructors, signs and characters only the tests use.

``from_triplets`` builds a column-stored matrix from ``(r, c, v)`` entries
(the package assembles its matrices column by column and never needs it),
``make_generator`` validates a decorated tree and returns its key, and
``reference_orders`` spells out the documented reference orders of a
generator, seeded shuffle included, which the oracles align their own
orders with through ``relative_sign``.  ``trace_character`` takes the
traces of chosen degrees of a complex outside its one pass, for the chain
characters; those and the sign character are fixed points the character
tests check against, and ``cycle_type`` reads a permutation's cycle type.
"""

from __future__ import annotations

import random

from stirhom.characters import (ClassFunction, partitions,
                                representative_permutation, stirling_unsigned)
from stirhom.graphcomplex import _cycle_names
from stirhom.linalg import SparseIntMatrix
from stirhom.stirling import DomainError, _mask_set, _members, _Tree
from stirhom.trees import RootedShapes


def from_triplets(nrows, ncols, triplets):
    """The matrix summing the entries ``(r, c, v)``; a zero sum is dropped
    and an entry outside the shape raises ``ValueError``."""
    cols = [{} for _ in range(ncols)]
    for r, c, v in triplets:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r}, {c}) outside a {nrows}x{ncols} matrix")
        cols[c][r] = cols[c].get(r, 0) + v
    return SparseIntMatrix(nrows, [{r: v for r, v in col.items() if v} for col in cols])


# ---------------------------------------------------------------------------
# generators and their orders


def make_generator(n, clusters, dv, alt):
    """The key of the decorated tree given by its edge clusters, the cluster
    of its distinguished vertex (the full mask of legs 1..n for the root)
    and the far sides of its alternating flags, validated.  The tree is the
    enumerated one whose edges are those clusters; there is none when they
    are not the clusters of a stable tree on legs 1..n."""
    wanted = _mask_set(clusters)
    trees = (_Tree(n, shape)
             for shape in RootedShapes()(range(1, n + 1), wanted.bit_count()))
    tree = next((t for t in trees if t.clusters == wanted), None)
    if tree is None:
        raise DomainError("the clusters are not the edges of a stable tree "
                          f"on legs 1..{n}")
    alt = set(alt)
    if len(alt) < 2:
        raise DomainError("at least two alternating flags are required")
    if dv not in tree.inputs or not alt <= set(tree.inputs[dv]):
        raise DomainError("alternating flags must be input flags of the "
                          "distinguished vertex")
    return wanted, dv, _mask_set(alt)


def reference_orders(cx, key):
    """The edge order and alternating order of a generator of ``cx`` by the
    documented recipe: the edge names (clusters, and for a graph the cycle
    edge names too) and the alternating far sides, each sorted ascending;
    a nonzero ``cx.orient_seed`` shuffles the edges and then the far sides
    with ``random.Random(f"{orient_seed}|{code}")``."""
    if len(key) == 3:
        clusters, _dv, alt = key
        edges, alts = _members(clusters), _members(alt)
    else:
        cycle, clusters = key
        edges, alts = sorted(_cycle_names(cycle) + tuple(_members(clusters))), []
    if cx.orient_seed:
        rng = random.Random(f"{cx.orient_seed}|{cx.code(key)}")
        rng.shuffle(edges)
        rng.shuffle(alts)
    return tuple(edges), tuple(alts)


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
# characters


def cycle_type(perm):
    """Cycle type of a permutation given as an image sequence on 0..m-1."""
    m = len(perm)
    seen = [False] * m
    parts = []
    for start in range(m):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def trace_character(cx, size, perm_of, degrees, sign):
    """The class function of S_size whose value at a cycle type mu is
    ``sign`` times the sum, over ``degrees``, of (-1)^(total degree) times
    the trace of ``perm_of(mu)`` on that degree of ``cx``."""
    values = {}
    for mu in partitions(size):
        perm = perm_of(mu)
        values[mu] = sign * sum(
            (-1) ** cx.total_degree(i)
            * cx.trace(i, perm) for i in degrees)
    return ClassFunction(size, values)


def class_sign(mu):
    return (-1) ** (sum(mu) - len(mu))


def even_cycle_count_sum(n):
    """Sum of |s(n, k)| over even k; equals n!/2 for n >= 2."""
    return sum(stirling_unsigned(n, k) for k in range(2, n + 1, 2))


def sign_character(m):
    return ClassFunction(m, {mu: class_sign(mu) for mu in partitions(m)})


def chain_character(cx, i):
    """Character of the action of the n+1 leg-label symmetries on degree i
    of a Stirling complex."""
    return trace_character(cx, cx.n + 1, representative_permutation, [i],
                           (-1) ** cx.total_degree(i))


def restricted_chain_character(cx, i):
    """Character of the subgroup fixing the root label 0 on degree i."""
    return trace_character(
        cx, cx.n,
        lambda mu: (0,) + tuple(x + 1 for x in representative_permutation(mu)),
        [i], (-1) ** cx.total_degree(i))
