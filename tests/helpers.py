"""Constructors and characters only the tests use.

``from_triplets`` builds a column-stored matrix from ``(r, c, v)`` entries
(the package assembles its matrices column by column and never needs it),
and the three characters are fixed points the character tests check
``stirhom.characters.trace_character`` against.
"""

from __future__ import annotations

from stirhom.characters import (ClassFunction, class_sign, partitions,
                                representative_permutation, trace_character)
from stirhom.linalg import SparseIntMatrix


def from_triplets(nrows, ncols, triplets):
    """The matrix summing the entries ``(r, c, v)``; a zero sum is dropped
    and an entry outside the shape raises ``ValueError``."""
    cols = [{} for _ in range(ncols)]
    for r, c, v in triplets:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r}, {c}) outside a {nrows}x{ncols} matrix")
        cols[c][r] = cols[c].get(r, 0) + v
    return SparseIntMatrix(nrows, [{r: v for r, v in col.items() if v} for col in cols])


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
