"""Constructors, signs and characters only the tests use.

The package keeps one matrix form, one list of rows cut into columns by
their offsets, with each column's positive entries counted, and compares
products column by column with no product built.  The dict forms are the
oracles for it: ``from_cols`` builds a matrix from one row -> value dict
per column and ``cols`` reads them back, ``from_triplets`` builds one from
``(r, c, v)`` entries, ``product`` sums each column of a product entry by
entry in a dict, ``same`` compares two matrices entry by entry, and
``d_squared_oracle`` reads d^2 = 0 off ``product``; ``morse_reduce`` feeds
a dict of whole differentials to the package's step reducer.
``make_generator`` validates a decorated tree and returns its key,
``in_acyclic_part`` and ``reach`` read a Stirling key's reach verdict one
key at a time (the package scores whole vertices on its walk),
``reference_orders`` spells out the documented reference orders of a
generator, which the oracles align their own orders with through
``relative_sign``, and ``transport`` moves a matrix along signed generator
bijections.  The package has one orientation per generator; another one,
the reference orders shuffled by a seed as the oracles shuffle theirs, is
the diagonal change of basis ``orientation_signs``, so the tests check
orientation independence by conjugating: ``reoriented_homology`` is the
homology of every S D S'.  ``laminar_families`` runs a fresh search,
set up for one size alone, and ``stirling_key_terms`` computes one
Stirling key's contraction terms on its own: the oracles for the search
set-ups a pass shares and for the columns it builds a tree at a time.
``signed`` reads a column ``(plus, minus)`` back as ``(target, sign)``
terms, the form the per-key oracles give.  ``trace_character`` takes the
traces of chosen degrees of a complex outside its one pass, for the chain
characters; those and the sign character are fixed points the character
tests check against, and ``cycle_type`` reads a permutation's cycle type.
"""

from __future__ import annotations

import random
from array import array

from stirhom.characters import (ClassFunction, partitions,
                                representative_permutation, stirling_unsigned)
from stirhom.graphcomplex import _cycle_names
from stirhom.linalg import Coreduction, SparseIntMatrix
from stirhom.stirling import DomainError, _mask_set, _members
from stirhom.trees import LaminarSearch

from shape_oracle import stable_tree_inputs


def from_cols(nrows, columns):
    """The matrix with one row -> value dict per column; a zero value is
    stored as no entry.  Each column's run of rows holds the rows of its
    positive entries, then those of its negative ones, each repeated |v|
    times."""
    rows, offsets = [], array("I", [0])
    for col in columns:
        rows += [r for sign in (1, -1) for r, v in col.items() if v * sign > 0
                 for _ in range(abs(v))]
        offsets.append(len(rows))
    split = array("I", [sum(v for v in col.values() if v > 0) for col in columns])
    return SparseIntMatrix(nrows, rows, offsets, split)


def cols(matrix):
    """One row -> value dict per column, read through ``columns``, the
    positive entries first: the first ``split[c]`` rows of column c count
    +1 each, the rest -1."""
    result = []
    for rows, cut in zip(matrix.columns(), matrix.split):
        col = {}
        for place, r in enumerate(rows):
            col[r] = col.get(r, 0) + (1 if place < cut else -1)
        result.append(col)
    return result


def from_triplets(nrows, ncols, triplets):
    """The matrix summing the entries ``(r, c, v)``; a zero sum is dropped
    and an entry outside the shape raises ``ValueError``."""
    summed = [{} for _ in range(ncols)]
    for r, c, v in triplets:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r}, {c}) outside a {nrows}x{ncols} matrix")
        summed[c][r] = summed[c].get(r, 0) + v
    return from_cols(nrows, summed)


def product(a, b):
    """``a b``, each column summed entry by entry in a dict over the dict
    columns."""
    if a.ncols != b.nrows:
        raise ValueError("matrix dimensions do not match")
    a_cols = cols(a)
    result = []
    for col in cols(b):
        acc = {}
        for k, w in col.items():
            for r, v in a_cols[k].items():
                acc[r] = acc.get(r, 0) + v * w
        result.append(acc)
    return from_cols(a.nrows, result)


def same(a, b):
    """True when two matrices have the same shape and entries."""
    return ((a.nrows, a.ncols) == (b.nrows, b.ncols)
            and sorted(a.triplets()) == sorted(b.triplets()))


def is_zero(matrix):
    return not any(matrix.columns())


def d_squared_oracle(lower, upper):
    """True when ``lower upper`` = 0, read off the dict-summed ``product``."""
    return is_zero(product(lower, upper))


def morse_reduce(dims, diffs):
    """The finished ``Coreduction`` of ``diffs`` (i -> matrix of d_i:
    C_i -> C_{i-1}, columns are sources) over ``dims`` (i -> dim C_i)."""
    reduction = Coreduction()
    for i in sorted(dims):
        reduction.step(i, dims[i], diffs.get(i))
    return reduction.finish()


# ---------------------------------------------------------------------------
# generators and their orders


def make_generator(n, clusters, dv, alt):
    """The key of the decorated tree given by its edge clusters, the cluster
    of its distinguished vertex (the full mask of legs 1..n for the root)
    and the far sides of its alternating flags, validated.  The tree is the
    enumerated one whose edges are those clusters; there is none when they
    are not the clusters of a stable tree on legs 1..n."""
    wanted = _mask_set(clusters)
    full = (1 << n + 1) - 2
    inputs = next((t for t in stable_tree_inputs(n, wanted.bit_count())
                   if _mask_set(d for d in t if d != full) == wanted), None)
    if inputs is None:
        raise DomainError("the clusters are not the edges of a stable tree "
                          f"on legs 1..{n}")
    alt = set(alt)
    if len(alt) < 2:
        raise DomainError("at least two alternating flags are required")
    if dv not in inputs or not alt <= set(inputs[dv]):
        raise DomainError("alternating flags must be input flags of the "
                          "distinguished vertex")
    return wanted, dv, _mask_set(alt)


def in_acyclic_part(cx, key):
    """Membership of a Stirling key in the acyclic subcomplex: the
    distinguished vertex has valence above k+1, or it is not the root
    vertex."""
    return cx.vertex_reach(cx.tree(key[0]), key[1]) is not None


def reach(cx, key):
    """The reach of a Stirling key in the acyclic subcomplex."""
    score = cx.vertex_reach(cx.tree(key[0]), key[1])
    if score is None:
        raise DomainError("generator lies outside the acyclic subcomplex")
    return score


def reference_orders(cx, key, seed=0):
    """The edge order and alternating order of a generator of ``cx`` by the
    documented recipe: the edge names (clusters, and for a graph the cycle
    edge names too) and the alternating far sides, each sorted ascending;
    a nonzero ``seed`` shuffles the edges and then the far sides with
    ``random.Random(f"{seed}|{code}")``, as the oracles' ``orient_seed``
    shuffles theirs."""
    if len(key) == 3:
        clusters, _dv, alt = key
        edges, alts = _members(clusters), _members(alt)
    else:
        cycle, clusters = key
        edges, alts = sorted(_cycle_names(cycle) + tuple(_members(clusters))), []
    if seed:
        rng = random.Random(f"{seed}|{cx.code(key)}")
        rng.shuffle(edges)
        rng.shuffle(alts)
    return tuple(edges), tuple(alts)


def orientation_signs(cx, i, seed):
    """S_i as a signed bijection: each degree-i generator keeps its row and
    takes the sign between its reference orders and those ``seed`` shuffles,
    so ``transport(d, S_(i-1), S_i)`` is d_i in the reoriented basis."""
    signs = []
    for pos, key in enumerate(cx.generators(i)):
        (edges, alts), (new_edges, new_alts) = (
            reference_orders(cx, key), reference_orders(cx, key, seed))
        signs.append((pos, relative_sign(edges, new_edges)
                      * relative_sign(alts, new_alts)))
    return signs


def reoriented_homology(cx, seed):
    """The homology of every differential of ``cx`` conjugated by
    the orientation ``seed`` gives its generators."""
    signs = {i: orientation_signs(cx, i, seed) for i in range(cx.max_edges + 1)}
    diffs = {i: transport(d, signs[i - 1], signs[i])
             for i, d in cx.differentials().items()}
    dims = cx.dims()
    return morse_reduce(dims, diffs).homology(dims, cx.total_degree)


def transport(matrix, p_rows, p_cols):
    """P_rows M P_cols^-1, the signed bijections given as ``(row, sign)``
    lists; a signed permutation matrix is inverted by its transpose."""
    return from_triplets(
        len(p_rows), len(p_cols),
        [(p_rows[r][0], p_cols[c][0], p_rows[r][1] * v * p_cols[c][1])
         for r, c, v in matrix.triplets()])


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


def laminar_families(masks, size, move=None):
    """The families of ``size`` members of ``masks`` that a fresh
    ``LaminarSearch`` gives: one search, set up for this size alone."""
    return LaminarSearch(masks, move).families(size)


def stirling_key_terms(cx, key):
    """The contraction terms of one Stirling key, edge by edge on its
    tree's view, each sign read off the edge's place and, for a trade,
    the alternating far sides strictly between the input and the edge."""
    clusters, dv, alt = key
    tree = cx.tree(clusters)
    last = len(tree.edges) - 1
    terms = []
    for pos, c in enumerate(tree.edges):
        sign = -1 if (last - pos) % 2 else 1
        rest = clusters ^ 1 << c
        new_dv = tree.up[c] if c == dv else dv
        if not alt >> c & 1:
            terms.append(((rest, new_dv, alt), sign))
            continue
        others = alt ^ 1 << c
        for b in tree.inputs[c]:
            passed = sum(1 for a in _members(others) if b < a < c)
            terms.append(((rest, new_dv, others | 1 << b), -sign if passed % 2 else sign))
    return terms


def signed(plus, minus):
    """The ``(target, sign)`` terms of a column's two sides, the positive
    ones first."""
    return [(target, 1) for target in plus] + [(target, -1) for target in minus]
