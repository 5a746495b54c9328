"""Homology of sparse integer chain complexes: one pipeline from the
differentials to ranks, Betti numbers and a certificate.

``compute_homology`` is the pipeline every caller uses, and
``composes_to_zero`` the only place where d^2 = 0 is tested.  When it
holds, the ranks come from ``morse_reduce``, an algebraic discrete-Morse
coreduction (Mrozek and Batko 2009; Skoldberg 2006), whose output means
nothing on matrices that do not compose to zero; when it fails, every
differential is ranked on its own by ``rank_exact``, the certificate reads
``"unverified"`` and negative Betti numbers are reported rather than
raised.

The coreduction repeatedly removes a pair of cells (s, t) with <ds, t> =
+-1 where t has no other live coface or s has no other live face.  Each
removal divides out the acyclic subcomplex spanned by s and ds; because of
the freeness condition and d^2 = 0, the quotient's differential is the
original one restricted to the remaining cells, so no entry ever changes
(no fill) and the homology is kept over the integers.  The work queue is
deterministic: every cell in order of degree, then index, followed by the
cells that become removable, first in first out.

When the restricted differential is zero, the remaining (critical) cells
are a basis of a free homology group.  Otherwise each residual degree goes
through the one elimination routine, ``_eliminate_rank``: fraction-free
over the integers, +-1 pivots first, then Markowitz order.  When every
pivot it takes is +-1, each residual differential is equivalent over Z to
an identity block plus zero, so the homology is still free and the
certificate is ``"morse-integral"``; a larger pivot (Z/2 in RP^2, say)
leaves only ranks over Q and the certificate ``"exact-rational"``.
``rank_exact`` is the same routine with only the rank kept.

``ChainComplex`` is the shared base of the Stirling and graph complexes:
lazily enumerated degrees 0..max_edges of sorted generator keys, the
position of each key, the shared assembler that turns signed contraction
and action terms into the differential, an action matrix or a trace, and
the one pass over the degrees, ``degrees()``: it releases degree i-2,
builds dim C_i and d_i and yields i, so callers do their per-degree work
(the reach check, traces) while only degrees i-1 and i are held, and at
the end computes the homology from the kept matrices alone.
A trace is the signed count of the generators a relabeling fixes, and
each relabeling stops at the first piece of the image that moves.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from .trees import sort_sign


@dataclass
class SparseIntMatrix:
    """Integer matrix stored by column (Davis 2006): ``cols[c]`` maps the
    row of each nonzero entry of column c to its value; no zero is stored."""

    nrows: int
    cols: list

    @property
    def ncols(self):
        return len(self.cols)

    def triplets(self):
        """Every entry as ``(r, c, v)``, column by column."""
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                yield r, c, v

    def nnz(self):
        return sum(map(len, self.cols))

    def is_zero(self):
        return not any(self.cols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        product = []
        for col in other.cols:
            acc = {}
            for r2, v2 in col.items():
                for r1, v1 in self.cols[r2].items():
                    acc[r1] = acc.get(r1, 0) + v1 * v2
            product.append({r: v for r, v in acc.items() if v})
        return SparseIntMatrix(self.nrows, product)

    def to_matrix_market(self):
        lines = ["%%MatrixMarket matrix coordinate integer general",
                 f"{self.nrows} {self.ncols} {self.nnz()}"]
        for r, c, v in sorted(self.triplets()):
            lines.append(f"{r + 1} {c + 1} {v}")
        return "\n".join(lines) + "\n"


def _eliminate_rank(matrix):
    """Fraction-free sparse elimination over the integers.

    Returns the rank and whether every pivot was +-1.  A pivot a_rc clears
    its column by row_j <- (a_rc/g) row_j - (a_jc/g) row_r with
    g = gcd(a_rc, a_jc), an elementary operation over Z when a_rc = +-1.
    The pivot is a +-1 entry while any is left (rows holding one come first
    in the row heap), and among the entries of the smallest row and column
    it minimizes the Markowitz fill estimate (nnz(row)-1)*(nnz(col)-1),
    which makes singleton rows and columns free and keeps fill low on the
    very sparse differentials this package produces.
    """
    rows = {}
    cols = {}
    for r, c, v in matrix.triplets():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    def row_key(row):
        return all(abs(v) != 1 for v in row.values()), len(row)

    row_heap = [(row_key(row), r) for r, row in rows.items()]
    col_heap = [(len(rs), c) for c, rs in cols.items()]
    heapq.heapify(row_heap)
    heapq.heapify(col_heap)
    rank = 0
    unit = True

    def pop_live(heap, table, key):
        while heap:
            stored, idx = heap[0]
            current = table.get(idx)
            if current is None:
                heapq.heappop(heap)
                continue
            if key(current) != stored:
                heapq.heappop(heap)
                heapq.heappush(heap, (key(current), idx))
                continue
            return stored, idx
        return None

    while True:
        # rows and cols hold the same entries, so both run out together
        row_cand = pop_live(row_heap, rows, row_key)
        if row_cand is None:
            break
        (no_unit, nr), r = row_cand
        c = min(rows[r], key=lambda cc: (abs(rows[r][cc]) != 1, len(cols[cc])))
        pivot = (no_unit, (nr - 1) * (len(cols[c]) - 1)), r, c
        nc, c2 = pop_live(col_heap, cols, len)
        r2 = min(cols[c2], key=lambda rr: (abs(rows[rr][c2]) != 1, len(rows[rr])))
        score = (abs(rows[r2][c2]) != 1, (len(rows[r2]) - 1) * (nc - 1))
        if score < pivot[0]:
            pivot = score, r2, c2
        _, r, c = pivot

        prow = rows[r]
        pval = prow[c]
        unit = unit and abs(pval) == 1
        targets = [j for j in cols[c] if j != r]
        for j in targets:
            row_j = rows[j]
            a = row_j.pop(c)
            g = math.gcd(pval, a)
            scale, factor = pval // g, a // g
            if scale < 0:
                scale, factor = -scale, -factor
            if scale != 1:
                for cc in row_j:
                    row_j[cc] *= scale
            for cc, vv in prow.items():
                if cc == c:
                    continue
                new = row_j.get(cc, 0) - factor * vv
                if new:
                    if cc not in row_j:
                        cols[cc].add(j)
                    row_j[cc] = new
                elif cc in row_j:
                    del row_j[cc]
                    cols[cc].discard(j)
            if row_j:
                heapq.heappush(row_heap, (row_key(row_j), j))
            else:
                del rows[j]
        # retire the pivot row and column
        for cc in prow:
            if cc != c:
                col = cols[cc]
                col.discard(r)
                if col:
                    heapq.heappush(col_heap, (len(col), cc))
                else:
                    del cols[cc]
        del rows[r]
        del cols[c]
        rank += 1
    return rank, unit


def rank_exact(matrix):
    """Rank over the rationals, by exact elimination over the integers."""
    return _eliminate_rank(matrix)[0]


@dataclass
class MorseReduction:
    """Outcome of ``morse_reduce``.

    ``ranks[i]`` is the rank of d_i over the rationals, ``critical[i]`` the
    number of cells left in degree i, and ``certificate`` is
    ``"morse-integral"`` when the homology is free and read off over the
    integers, else ``"exact-rational"``.
    """

    ranks: dict
    critical: dict
    certificate: str


def morse_reduce(dims, diffs):
    """Ranks of every differential of a complex by coreduction.

    ``dims`` maps each degree i to dim C_i and ``diffs`` maps i to the
    matrix of d_i: C_i -> C_{i-1} (columns are sources).  The caller must
    have verified that consecutive differentials compose to zero.  A
    residual differential left by the coreduction is eliminated by
    ``_eliminate_rank``; the certificate stays ``"morse-integral"`` when
    every residual pivot was +-1.

    Cell c of degree i has as faces the rows of column c of d_i, and as
    cofaces the columns of row c of d_{i+1}, appended in column order and so
    ascending.  A removed cell retires its faces in sorted order, so the
    queue ignores the order within a column.
    """
    cofaces = {i: [[] for _ in range(dim)] for i, dim in dims.items()}
    nfaces = {i: [0] * dim for i, dim in dims.items()}
    for i, d in diffs.items():
        row_cofaces = cofaces[i - 1]
        for c, col in enumerate(d.cols):
            nfaces[i][c] = len(col)
            for r in col:
                row_cofaces[r].append(c)
    ncofaces = {i: [len(f) for f in cells] for i, cells in cofaces.items()}
    live = {i: bytearray(b"\x01") * dim for i, dim in dims.items()}
    pairs = {i: 0 for i in diffs}
    queue = deque((i, c) for i in sorted(dims) for c in range(dims[i]))

    def unique_live(neighbours, degree):
        flags = live[degree]
        return next(x for x in neighbours if flags[x])

    def retire(i, c):
        for r in (sorted(diffs[i].cols[c]) if i in diffs else ()):
            if live[i - 1][r]:
                ncofaces[i - 1][r] -= 1
                if ncofaces[i - 1][r] == 1:
                    queue.append((i - 1, r))
        for s in cofaces[i][c]:
            if live[i + 1][s]:
                nfaces[i + 1][s] -= 1
                if nfaces[i + 1][s] == 1:
                    queue.append((i + 1, s))

    while queue:
        i, c = queue.popleft()
        if not live[i][c]:
            continue
        pair = None
        if nfaces[i][c] == 1:
            r = unique_live(diffs[i].cols[c], i - 1)
            if abs(diffs[i].cols[c][r]) == 1:
                pair = (i, c), (i - 1, r)
        if pair is None and ncofaces[i][c] == 1:
            s = unique_live(cofaces[i][c], i + 1)
            if abs(diffs[i + 1].cols[s][c]) == 1:
                pair = (i + 1, s), (i, c)
        if pair is None:
            continue
        for degree, cell in pair:
            live[degree][cell] = 0
        pairs[pair[0][0]] += 1
        for degree, cell in pair:
            retire(degree, cell)

    positions = {i: {c: pos for pos, c in enumerate(
        c for c, flag in enumerate(flags) if flag)} for i, flags in live.items()}
    critical = {i: len(pos) for i, pos in positions.items()}
    ranks = dict(pairs)
    certificate = "morse-integral"
    for i, d in diffs.items():
        rows, cols = positions[i - 1], positions[i]
        residual = SparseIntMatrix(len(rows), [
            {rows[r]: v for r, v in d.cols[c].items() if r in rows} for c in cols])
        if not residual.is_zero():
            rank, unit = _eliminate_rank(residual)
            ranks[i] += rank
            if not unit:
                certificate = "exact-rational"
    return MorseReduction(ranks, critical, certificate)


@dataclass
class BettiVector:
    """Homology ranks indexed by total degree; absent degrees are zero."""

    values: dict

    def __getitem__(self, degree):
        return self.values.get(degree, 0)

    def support(self):
        return sorted(d for d, b in self.values.items() if b)

    def euler_characteristic(self):
        return sum((-1) ** d * b for d, b in self.values.items())

    def as_dict(self):
        return dict(sorted(self.values.items()))


def betti_from_dims_and_ranks(dims, ranks, degree_of, strict=True):
    """Assemble Betti numbers from chain dimensions and differential ranks.

    ``dims`` maps the internal grading i to dim C_i, ``ranks`` maps i to
    rank(d_i: C_i -> C_{i-1}), and ``degree_of`` converts the internal
    grading to the reported total degree.  A negative value is impossible
    for an actual complex and raises when ``strict``; ``compute_homology``
    turns strictness off exactly when d^2 = 0 failed.
    """
    values = {}
    for i, dim in dims.items():
        beta = dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if beta < 0 and strict:
            raise RuntimeError(
                f"negative Betti number at grading {i}: dim={dim}, ranks="
                f"{ranks.get(i, 0)}/{ranks.get(i + 1, 0)}")
        values[degree_of(i)] = beta
    return BettiVector(values)


def composes_to_zero(diffs):
    """True when d_{i-1} d_i = 0 for every consecutive pair in ``diffs``."""
    return all((diffs[i - 1] @ diffs[i]).is_zero()
               for i in sorted(diffs) if i - 1 in diffs)


@dataclass
class Homology:
    """Outcome of ``compute_homology``: dim C_i and the rank of every d_i,
    the Betti numbers by total degree, and a certificate (that of
    ``morse_reduce``, or ``"unverified"`` when d^2 = 0 failed)."""

    dims: dict
    ranks: dict
    betti: BettiVector
    certificate: str

    @property
    def d2_ok(self):
        return self.certificate != "unverified"


def compute_homology(dims, diffs, degree_of):
    """Homology of the sequence ``diffs`` (i -> matrix of d_i) over ``dims``,
    with Betti numbers reported at total degree ``degree_of(i)``.

    d^2 = 0 is checked once; the coreduction runs only when it holds, and
    otherwise every differential is ranked whole by ``rank_exact``.
    """
    if composes_to_zero(diffs):
        reduction = morse_reduce(dims, diffs)
        ranks, certificate = reduction.ranks, reduction.certificate
    else:
        ranks = {i: rank_exact(d) for i, d in diffs.items()}
        certificate = "unverified"
    betti = betti_from_dims_and_ranks(dims, ranks, degree_of,
                                      strict=certificate != "unverified")
    return Homology(dims, ranks, betti, certificate)


class ChainComplex:
    """A complex graded by 0..max_edges whose degrees are built on demand.

    Subclasses provide ``max_edges``, ``generators(i)`` (the sorted keys of
    degree i), ``code(key)``, ``orders(key)`` (new lists of the edge names
    and alternating far sides, each sorted: the reference orders),
    ``contraction_terms(key)`` and ``action_terms(perm)``, whose function
    takes ``(key, fixed=False)`` and with ``fixed`` yields only the terms
    landing on ``key``.  A term ``(target_key, sign)`` carries its whole
    sign, read off the sorted positions.  A nonzero ``orient_seed`` shuffles
    each generator's orders, edges first, with
    ``random.Random(f"{orient_seed}|{code}")``, which flips its basis vector
    by the parity of the shuffle: every matrix becomes S D S'.
    """

    def __init__(self, orient_seed=0):
        self.orient_seed = orient_seed
        self._gens = {}
        self._rows = {}
        self._signs = {}
        self._diffs = {}
        self._homology = None
        # every per-degree cache, emptied by ``release``; subclasses add theirs
        self._caches = [self._gens, self._rows, self._signs, self._diffs]

    def total_degree(self, i):
        return i

    def rows(self, i):
        """Position of each degree-i generator, by key."""
        if i not in self._rows:
            self._rows[i] = {key: pos for pos, key in enumerate(self.generators(i))}
        return self._rows[i]

    def dim(self, i):
        return len(self.generators(i))

    def dims(self):
        return {i: self.dim(i) for i in range(self.max_edges + 1)}

    def _orientations(self, i):
        """The sign of each degree-i basis vector under ``orient_seed``."""
        if i not in self._signs:
            self._signs[i] = []
            for key in self.generators(i):
                rng = random.Random(f"{self.orient_seed}|{self.code(key)}")
                orders = self.orders(key)
                for names in orders:
                    rng.shuffle(names)
                self._signs[i].append(math.prod(map(sort_sign, orders)))
        return self._signs[i]

    def _assemble(self, i, j, terms):
        """The matrix from degree i to degree j (columns are sources) whose
        column of each degree-i generator sums ``terms(key)``, then S_j D S_i.
        Two terms share a target only for the parallel edges of a 2-cycle."""
        rows = self.rows(j)
        cols = []
        for key in self.generators(i):
            col = {}
            for target, sign in terms(key):
                row = rows[target]
                total = col.get(row, 0) + sign
                if total:
                    col[row] = total
                else:
                    del col[row]
            cols.append(col)
        if self.orient_seed:
            row_signs = self._orientations(j)
            for col, sign in zip(cols, self._orientations(i)):
                for row in col:
                    col[row] *= sign * row_signs[row]
        return SparseIntMatrix(len(rows), cols)

    def differential(self, i):
        """Matrix of d: degree i -> degree i-1, from ``contraction_terms``."""
        if i not in self._diffs:
            self._diffs[i] = self._assemble(i, i - 1, self.contraction_terms)
        return self._diffs[i]

    def action_matrix(self, i, perm):
        """Matrix of a leg relabeling on degree i, from ``action_terms``."""
        return self._assemble(i, i, self.action_terms(perm))

    def trace(self, i, perm):
        """Trace of a leg relabeling on degree i, with no matrix built: the
        signed count of the generators it fixes, each relabeling stopped at
        the first piece of the image that misses the generator's key.  The
        seeded orientations conjugate by S, which keeps the diagonal."""
        terms = self.action_terms(perm)
        return sum(sign for key in self.generators(i)
                   for _target, sign in terms(key, fixed=True))

    def differentials(self):
        return {i: self.differential(i) for i in range(1, self.max_edges + 1)}

    def euler_characteristic(self):
        """Alternating sum of chain dimensions in the edge grading."""
        return sum((-1) ** i * d for i, d in self.dims().items())

    def degrees(self):
        """The one pass over the degrees: release degree i-2, which nothing
        reads once degree i is reached, build dim C_i and d_i, and yield i,
        so the caller does its work on degree i (and i-1) in the loop body.
        The last two degrees are released too, and the homology is computed
        from the kept matrices.  Each pass builds every degree anew."""
        dims, diffs = {}, {}
        for i in range(self.max_edges + 3):
            self.release(i - 2)
            if i <= self.max_edges:
                dims[i] = self.dim(i)
                if i:
                    diffs[i] = self.differential(i)
                yield i
        self._homology = compute_homology(dims, diffs, self.total_degree)

    def release(self, i):
        """Drop the generators of degree i and what is cached on them."""
        for cache in self._caches:
            cache.pop(i, None)

    def homology(self):
        """``compute_homology`` of this complex, from one pass of
        ``degrees`` unless one has run."""
        if self._homology is None:
            for _ in self.degrees():
                pass
        return self._homology

    def betti(self):
        """Betti numbers indexed by total degree."""
        return self.homology().betti
