"""Homology of sparse integer chain complexes: one pipeline from the
differentials to ranks, Betti numbers and a certificate.

The pipeline is the step reducer ``Coreduction``, fed one degree at a time
by ``ChainComplex.degrees()`` as the pass builds each differential, or by
``morse_reduce`` and ``compute_homology`` from a dict.  Step i tests
d_{i-1} d_i = 0 with ``composes_to_zero``, the only place d^2 = 0 is
tested.  While it holds, the step pairs each degree-i cell c that has
exactly one live face r, when <dc, r> = +-1: the face side of the
coreduction of Mrozek and Batko (2009; Skoldberg 2006), over d_i alone.
A pair divides out the acyclic subcomplex spanned by c and dc; the
quotient's differential is the original one restricted to the remaining
cells, so no entry changes (no fill) and the homology is kept over Z.

No later step touches degree i-1, so after step i its live (critical) cells
are final: the residual of d_{i-1} on them is ranked and d_{i-1} dropped.
Once its check passes, step i restricts d_{i-1} in place to the live cells
of degree i-2, the only rows the residual reads, one column at a time.
With d^2 = 0 through d_{i-1} d_i, rank d_{i-1} is fixed by the dimensions
and the homology below, which the quotients keep, so it is the pairs of
step i-1 plus the residual's rank.  A residual goes through the one
elimination routine, ``_eliminate_rank``: fraction-free over Z, +-1 pivots
first, then Markowitz order.  When every pivot is +-1 the residual is an
identity block plus zero over Z, so the homology is free and the
certificate is ``"morse-integral"``; a larger pivot (Z/2 in RP^2, say)
leaves ranks over Q and ``"exact-rational"``.  ``rank_exact`` is the same
routine with only the rank kept.  When the check of step i fails, d_{i-1}
and every later differential are ranked whole by ``rank_exact``, the
certificate reads ``"unverified"``, and negative Betti numbers are
reported rather than raised.

``ChainComplex`` is the shared base of the Stirling and graph complexes:
lazily enumerated degrees 0..max_edges of sorted generator keys, each
degree read off its subclass's walk, the position of each key, the shared
assembler that turns signed contraction and action terms into the
differential, an action matrix or a trace, and the one pass over the
degrees, ``degrees()``: it releases degree i-2, builds d_i on the walk of
degree i, whose keys it keeps, then dim C_i, drops the row table of degree
i-1, takes the reduction step and yields i, so callers do their per-degree
work (the reach check, traces) while only degrees i-1 and i are held.  A
trace is the signed count of the generators a relabeling fixes; each
relabeling stops at the first piece of the image that moves, and relabels
a piece many keys share (a cycle, a tree) once.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass


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

    def _times_column(self, col):
        """This matrix times the sparse column ``col``, zero sums kept."""
        acc = {}
        for r2, v2 in col.items():
            for r1, v1 in self.cols[r2].items():
                acc[r1] = acc.get(r1, 0) + v1 * v2
        return acc

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        return SparseIntMatrix(self.nrows, [
            {r: v for r, v in self._times_column(col).items() if v}
            for col in other.cols])

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


def composes_to_zero(lower, upper):
    """True when ``lower @ upper`` = 0, tested one column of ``upper`` at a
    time: the product is never built, and the test stops at the first
    column it does not kill."""
    if lower.ncols != upper.nrows:
        raise ValueError("matrix dimensions do not match")
    return not any(any(lower._times_column(col).values()) for col in upper.cols)


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
    for an actual complex and raises when ``strict``; the reduction turns
    strictness off exactly when d^2 = 0 failed.
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


@dataclass
class Homology:
    """Outcome of a ``Coreduction``: dim C_i and the rank of every d_i, the
    Betti numbers by total degree, and the certificate."""

    dims: dict
    ranks: dict
    betti: BettiVector
    certificate: str

    @property
    def d2_ok(self):
        return self.certificate != "unverified"


class Coreduction:
    """The step reducer, fed the degrees in order by ``step``.

    ``ranks[i]`` is the rank of d_i over Q, ``critical[i]`` the number of
    degree-i cells no pair removed (in the degrees reduced under a verified
    d^2), and ``certificate`` is ``"morse-integral"``, ``"exact-rational"``
    or ``"unverified"``.  Between steps it holds the last differential and
    the live flags of its target and source degrees.  A step owns the
    differential it is fed: once the check of the next step passes, that
    step restricts it in place to the live rows.
    """

    def __init__(self):
        self.ranks, self.critical = {}, {}
        self.certificate = "morse-integral"
        self._d = self._faces = self._live = None

    def step(self, i, dim, d=None):
        """Reduce degree i, of dimension ``dim``, with d_i = ``d`` (``None``
        at degree 0): check d_{i-1} d_i = 0, pair on d_i, settle degree i-1."""
        if self.certificate == "unverified":
            self.ranks[i] = rank_exact(d)
            return
        live = bytearray(b"\x01") * dim
        if d is not None:
            if self._d is not None:
                if not composes_to_zero(self._d, d):
                    self.certificate = "unverified"
                    self.ranks[i - 1], self.ranks[i] = rank_exact(self._d), rank_exact(d)
                    self._d = self._faces = self._live = None
                    return
                # from here d_{i-1} only feeds the residual, on the live
                # rows; a new dict per column frees the old one at once
                cols, faces = self._d.cols, self._faces
                for c, col in enumerate(cols):
                    cols[c] = {r: v for r, v in col.items() if faces[r]}
            self.ranks[i] = self._pair(d, self._live, live)
            self._settle(i - 1)
        self._d, self._faces, self._live = d, self._live, live

    def _pair(self, d, faces, live):
        """Take the pairs of d_i, given the live flags of degrees i-1 and i,
        and return how many.  The queue holds the cells with one live face
        in index order, then those whose live faces drop to one; the
        cofaces of a face are its columns in d_i, ascending, so the order
        within a column does not matter."""
        cofaces = [[] for _ in range(d.nrows)]
        nfaces = [0] * d.ncols
        for c, col in enumerate(d.cols):
            for r in col:
                if faces[r]:
                    cofaces[r].append(c)
                    nfaces[c] += 1
        queue = deque(c for c, count in enumerate(nfaces) if count == 1)
        pairs = 0
        while queue:
            c = queue.popleft()
            if nfaces[c] != 1:
                continue
            col = d.cols[c]
            r = next(r for r in col if faces[r])
            if abs(col[r]) != 1:
                continue
            live[c] = faces[r] = 0
            pairs += 1
            for s in cofaces[r]:
                if live[s]:
                    nfaces[s] -= 1
                    if nfaces[s] == 1:
                        queue.append(s)
        return pairs

    def _settle(self, i):
        """Degree i is final: count its critical cells and rank the residual
        of d_i, the last differential held, on the live cells."""
        self.critical[i] = self._live.count(1)
        if self._d is None:
            return
        rows = {r: pos for pos, r in enumerate(
            r for r, flag in enumerate(self._faces) if flag)}
        residual = SparseIntMatrix(len(rows), [
            {rows[r]: v for r, v in self._d.cols[c].items() if r in rows}
            for c, flag in enumerate(self._live) if flag])
        rank, unit = _eliminate_rank(residual)
        self.ranks[i] += rank
        if not unit:
            self.certificate = "exact-rational"

    def finish(self):
        """Settle the top degree, the one above those settled, and drop the
        last differential."""
        if self._live is not None:
            self._settle(len(self.critical))
        self._d = self._faces = self._live = None
        return self

    def homology(self, dims, degree_of):
        betti = betti_from_dims_and_ranks(
            dims, self.ranks, degree_of, strict=self.certificate != "unverified")
        return Homology(dims, self.ranks, betti, self.certificate)


def morse_reduce(dims, diffs):
    """The finished ``Coreduction`` of ``diffs`` (i -> matrix of d_i:
    C_i -> C_{i-1}, columns are sources) over ``dims`` (i -> dim C_i).
    A step restricts the matrices it is fed in place, so each step is fed a
    new list of the same columns and ``diffs`` is left as it was."""
    reduction = Coreduction()
    for i in sorted(dims):
        d = diffs.get(i)
        reduction.step(i, dims[i], None if d is None else SparseIntMatrix(d.nrows, list(d.cols)))
    return reduction.finish()


def compute_homology(dims, diffs, degree_of):
    """``Homology`` of ``morse_reduce``, with Betti numbers reported at
    total degree ``degree_of(i)``."""
    return morse_reduce(dims, diffs).homology(dims, degree_of)


class ChainComplex:
    """A complex graded by 0..max_edges whose degrees are built on demand.

    Subclasses provide ``max_edges``, ``walk(i)`` (the keys of degree i in
    sorted order, an iterable that may do per-degree work as it goes: the
    assembler of d_i consumes it when degree i is not held, and
    ``generators(i)`` consumes it alone otherwise), ``code(key)``,
    ``contraction_terms(key)`` and
    ``action_terms(perm)``, whose function takes ``(key, fixed=False)`` and
    returns a list of terms, with ``fixed`` only those landing on ``key``.
    A term ``(target_key, sign)`` carries its whole sign, read off the
    positions in the sorted reference orders.  Any other orientation of the
    generators conjugates every matrix by a diagonal +-1 matrix; the tests
    check the homology and the oracles that way.
    """

    # one orientation per generator; kept only because the size records of
    # perfbench/layers.py key on it
    orient_seed = 0

    def __init__(self):
        self._gens = {}
        self._rows = {}
        self._diffs = {}
        self._homology = None
        # every per-degree cache, emptied by ``release``; subclasses add theirs
        self._caches = [self._gens, self._rows, self._diffs]

    def total_degree(self, i):
        return i

    def generators(self, i):
        """The keys of degree i, sorted: its walk consumed alone, kept until
        ``release(i)``."""
        if i not in self._gens:
            self._gens[i] = list(self.walk(i))
        return self._gens[i]

    def rows(self, i):
        """Position of each degree-i generator, by key."""
        if i not in self._rows:
            self._rows[i] = {key: pos for pos, key in enumerate(self.generators(i))}
        return self._rows[i]

    def dim(self, i):
        return len(self.generators(i))

    def dims(self):
        return {i: self.dim(i) for i in range(self.max_edges + 1)}

    def _assemble(self, i, j, terms):
        """The matrix from degree i to degree j (columns are sources) whose
        column of each degree-i generator sums ``terms(key)``.  Two terms
        share a target only for the parallel edges of a 2-cycle.  When
        degree i is not held, the columns are built on its walk, and the
        keys met are kept as ``generators(i)``."""
        rows = self.rows(j)
        walked = i not in self._gens
        keys = [] if walked else self._gens[i]
        cols = []
        for key in self.walk(i) if walked else keys:
            col = {}
            for target, sign in terms(key):
                row = rows[target]
                total = col.get(row, 0) + sign
                if total:
                    col[row] = total
                else:
                    del col[row]
            cols.append(col)
            if walked:
                keys.append(key)
        self._gens[i] = keys
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
        signed count of the generators it fixes.  One relabeling function
        serves the degree: it relabels a piece many keys share (a cycle, a
        tree) once, tests only the graph clusters it moves, and stops at
        the first piece that misses the generator's key."""
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
        reads once degree i is reached, build d_i on the walk of degree i,
        then dim C_i, hand d_{i-1} over to the reduction step of degree i
        and drop the row table of degree i-1, which only the assembler
        reads, and yield i, so the caller does its work on degree i (and
        i-1) in the loop body.  The step restricts d_{i-1} and drops it, so
        no differential outlives the pass, and each pass builds every degree
        anew."""
        for cache in self._caches:
            cache.clear()
        reduction, dims = Coreduction(), {}
        for i in range(self.max_edges + 3):
            self.release(i - 2)
            if i <= self.max_edges:
                d = self.differential(i) if i else None
                dims[i] = self.dim(i)
                self._diffs.pop(i - 1, None)
                self._rows.pop(i - 1, None)
                reduction.step(i, dims[i], d)
                yield i
        self._homology = reduction.finish().homology(dims, self.total_degree)

    def release(self, i):
        """Drop the generators of degree i and what is cached on them."""
        for cache in self._caches:
            cache.pop(i, None)

    def homology(self):
        """The ``Homology`` the steps of one pass of ``degrees`` leave, from
        a pass unless one has run."""
        if self._homology is None:
            for _ in self.degrees():
                pass
        return self._homology

    def betti(self):
        """Betti numbers indexed by total degree."""
        return self.homology().betti
