"""Homology of sparse integer chain complexes: one pipeline from the
differentials to ranks, Betti numbers and a certificate.

The pipeline is the step reducer ``Coreduction``, fed one degree at a time
by ``ChainComplex.degrees()`` as the pass builds each differential.  A
matrix is in compressed-column form (``SparseIntMatrix``): one list of
rows, column by column, each column's positive entries and then its
negative ones, cut into columns by one ``array`` of offsets, with the
positive entries of each column counted in another.  Only this module
reads that layout; the rest of the package reads columns through
``columns`` and ``sides``, and the assembler appends each column straight
to the list.  The pairing, the cut and the reach check read whole
columns: the coreduction counts live entries and never reads their signs.
Two products are compared by one routine, ``products_agree``, which
splits the left factor's columns into their two sides once, sorts and
compares the rows a column's positive and negative terms reach, and
builds no product.  Step i
tests d_{i-1} d_i = 0 with it (``composes_to_zero``, a zero right side),
the one d^2 check: every homology and character relies on it, and
``stirhom verify`` reads its ``d2`` line off the pass of ``survey``.
While the test holds, the step pairs each degree-i cell c that has
exactly one live face r, when <dc, r> = +-1: the face side of the
coreduction of Mrozek and Batko (2009; Skoldberg 2006), over d_i alone.
A pair divides out the acyclic subcomplex spanned by c and dc; the
quotient's differential is the original one restricted to the remaining
cells, so no entry changes (no fill) and the homology is kept over Z.

No later step touches degree i-1, so after step i its live (critical) cells
are final: the residual of d_{i-1} on them is ranked and d_{i-1} dropped.
Degree i-2 is already final when step i starts, so once its check passes
the step keeps of d_{i-1} only the columns with an entry on a live face of
degree i-2, the only ones the residual reads, before it pairs on d_i.
No step changes a differential: the pairing counts the live entries of
each column, and the residual is built on the live rows alone.  With
d^2 = 0 through d_{i-1} d_i, rank d_{i-1} is fixed by the dimensions and
the homology below, which the quotients keep, so it is the pairs of step
i-1 plus the residual's rank.  A residual goes through the one
elimination routine, ``_eliminate_rank``: fraction-free over Z, each pivot
from one row heap (rows holding a +-1 entry first, then shorter rows; in
the row, a +-1 entry if there is one, in the column with the fewest
entries).  When every pivot is +-1 the residual is an identity block plus
zero over Z, so the homology is free and the certificate is
``"morse-integral"``; a larger pivot (Z/2 in RP^2, say) leaves ranks over
Q and ``"exact-rational"``.  ``rank_exact`` is the same routine with only
the rank kept.  When the check of step i fails, d_{i-1} and every later
differential are ranked whole by ``rank_exact``, the certificate reads
``"unverified"``, and negative Betti numbers are reported rather than
raised.

``ChainComplex`` is the shared base of the Stirling and graph complexes:
lazily enumerated degrees 0..max_edges of sorted generator keys, each
degree read off its subclass's walk, the position of each key, the one
assembler, which turns a stream of ``(key, (plus, minus))`` columns, the
targets of a key's positive and of its negative terms, into the
differential or an action matrix (both term rules yield that stream and
read a run of keys of one tree or cycle together), the trace, and the
one pass over the
degrees, ``degrees()``, which holds only what a later step reads: it
releases degree i-2, builds d_i on the walk of degree i, which counts the
degree and keeps its keys for d_{i+1} (none on the top degree), drops the
keys and the row table of degree i-1, takes the reduction step and yields
i, so callers do their per-degree work (the reach check, traces) while
only degree i's keys are held.  ``dims()`` counts each walk and keeps no
key; ``generators(i)`` is the walk that keeps its keys.  A
relabeling permutes the complex's ``legs``; the base checks it and tables
the image of every mask once per pass for both complexes.  A trace counts
the action columns that hold their own key, +1 on the positive side and
-1 on the negative one, taken only over the keys a relabeling can fix,
which each complex enumerates from the pieces the relabeling maps onto
themselves (a cycle, a laminar family of clusters) instead of scanning the
degree.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from itertools import compress, groupby, islice

from .trees import _bit_images


class SparseIntMatrix:
    """Integer matrix in compressed-column form (Davis 2006): ``rows`` is
    one list of row ints, column by column, and column c is the slice
    ``rows[offsets[c]:offsets[c + 1]]``, the row of each positive entry
    and then the row of each negative one, a row repeated |v| times for
    the value v and never on both sides, so no zero is stored.
    ``offsets`` holds the ncols + 1 column starts, from 0 to
    ``len(rows)``, and ``split[c]`` counts column c's positive entries,
    each in one compact ``array``.  A slice of the list shares its ints,
    so no read makes an int object, and no column is an object of its
    own.  The pairing, the cut and the reach check read whole columns, as
    they need no sign, and ``columns`` yields them; the d^2 check and the
    residual cut columns at ``split``, ``sides`` yields each column's two
    sides, and ``triplets``, ``nnz`` and ``to_matrix_market`` read the
    entries for the exports."""

    __slots__ = ("nrows", "rows", "offsets", "split", "__weakref__")

    def __init__(self, nrows, rows, offsets, split):
        self.nrows, self.rows, self.offsets, self.split = nrows, rows, offsets, split

    @property
    def ncols(self):
        return len(self.split)

    def columns(self):
        """The rows of each column, its positive entries' first, as one
        slice of ``rows`` each, column by column."""
        rows, offsets = self.rows, self.offsets
        for start, end in zip(offsets, islice(offsets, 1, None)):
            yield rows[start:end]

    def sides(self):
        """The rows of each column's positive and of its negative entries,
        as two slices of ``rows``, column by column."""
        rows, offsets = self.rows, self.offsets
        for start, cut, end in zip(offsets, self.split, islice(offsets, 1, None)):
            cut += start
            yield rows[start:cut], rows[cut:end]

    def triplets(self):
        """Every entry as ``(r, c, v)``, column by column, the positive
        entries first, each sign by row."""
        for c, sides in enumerate(self.sides()):
            for side, unit in zip(sides, (1, -1)):
                for r, run in groupby(sorted(side)):
                    yield r, c, unit * len(list(run))

    def nnz(self):
        return sum(1 for _ in self.triplets())

    def _reached(self, other):
        """For each column of ``other``, the rows the positive and the
        negative terms of this matrix times it reach, uncancelled: this
        matrix's sides concatenated over the column's rows.  The sides are
        split once per call, not once per entry read, each into a tuple,
        which holds its rows in one block where a list slice takes two and
        more room, and the columns of ``other`` are sliced one at a time,
        as they are asked for."""
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        left, offsets, above, below = self.rows, self.offsets, [], []
        for start, cut, end in zip(offsets, self.split, islice(offsets, 1, None)):
            cut += start
            above.append(tuple(left[start:cut]))
            below.append(tuple(left[cut:end]))
        rows, start = other.rows, 0
        for cut, end in zip(other.split, islice(other.offsets, 1, None)):
            cut += start
            up, down = [], []
            for r in rows[start:cut]:
                up += above[r]
                down += below[r]
            for r in rows[cut:end]:
                up += below[r]
                down += above[r]
            start = end
            yield up, down

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
    Each pivot comes from one lazily updated row heap, rows holding a +-1
    entry first, then shorter rows; in its row it is a +-1 entry if there
    is one, in the column with the fewest entries, so a singleton row or
    column costs no fill.
    """
    rows = {}
    cols = {}
    for c, sides in enumerate(matrix.sides()):
        for side, unit in zip(sides, (1, -1)):
            for r in side:
                row = rows.setdefault(r, {})
                row[c] = row.get(c, 0) + unit
                cols.setdefault(c, set()).add(r)

    def row_key(row):
        return all(abs(v) != 1 for v in row.values()), len(row)

    # every change to a row pushes its new key, so an entry whose key is
    # not the row's current one is stale
    heap = [(row_key(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    unit = True
    while heap:
        key, r = heapq.heappop(heap)
        if r not in rows or row_key(rows[r]) != key:
            continue
        prow = rows[r]
        c = min(prow, key=lambda cc: (abs(prow[cc]) != 1, len(cols[cc])))
        pval = prow[c]
        unit = unit and abs(pval) == 1
        # retire the pivot row; no row holds column c once it is cleared
        for cc in prow:
            cols[cc].discard(r)
        del rows[r]
        for j in cols[c]:
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
                heapq.heappush(heap, (row_key(row_j), j))
            else:
                del rows[j]
        rank += 1
    return rank, unit


def rank_exact(matrix):
    """Rank over the rationals, by exact elimination over the integers."""
    return _eliminate_rank(matrix)[0]


def products_agree(a, b, c=None, d=None):
    """True when ``a b`` = ``c d``, ``a b`` = ``c`` when ``d`` is not given,
    or ``a b`` = 0 when neither is, tested one column at a time with no
    product built.  The products agree on a column when the rows that the
    positive terms of ``a b`` and the negative terms of the right side
    reach, sorted, equal those that the other terms reach: ``_reached``
    rows, or the rows of ``c`` itself, exact over Z.  The test stops at the
    first column where they differ."""
    columns = a._reached(b)
    if c is not None:
        if (a.nrows, b.ncols) != (c.nrows, (c if d is None else d).ncols):
            raise ValueError("the products differ in shape")
        right = c.sides() if d is None else c._reached(d)
        columns = (([*up, *right_down], [*down, *right_up])
                   for (up, down), (right_up, right_down) in zip(columns, right))
    for up, down in columns:
        up.sort()
        down.sort()
        if up != down:
            return False
    return True


def composes_to_zero(lower, upper):
    """True when ``lower upper`` = 0: the d^2 check, ``products_agree``
    with a zero right side."""
    return products_agree(lower, upper)


def alternating_sum(values):
    """The sum of (-1)^i ``values[i]``: the Euler characteristic of a
    grading's dimensions or Betti numbers."""
    return sum((-1) ** i * v for i, v in values.items())


class _Record:
    """What a dataclass gives its instances, without importing
    ``dataclasses`` (and with it ``inspect`` and ``ast``) on the import
    path: ``==`` by the fields named in ``_fields`` on the exact class, the
    dataclass ``repr`` and no hash, as the values are mutable."""

    _fields = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self._fields]
                == [getattr(other, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class BettiVector(_Record):
    """Homology ranks indexed by total degree; absent degrees are zero."""

    _fields = ("values",)

    def __init__(self, values):
        self.values = values

    def __getitem__(self, degree):
        return self.values.get(degree, 0)

    def support(self):
        return sorted(d for d, b in self.values.items() if b)

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


class Homology(_Record):
    """Outcome of a ``Coreduction``: dim C_i and the rank of every d_i, the
    Betti numbers by total degree, and the certificate."""

    _fields = ("dims", "ranks", "betti", "certificate")

    def __init__(self, dims, ranks, betti, certificate):
        self.dims, self.ranks, self.betti = dims, ranks, betti
        self.certificate = certificate

    @property
    def d2_ok(self):
        return self.certificate != "unverified"

    @property
    def concentrated_in(self):
        """The one total degree holding all the homology; None when d^2 = 0
        is unverified or the homology is not in exactly one degree."""
        support = self.betti.support()
        if not self.d2_ok or len(support) != 1:
            return None
        return support[0]


def _on_live_faces(d, faces):
    """``d`` with each column that has an entry on a live face, by the
    flags ``faces``, and an empty column for every other one: the columns
    a residual on those faces can read, copied into a row list of their
    own.  With no live face, no column is scanned."""
    rows, split = [], array("I", [0]) * d.ncols
    offsets = array("I", [0]) * (d.ncols + 1)
    if 1 in faces:
        live = faces.__getitem__
        for c, (col, cut) in enumerate(zip(d.columns(), d.split)):
            if any(map(live, col)):
                rows += col
                split[c] = cut
            offsets[c + 1] = len(rows)
    return SparseIntMatrix(d.nrows, rows, offsets, split)


class Coreduction:
    """The step reducer, fed the degrees in order by ``step``.

    ``ranks[i]`` is the rank of d_i over Q, ``critical[i]`` the number of
    degree-i cells no pair removed (in the degrees reduced under a verified
    d^2), and ``certificate`` is ``"morse-integral"``, ``"exact-rational"``
    or ``"unverified"``.  Between steps it holds the last differential and
    the live flags of its target and source degrees.  Once the d^2 check of
    step i passes, the target degree i-2 of the held d_{i-1} is final, so
    the step swaps d_{i-1} for the columns with an entry on a live face
    (``_on_live_faces``), the only ones its residual reads, before it
    pairs on d_i.  No step changes a differential it is fed: the pairs and
    the residual read its live entries off the flags.
    """

    def __init__(self):
        self.ranks, self.critical = {}, {}
        self.certificate = "morse-integral"
        self._d = self._faces = self._live = None

    def step(self, i, dim, d=None):
        """Reduce degree i, of dimension ``dim``, with d_i = ``d`` (``None``
        at degree 0): check d_{i-1} d_i = 0, keep d_{i-1} on its live faces
        only, pair on d_i, settle degree i-1."""
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
                self._d = _on_live_faces(self._d, self._faces)
            self.ranks[i] = self._pair(d, self._live, live)
            self._settle(i - 1)
        self._d, self._faces, self._live = d, self._live, live

    def _pair(self, d, faces, live):
        """Take the pairs of d_i, given the live flags of degrees i-1 and i,
        and return how many.  ``nfaces[c]`` counts the live entries of
        column c, a row once per unit of its value, so a column with exactly
        one has a +-1 face.  The queue holds those columns in index order,
        then those whose count drops to one; the cofaces of a face are its
        columns in d_i, ascending, so the order within a column does not
        matter.  Only a live face gets a list of cofaces."""
        rows, offsets = d.rows, d.offsets
        cofaces = [[] if flag else None for flag in faces]
        nfaces = [0] * d.ncols
        start = 0
        for c, end in enumerate(islice(offsets, 1, None)):
            count = 0
            for r in rows[start:end]:
                if faces[r]:
                    cofaces[r].append(c)
                    count += 1
            nfaces[c] = count
            start = end
        queue = deque(c for c, count in enumerate(nfaces) if count == 1)
        pairs = 0
        while queue:
            c = queue.popleft()
            if nfaces[c] != 1:
                continue
            r = next(r for r in rows[offsets[c]:offsets[c + 1]] if faces[r])
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
        faces = self._faces
        rows = {r: pos for pos, r in enumerate(
            r for r, flag in enumerate(faces) if flag)}
        d, kept, offsets, split = self._d, [], array("I", [0]), array("I")
        for c in compress(range(d.ncols), self._live):
            start, end = d.offsets[c], d.offsets[c + 1]
            cut = start + d.split[c]
            kept += [rows[r] for r in d.rows[start:cut] if faces[r]]
            split.append(len(kept) - offsets[-1])
            kept += [rows[r] for r in d.rows[cut:end] if faces[r]]
            offsets.append(len(kept))
        rank, unit = _eliminate_rank(SparseIntMatrix(len(rows), kept, offsets, split))
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


class ChainComplex:
    """A complex graded by 0..max_edges whose degrees are built on demand.

    Subclasses provide ``legs``, the range of leg labels a relabeling
    permutes (each leg j is mask bit j), ``error``, the exception a
    relabeling that is no bijection of ``legs`` raises, ``max_edges``,
    ``code(key)``, which spells a key out, and four rules on keys:

    - ``walk(i)``: the keys of degree i in sorted order, an iterable that
      may do per-degree work as it goes (``generators(i)`` consumes it,
      and ``dim(i)`` counts it when no walk has);
    - ``contraction_columns(i)``: the differential's column ``(key, (plus,
      minus))`` of every degree-i key in that order, on the same walk when
      degree i is not held, which the assembler of d_i consumes;
    - ``action_columns(keys, perm)``: the column of each of ``keys``, in
      their order, under a relabeling ``perm`` of the legs, in the same
      form;
    - ``fixable_keys(i, perm)``: the keys of degree i the relabeling may
      fix, each once and every fixed one among them, the identity's
      included.

    ``plus`` and ``minus`` list the targets of a key's positive and of its
    negative terms.  Each term carries its whole sign, +-1, read off the
    positions in the sorted reference orders, and the terms of one key
    have distinct targets, so each goes to its column's positive or
    negative side with no sum (the graph complex sums the two terms of a
    2-cycle's parallel edges itself).  Any other orientation of the
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
        # the number of keys each walk met, which ``dim`` reads
        self._dims = {}
        self._homology = None
        # every per-degree cache, emptied by ``release``; subclasses add theirs
        self._caches = [self._gens, self._rows, self._diffs, self._dims]
        # the top degree of a running pass, whose walk keeps no key: no
        # differential reads them as rows
        self._pass_top = None
        # the image table of each relabeling a pass applies
        self._images = {}
        # what a pass builds once and every degree reads (a table per cycle
        # or per relabeling, keyed by it, not by a degree); subclasses add
        # theirs.  Each pass empties them when it starts and ends, and
        # ``release`` leaves them: what ``differential``, ``action_matrix``
        # or ``trace`` build outside a pass stays until the next pass
        self._tables = [self._images]

    def total_degree(self, i):
        return i

    def generators(self, i):
        """The keys of degree i, sorted: its walk consumed alone, kept until
        ``release(i)``."""
        if i not in self._gens:
            keys = self._gens[i] = list(self.walk(i))
            self._dims[i] = len(keys)
        return self._gens[i]

    def rows(self, i):
        """Position of each degree-i generator, by key."""
        if i not in self._rows:
            self._rows[i] = {key: pos for pos, key in enumerate(self.generators(i))}
        return self._rows[i]

    def dim(self, i):
        """dim C_i: the number of keys the last walk of degree i met, or,
        when no walk has counted the degree, of a walk counted now, which
        keeps no key."""
        if i not in self._dims:
            self._dims[i] = sum(1 for _ in self.walk(i))
        return self._dims[i]

    def dims(self):
        return {i: self.dim(i) for i in range(self.max_edges + 1)}

    def _keys(self, i):
        """The keys of degree i in order: the held ones, else its walk."""
        held = self._gens.get(i)
        return self.walk(i) if held is None else held

    def _assemble(self, i, j, columns):
        """The matrix from degree i to degree j (columns are sources) with
        one column per ``(key, (plus, minus))`` of ``columns``, the stream
        of every degree-i generator in order: ``plus`` and ``minus`` are
        the targets of the key's positive and negative terms, which are
        distinct, so the rows of each side go straight to the matrix's one
        list of rows, the positive side first.  When degree i is not held,
        the stream is its walk's, and the assembler counts the degree for
        ``dim(i)`` and keeps the keys it meets as ``generators(i)``, except
        on the top degree of a pass, whose keys nothing reads."""
        position = self.rows(j)
        row = position.__getitem__
        keys = [] if i not in self._gens and i != self._pass_top else None
        rows, offsets, split = [], array("I", [0]), array("I")
        for key, (plus, minus) in columns:
            split.append(len(plus))
            rows += map(row, plus)
            rows += map(row, minus)
            offsets.append(len(rows))
            if keys is not None:
                keys.append(key)
        self._dims[i] = len(split)
        if keys is not None:
            self._gens[i] = keys
        return SparseIntMatrix(len(position), rows, offsets, split)

    def differential(self, i):
        """Matrix of d: degree i -> degree i-1, from ``contraction_columns``."""
        if i not in self._diffs:
            self._diffs[i] = self._assemble(i, i - 1, self.contraction_columns(i))
        return self._diffs[i]

    def relabeling(self, perm):
        """The image of every bit under a relabeling of the legs, checked:
        ``perm`` is a dict or a sequence of the images of ``legs`` in
        order.  The bits below the legs stay put."""
        legs = list(self.legs)
        if isinstance(perm, dict):
            perm = [perm[j] for j in legs] if sorted(perm) == legs else ()
        images = tuple(perm)
        if sorted(images) != legs:
            raise self.error(f"expected a bijection of {legs[0]}..{legs[-1]}")
        return (*range(legs[0]), *images)

    def _image(self, perm):
        """The image of every mask under a relabeling, checked, and built
        once per pass: traces ask for each relabeling in every degree, and
        both ``fixable_keys`` and ``action_columns`` read it."""
        bits = self.relabeling(perm)
        if bits not in self._images:
            self._images[bits] = _bit_images(bits)
        return self._images[bits]

    def action_matrix(self, i, perm):
        """Matrix of a leg relabeling on degree i, from ``action_columns``."""
        return self._assemble(i, i, self.action_columns(self._keys(i), perm))

    def trace(self, i, perm):
        """Trace of a leg relabeling on degree i, with no matrix built: over
        the keys ``fixable_keys`` offers, the action columns that hold
        their own key, +1 on the positive side and -1 on the negative one.
        A relabeling that moves no leg maps each generator to itself with
        sign +1, so its trace is ``dim(i)``; no other trace reads degree i's
        generators."""
        bits = self.relabeling(perm)
        if bits == tuple(range(len(bits))):
            return self.dim(i)
        return sum((key in plus) - (key in minus) for key, (plus, minus)
                   in self.action_columns(self.fixable_keys(i, perm), perm))

    def differentials(self):
        return {i: self.differential(i) for i in range(1, self.max_edges + 1)}

    def degrees(self):
        """The one pass over the degrees, which holds only what a later
        step reads: release degree i-2, build d_i on the walk of degree i,
        which counts the degree and keeps its keys for d_{i+1} (none on the
        top degree), drop the keys, the row table and the cached d_{i-1}
        of degree i-1, which only that assembly and the reduction step
        read, take the reduction step of degree i on dim C_i, read off the
        walk's count, and yield i, so the caller does its work on degree i
        in the loop body (the reach check also reads degree i-1's scores,
        kept until degree i+1).  The step keeps d_{i-1} on its live faces
        only and then drops it, so no differential outlives the pass; the
        pass starts and ends with every cache and table empty, so each pass
        builds every degree, and every table its degrees share, anew."""
        for cache in self._caches + self._tables:
            cache.clear()
        self._pass_top = self.max_edges
        reduction, dims = Coreduction(), {}
        for i in range(self.max_edges + 1):
            self.release(i - 2)
            d = self.differential(i) if i else None
            for cache in (self._gens, self._rows, self._diffs):
                cache.pop(i - 1, None)
            if i == 0 < self.max_edges:
                # the rows of d_1; every later walk below the top keeps its keys
                self.generators(0)
            dims[i] = self.dim(i)
            reduction.step(i, dims[i], d)
            yield i
        for cache in self._caches + self._tables:
            cache.clear()
        self._pass_top = None
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
