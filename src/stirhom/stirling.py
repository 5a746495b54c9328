"""Chain complexes of oriented Stirling trees.

A Stirling tree of type (n, k) is a stable n-tree with a distinguished
vertex and a set of k >= 2 alternating input flags at that vertex.  The
complex in internal degree i is spanned by one generator per isomorphism
class of such trees with i edges; each generator is the canonical element
of det(edges) tensor det(alternating flags).

The differential contracts edges.  Contracting an edge with no alternating
flag gives a single term; contracting the edge below an alternating flag
replaces that flag by each input of the vanished child vertex, one term
per replacement.  Signs move the contracted edge to the last wedge slot and
then align the surviving data with the target class's canonical reference
orders.  The symmetric group on the n+1 leg labels acts by relabeling,
with a signed replacement sum whenever the relabeled alternating set
captures the output flag of the distinguished vertex.
"""

from __future__ import annotations

import itertools

from .linalg import ChainComplex, SparseIntMatrix, compute_homology
from .trees import (canonical_tree_data, contract_edge_with_maps,
                    enumerate_stable_trees, map_edge, relative_sign, to_dot)


class DomainError(ValueError):
    """Parameters outside the domain where the complex is defined."""


class StirlingGenerator:
    """One isomorphism class of decorated trees with its reference orders."""

    __slots__ = ("tree", "dv", "alt", "code", "edge_order", "alt_order")

    def __init__(self, tree, dv, alt, code, edge_order, alt_order):
        self.tree = tree
        self.dv = dv
        self.alt = frozenset(alt)
        self.code = code
        self.edge_order = edge_order
        self.alt_order = alt_order

    @property
    def k(self):
        return len(self.alt)

    def __repr__(self):
        return f"StirlingGenerator({self.code})"


def make_generator(tree, dv, alt, orient_seed=0):
    """Validate and canonically orient a decorated tree."""
    alt = frozenset(alt)
    if len(alt) < 2:
        raise DomainError("at least two alternating flags are required")
    inputs = set(tree.input_flags(dv))
    if not alt <= inputs:
        raise DomainError("alternating flags must be input flags of the "
                          "distinguished vertex")
    code, edge_order, alt_order = canonical_tree_data(tree, dv, alt, orient_seed)
    return StirlingGenerator(tree, dv, alt, code, edge_order, alt_order)


class ChainVector:
    """Finite integer combination of generators within one (n, k, i)."""

    __slots__ = ("n", "k", "i", "coeffs")

    def __init__(self, n, k, i, coeffs=()):
        self.n = n
        self.k = k
        self.i = i
        self.coeffs = {code: v for code, v in dict(coeffs).items() if v}

    def __add__(self, other):
        if (self.n, self.k, self.i) != (other.n, other.k, other.i):
            raise DomainError("chain vectors live in different degrees")
        merged = dict(self.coeffs)
        for code, v in other.coeffs.items():
            merged[code] = merged.get(code, 0) + v
        return ChainVector(self.n, self.k, self.i, merged)

    def scaled(self, factor):
        return ChainVector(self.n, self.k, self.i,
                           {c: factor * v for c, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, ChainVector)
                and (self.n, self.k, self.i) == (other.n, other.k, other.i)
                and self.coeffs == other.coeffs)


def _check_type(n, k):
    if n < 2 or k < 2 or k > n:
        raise DomainError(f"type ({n}, {k}) requires 2 <= k <= n")


class StirlingComplex(ChainComplex):
    """The chain complex of type (n, k), graded by edge count i.

    Internal degree i corresponds to total degree i + k; the complex is
    concentrated in internal degrees 0..n-k.
    """

    def __init__(self, n, k, orient_seed=0):
        _check_type(n, k)
        super().__init__()
        self.n = n
        self.k = k
        self.orient_seed = orient_seed

    @property
    def max_edges(self):
        return self.n - self.k

    def total_degree(self, i):
        return i + self.k

    def generators(self, i):
        if i not in self._gens:
            self._gens[i] = self._enumerate(i)
        return self._gens[i]

    def _enumerate(self, i):
        if i < 0:
            return []
        gens = []
        for tree in enumerate_stable_trees(self.n, i):
            for v in range(tree.graph.num_vertices):
                inputs = sorted(tree.input_flags(v))
                if len(inputs) < self.k:
                    continue
                for alt in itertools.combinations(inputs, self.k):
                    code, eo, ao = canonical_tree_data(tree, v, frozenset(alt),
                                                       self.orient_seed)
                    gens.append(StirlingGenerator(tree, v, alt, code, eo, ao))
        gens.sort(key=lambda g: g.code)
        return gens

    # -- differential -------------------------------------------------------

    def contraction_terms(self, gen):
        """Raw differential terms of one generator, before accumulation.

        Yields ``(target_tree, target_dv, target_alt_order, surviving_edges,
        move_sign)`` where the orders are the source orders transported
        through the contraction (with the replacement flag substituted in
        place for alternating-edge contractions).
        """
        tree = gen.tree
        num_edges = len(gen.edge_order)
        for pos, edge in enumerate(gen.edge_order):
            move_sign = -1 if (num_edges - 1 - pos) % 2 else 1
            f1, f2 = edge
            alt_flag = f1 if f1 in gen.alt else (f2 if f2 in gen.alt else None)
            target, flag_map, vertex_map = contract_edge_with_maps(tree, edge)
            surviving = [map_edge(flag_map, e) for e in gen.edge_order if e != edge]
            new_dv = vertex_map[gen.dv]
            if alt_flag is None:
                alt_order = [flag_map[f] for f in gen.alt_order]
                yield target, new_dv, alt_order, surviving, move_sign
            else:
                # the edge hangs below the distinguished vertex; its child's
                # inputs replace the lost alternating flag one at a time
                child_out = f2 if alt_flag == f1 else f1
                child = tree.graph.flag_vertex[child_out]
                for b in tree.input_flags(child):
                    alt_order = [flag_map[b if f == alt_flag else f]
                                 for f in gen.alt_order]
                    yield target, new_dv, alt_order, surviving, move_sign

    def differential(self, i):
        """Matrix of d: degree i -> degree i-1 (columns are sources)."""
        if i in self._diffs:
            return self._diffs[i]
        sources = self.generators(i)
        nrows = self.dim(i - 1) if i >= 1 else 0
        target_index = self.index(i - 1) if i >= 1 else {}
        acc = {}
        for col, gen in enumerate(sources):
            for target, dv, alt_order, surviving, move_sign in self.contraction_terms(gen):
                code, ceo, cao = canonical_tree_data(target, dv,
                                                     frozenset(alt_order),
                                                     self.orient_seed)
                sign = (move_sign * relative_sign(surviving, ceo)
                        * relative_sign(alt_order, cao))
                key = (target_index[code], col)
                total = acc.get(key, 0) + sign
                if total:
                    acc[key] = total
                else:
                    del acc[key]
        matrix = SparseIntMatrix(nrows, len(sources), acc)
        self._diffs[i] = matrix
        return matrix

    def apply_differential(self, vector):
        """Image of a chain vector under the differential."""
        if (vector.n, vector.k) != (self.n, self.k):
            raise DomainError("vector belongs to a different complex")
        i = vector.i
        matrix = self.differential(i)
        positions = self.index(i)
        target = self.generators(i - 1)
        by_col = {}
        for (r, c), v in matrix.entries.items():
            by_col.setdefault(c, []).append((r, v))
        coeffs = {}
        for code, coefficient in vector.coeffs.items():
            for r, v in by_col.get(positions[code], ()):
                key = target[r].code
                coeffs[key] = coeffs.get(key, 0) + coefficient * v
        return ChainVector(self.n, self.k, i - 1, coeffs)

    # -- symmetric group action --------------------------------------------

    def action_matrix(self, i, perm):
        """Matrix of a permutation of the leg labels 0..n on degree i.

        ``perm`` is a bijection of {0..n} given as a sequence (perm[j] is
        the image of j); the classical permutation group on n+1 letters is
        identified with these by exchanging the letters 0 and n+1.
        """
        perm = _as_permutation(perm, self.n)
        gens = self.generators(i)
        index = self.index(i)
        acc = {}
        for col, gen in enumerate(gens):
            relabeled = gen.tree.relabeled(perm)
            dv = gen.dv
            out = relabeled.output_flag(dv)
            if out not in gen.alt:
                code, ceo, cao = canonical_tree_data(relabeled, dv, gen.alt,
                                                     self.orient_seed)
                sign = (relative_sign(gen.edge_order, ceo)
                        * relative_sign(gen.alt_order, cao))
                _accumulate(acc, (index[code], col), sign)
            else:
                # the relabeled alternating set captured the new output flag;
                # trade it for each remaining flag at the vertex
                others = [f for f in relabeled.graph.vertex_flags(dv)
                          if f not in gen.alt]
                for b in others:
                    alt_order = [b if f == out else f for f in gen.alt_order]
                    code, ceo, cao = canonical_tree_data(relabeled, dv,
                                                         frozenset(alt_order),
                                                         self.orient_seed)
                    sign = -(relative_sign(gen.edge_order, ceo)
                             * relative_sign(alt_order, cao))
                    _accumulate(acc, (index[code], col), sign)
        return SparseIntMatrix(len(gens), len(gens), acc)

    def verify_equivariance(self, perm):
        """True when the action of ``perm`` commutes with the differential."""
        actions = [self.action_matrix(i, perm) for i in range(self.max_edges + 1)]
        return all(actions[i - 1] @ d == d @ actions[i]
                   for i, d in self.differentials().items())

    def verify_group_law(self, pairs):
        """Check action(sigma) . action(tau) == action(sigma tau) per degree."""
        for sigma, tau in pairs:
            sigma = _as_permutation(sigma, self.n)
            tau = _as_permutation(tau, self.n)
            prod = compose(sigma, tau)
            for i in range(self.max_edges + 1):
                lhs = self.action_matrix(i, sigma) @ self.action_matrix(i, tau)
                if lhs != self.action_matrix(i, prod):
                    return False
        return True

    # -- reach filtration ----------------------------------------------------

    def in_acyclic_part(self, tree, dv):
        """Membership in the acyclic subcomplex: the distinguished vertex
        has valence above k+1, or it is not the root vertex."""
        return tree.graph.valence(dv) > self.k + 1 or dv != tree.root_vertex

    def reach(self, tree, dv):
        if not self.in_acyclic_part(tree, dv):
            raise DomainError("generator lies outside the acyclic subcomplex")
        e = tree.graph.num_edges
        p = len(tree.path_edges_to_root(dv))
        nu = 1 if tree.graph.valence(dv) == self.k + 1 else 0
        return 2 * e - p - nu

    def reach_filtration_holds(self, i):
        """On the degree-i generators of the acyclic subcomplex, the
        differential never leaves that subcomplex and never increases the
        reach, and the reach stays within its bounds."""
        upper = 2 * (self.n - self.k) - 2
        for gen in self.generators(i):
            if not self.in_acyclic_part(gen.tree, gen.dv):
                continue
            r = self.reach(gen.tree, gen.dv)
            if self.n > self.k and not 0 <= r <= upper:
                return False
            for target, dv, _ao, _se, _ms in self.contraction_terms(gen):
                if (not self.in_acyclic_part(target, dv)
                        or self.reach(target, dv) > r):
                    return False
        return True

    def release(self, i):
        """Drop cached data at degree i (memory relief for large runs)."""
        self._gens.pop(i, None)
        self._index.pop(i, None)
        self._diffs.pop(i, None)

    def to_json_dict(self):
        degrees = [{"i": i, "dim": self.dim(i),
                    "generators": [g.code for g in self.generators(i)]}
                   for i in range(self.max_edges + 1)]
        diffs = [{"i": i,
                  "triplets": [[r, c, v] for (r, c), v in
                               sorted(self.differential(i).entries.items())]}
                 for i in range(1, self.max_edges + 1)]
        return {"schema": 1, "n": self.n, "k": self.k,
                "degrees": degrees, "differentials": diffs}

    def generator_dot(self):
        """DOT drawings of every generator, decorations marked."""
        chunks = []
        for i in range(self.max_edges + 1):
            for pos, g in enumerate(self.generators(i)):
                chunks.append(to_dot(g.tree, dv=g.dv, alt=g.alt,
                                     name=f"s_{self.n}_{self.k}_{i}_{pos}"))
        return "\n".join(chunks)


def _accumulate(acc, key, value):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _as_permutation(perm, n):
    if isinstance(perm, dict):
        perm = tuple(perm[j] for j in range(n + 1))
    else:
        perm = tuple(perm)
    if len(perm) != n + 1 or sorted(perm) != list(range(n + 1)):
        raise DomainError(f"expected a bijection of 0..{n}")
    return perm


def transposition(n, a, b):
    perm = list(range(n + 1))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def compose(sigma, tau):
    """(sigma after tau)[j] = sigma[tau[j]]."""
    return tuple(sigma[t] for t in tau)


def survey(n, k, rank_seed=0, orient_seed=0, reach_check=True):
    """One streaming pass over a complex: dimensions, ranks, Betti numbers,
    the d^2 and reach checks, and the certificate of ``compute_homology``
    (``"unverified"`` when d^2 = 0 failed).  The generators of degree i-2
    are released once degree i is assembled; only the matrices are kept.
    """
    cx = StirlingComplex(n, k, orient_seed)
    dims = {}
    diffs = {}
    reach_ok = True
    for i in range(cx.max_edges + 1):
        dims[i] = cx.dim(i)
        if reach_check and reach_ok:
            reach_ok = cx.reach_filtration_holds(i)
        if i >= 1:
            diffs[i] = cx.differential(i)
            cx.release(i - 2)
    result = compute_homology(dims, diffs, cx.total_degree, rank_seed)
    return {"n": n, "k": k, "dims": dims, "ranks": result.ranks,
            "betti": result.betti, "d2_ok": result.d2_ok,
            "reach_ok": reach_ok, "certificate": result.certificate,
            "euler": sum((-1) ** i * d for i, d in dims.items())}
