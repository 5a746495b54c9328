"""Closed-form characters of both homologies, oracles that count no
generator and take no trace.

Genus one.  The homology of GC(m) is the S_m-module Ind_{D_m}^{S_m} eps
(Chan, Galatius and Payne, *Topology of moduli spaces of tropical curves
with marked points*, 2022): D_m is the symmetry group of an m-cycle on the
legs and eps(g) the sign of g on the cycle's m edges.  At cycle type mu the
induced character is z_mu / 2m times the sum of eps over the elements of
D_m of type mu, with z_mu = m! / |class of mu|.

Stirling.  The top homology of type (n, k) is the S_{n+1}-module
sgn (x) sum_{j <= k} (Ind_{S_n}^{S_{n+1}} E_n^(j) - E_{n+1}^(j)), where
E_n^(j) is the Eulerian representation of S_n of dimension |s(n, j)|.  At
a cycle type with m_i parts of size i its character is the coefficient of
t^j in prod_i i^{m_i} f_i (f_i + 1) ... (f_i + m_i - 1), with
f_i(t) = (1/i) sum_{d | i} mobius(d) t^{i/d} (Hanlon, Michigan Math. J.,
1990), and inducing from S_n multiplies the value at mu less one fixed
point by the number of fixed points of mu.  Restricted to S_n it is
sgn (x) E_n^(k); the lift is Whitehouse's (J. Pure Appl. Algebra, 1997).

``python tests/closed_forms.py M`` compares the genus-one form with the
computed character of GC(M), ``python tests/closed_forms.py N K`` the
Stirling form with that of type (N, K); each exits non-zero when they
differ.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from stirhom.characters import (ClassFunction, class_size, equivariant_euler_character,
                                partitions)
from stirhom.graphcomplex import GraphComplex
from stirhom.stirling import StirlingComplex

from helpers import cycle_type


def dihedral_character(m):
    """Ind_{D_m}^{S_m} eps, for m >= 3, as a ``ClassFunction``."""
    sums = dict.fromkeys(partitions(m), 0)
    for s in range(m):
        rotation = [(i + s) % m for i in range(m)]
        reflection = [(s - i) % m for i in range(m)]
        # edge e joins legs e and e + 1: the rotation moves it to e + s,
        # the reflection to s - 1 - e
        for legs, edges in ((rotation, rotation),
                            (reflection, [(s - 1 - e) % m for e in range(m)])):
            sums[cycle_type(legs)] += (-1) ** (m - len(cycle_type(edges)))
    return ClassFunction(m, {mu: Fraction(math.factorial(m), class_size(mu) * 2 * m) * total
                             for mu, total in sums.items()})


def _mobius(d):
    value, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            value = -value
        p += 1
    return -value if d > 1 else value


def _times(a, b):
    """The product of two polynomials in t, as coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eulerian_series(mu):
    """The coefficients in t of prod_i i^{m_i} f_i (f_i + 1) ... (f_i + m_i - 1)
    at cycle type ``mu``: the character of E_n^(j) at mu is the one of t^j."""
    series = [Fraction(1)]
    for i in set(mu):
        f = [Fraction(0)] * (i + 1)
        for d in range(1, i + 1):
            if i % d == 0:
                f[i // d] += Fraction(_mobius(d), i)
        for r in range(mu.count(i)):
            series = _times(series, [i * (f[0] + r)] + [i * c for c in f[1:]])
    return series


def stirling_character(n, k):
    """sgn (x) sum_{j <= k} (Ind E_n^(j) - E_{n+1}^(j)), for 2 <= k <= n, as
    a ``ClassFunction`` of S_{n+1}."""
    values = {}
    for mu in partitions(n + 1):
        # mu is weakly decreasing, so its last part is a fixed point if any is
        fixed = mu.count(1)
        induced = fixed * sum(eulerian_series(mu[:-1])[:k + 1]) if fixed else 0
        total = induced - sum(eulerian_series(mu)[:k + 1])
        values[mu] = (-1) ** (n + 1 - len(mu)) * total
    return ClassFunction(n + 1, values)


def main(args):
    if len(args) == 1:
        m = args[0]
        if equivariant_euler_character(GraphComplex(m)) != dihedral_character(m):
            sys.exit(f"GC({m}): the character differs from Ind_(D_m)^(S_m) eps")
        print(f"GC({m}): the character equals Ind_(D_m)^(S_m) eps")
        return
    n, k = args
    if equivariant_euler_character(StirlingComplex(n, k)) != stirling_character(n, k):
        sys.exit(f"({n}, {k}): the character differs from the Eulerian closed form")
    print(f"({n}, {k}): the character equals the Eulerian closed form")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]])
