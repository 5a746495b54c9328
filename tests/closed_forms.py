"""The closed-form character of the genus-one graph homology, an oracle
that counts no generator and takes no trace.

The homology of GC(m) is the S_m-module Ind_{D_m}^{S_m} eps (Chan,
Galatius and Payne, *Topology of moduli spaces of tropical curves with
marked points*, 2022): D_m is the symmetry group of an m-cycle on the legs
and eps(g) the sign of g on the cycle's m edges.  At cycle type mu the
induced character is z_mu / 2m times the sum of eps over the elements of
D_m of type mu, with z_mu = m! / |class of mu|.

``python tests/closed_forms.py M`` compares it with the computed character
of GC(M) and exits non-zero when they differ.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from stirhom.characters import ClassFunction, class_size, partitions
from stirhom.graphcomplex import GraphComplex, graph_homology_character

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


def main(m):
    if graph_homology_character(GraphComplex(m)) != dihedral_character(m):
        sys.exit(f"GC({m}): the character differs from Ind_(D_m)^(S_m) eps")
    print(f"GC({m}): the character equals Ind_(D_m)^(S_m) eps")


if __name__ == "__main__":
    main(int(sys.argv[1]))
