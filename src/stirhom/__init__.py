"""Exact homology of Stirling complexes and genus-one graph homology.

The package computes, with exact integer/rational arithmetic throughout:

* chain complexes of decorated stable trees ("Stirling complexes") of type
  (n, k), their Betti numbers, and the action of the symmetric group on
  their n+1 leg labels;
* the genus-one commutative graph complex with m labeled legs and its
  homology;
* signed Stirling numbers of the first kind, symmetric-group characters,
  and irreducible decompositions of the homology representations.

See the ``stirhom`` command-line tool for reproducible reports.
"""

from .linalg import BettiVector, SparseIntMatrix, rank_exact
from .stirling import StirlingComplex
from .graphcomplex import GraphComplex
from .characters import (ClassFunction, decompose, equivariant_euler_character,
                         hook_length_dimension, irreducible_character,
                         stirling_signed, stirling_unsigned)
from .trees import (Graph, ModularGraph, Tree, canonical_code,
                    enumerate_stable_trees, to_dot)

__all__ = [
    "BettiVector", "ClassFunction", "Graph", "GraphComplex", "ModularGraph",
    "SparseIntMatrix", "StirlingComplex", "Tree", "canonical_code",
    "decompose", "enumerate_stable_trees", "equivariant_euler_character",
    "hook_length_dimension", "irreducible_character", "rank_exact",
    "stirling_signed", "stirling_unsigned", "to_dot",
]

__version__ = "0.1.0"
