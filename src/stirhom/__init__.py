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

__all__ = [
    "BettiVector", "ClassFunction", "GraphComplex", "SparseIntMatrix",
    "StirlingComplex", "decompose", "equivariant_euler_character",
    "hook_length_dimension", "irreducible_character", "rank_exact",
    "stirling_signed", "stirling_unsigned",
]

__version__ = "0.1.0"
