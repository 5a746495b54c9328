"""Stirling numbers of the first kind and symmetric-group character theory.

Covers the signed Stirling triangle and its identities, irreducible
characters via the border-strip (Murnaghan-Nakayama) recursion, hook-length
dimensions, class functions with inner products and exact irreducible
decomposition, and the one trace routine behind every homology character:
the equivariant Euler characteristic of a complex, taken in its one pass
over the degrees, which equals the character of its homology once
concentration is established.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .linalg import _Record


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind


@lru_cache(maxsize=None)
def _signed_row(n):
    # s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k), s(1, 1) = 1
    if n == 1:
        return (0, 1)
    prev = _signed_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        left = prev[k - 1] if k - 1 < len(prev) else 0
        right = prev[k] if k < len(prev) else 0
        row[k] = left - (n - 1) * right
    return tuple(row)


def stirling_signed(n, k):
    """Signed Stirling number of the first kind; zero outside 1 <= k <= n."""
    if n < 1 or k < 1 or k > n:
        return 0
    return _signed_row(n)[k]


def stirling_unsigned(n, k):
    return abs(stirling_signed(n, k))


def stirling_table(max_n):
    """Signed values for 1 <= k <= n <= max_n as a dict of dicts."""
    return {n: {k: stirling_signed(n, k) for k in range(1, n + 1)}
            for n in range(1, max_n + 1)}


def verify_basics(n):
    """The four elementary identities of the signed triangle at a given n."""
    total_abs = sum(stirling_unsigned(n, k) for k in range(1, n + 1))
    if total_abs != math.factorial(n):
        return False
    if n >= 2 and stirling_signed(n, n - 1) != -math.comb(n, 2):
        return False
    if n >= 3 and 4 * stirling_signed(n, n - 2) != math.comb(n, 3) * (3 * n - 1):
        return False
    if n >= 2 and sum(stirling_signed(n, k) for k in range(1, n + 1)) != 0:
        return False
    return True


def verify_identity_alt(n, k):
    """s(n, k) as a binomially weighted alternating sum over the next row."""
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    rhs = sum(math.comb(m - 1, k) * stirling_signed(n + 1, m)
              for m in range(k + 1, n + 2))
    return stirling_signed(n, k) == rhs


# ---------------------------------------------------------------------------
# partitions and conjugacy classes


def partitions(m):
    """All partitions of m as weakly decreasing tuples, reverse-lex order."""
    result = []

    def extend(remaining, cap, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(remaining - part, part, prefix)
            prefix.pop()

    extend(m, m, [])
    return result


def is_partition(lam):
    return (all(isinstance(p, int) and p > 0 for p in lam)
            and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)))


def class_size(mu):
    """Number of permutations with cycle type mu (centralizer formula)."""
    m = sum(mu)
    z = 1
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for length, mult in counts.items():
        z *= length ** mult * math.factorial(mult)
    return math.factorial(m) // z


def representative_permutation(mu):
    """The permutation of 0..m-1 with consecutive cycles of sizes mu,
    the first cycle containing 0."""
    perm = []
    start = 0
    for part in mu:
        perm.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(perm)


# ---------------------------------------------------------------------------
# irreducible characters


@lru_cache(maxsize=None)
def _mn(lam, mu):
    if not mu:
        return 1
    strip = mu[0]
    rest = mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for bj in beta if nb < bj < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(nbj - (length - 1 - pos)
                        for pos, nbj in enumerate(new_beta))
        new_lam = tuple(part for part in new_lam if part > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def irreducible_character(lam, mu):
    """Value of the irreducible character of partition lam at cycle type mu."""
    lam, mu = tuple(lam), tuple(mu)
    if not (is_partition(lam) and is_partition(mu)):
        raise ValueError("arguments must be partitions")
    if sum(lam) != sum(mu):
        raise ValueError("partition weights differ")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


def hook_length_dimension(lam):
    """Dimension of the irreducible representation of a partition."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("not a partition")
    conjugate = [sum(1 for part in lam if part > col) for col in range(lam[0])] \
        if lam else []
    product = 1
    for row, part in enumerate(lam):
        for col in range(part):
            product *= (part - col) + (conjugate[col] - row) - 1
    return math.factorial(sum(lam)) // product


# ---------------------------------------------------------------------------
# class functions and decomposition


class DecompositionError(ValueError):
    """A class function failed to decompose into irreducibles exactly."""


class ClassFunction(_Record):
    """A rational-valued function on the conjugacy classes of S_m."""

    _fields = ("m", "values")

    def __init__(self, m, values):
        self.m, self.values = m, values
        expected, given = set(partitions(self.m)), set(self.values)
        problems = []
        if expected - given:
            problems.append(f"values missing for cycle types {sorted(expected - given)}")
        if given - expected:
            problems.append(f"values given for cycle types "
                            f"{sorted(given - expected, key=repr)}, "
                            f"which are not partitions of {self.m}")
        if problems:
            raise ValueError("; ".join(problems))

    def __call__(self, mu):
        return self.values[tuple(mu)]

    def inner(self, other):
        # the one use of ``fractions``, imported here so that only a
        # decomposition loads it (and ``decimal`` with it)
        from fractions import Fraction

        total = Fraction(0)
        for mu in partitions(self.m):
            total += class_size(mu) * Fraction(self.values[mu]) * other.values[mu]
        return total / math.factorial(self.m)

    def __add__(self, other):
        if self.m != other.m:
            raise ValueError("weights differ")
        return ClassFunction(self.m, {mu: self.values[mu] + other.values[mu]
                                      for mu in partitions(self.m)})


def character_of(lam):
    lam = tuple(lam)
    m = sum(lam)
    return ClassFunction(m, {mu: irreducible_character(lam, mu)
                             for mu in partitions(m)})


def decompose(cf):
    """Multiplicities of every irreducible in a class function.

    Returns ``[(partition, multiplicity)]`` for the nonzero multiplicities;
    raises DecompositionError when any inner product is negative or
    non-integral (which would indicate an upstream sign bug rather than a
    virtual character worth rounding).
    """
    out = []
    for lam in partitions(cf.m):
        mult = cf.inner(character_of(lam))
        if mult.denominator != 1:
            raise DecompositionError(
                f"non-integral multiplicity {mult} at partition {lam}")
        mult = int(mult)
        if mult < 0:
            raise DecompositionError(
                f"negative multiplicity {mult} at partition {lam}")
        if mult:
            out.append((lam, mult))
    return out


# ---------------------------------------------------------------------------
# characters of homology


def equivariant_euler_character(cx):
    """Character of the homology of ``cx`` under the symmetric group on its
    ``legs``, whose cycle type mu acts as ``representative_permutation(mu)``
    carried onto the legs: the n+1 leg labels of a Stirling complex, the m
    legs of a graph complex.  The homology must be concentrated in one total
    degree (verified, with d^2 = 0; failure would signal an upstream bug
    and make the identification invalid).

    The one trace routine: in the complex's one pass (``cx.degrees()``),
    each degree adds (-1)^(total degree) times its trace at every mu, and
    the sum is normalized so that the value at the identity equals the
    Betti number of the concentration degree.  ``cx.trace`` applies the
    action terms only to the keys the relabeling can fix, which the complex
    enumerates, and reads the identity's trace off dim C_i, so no action
    matrix is built and no degree is scanned.
    """
    legs = cx.legs
    perms = {mu: [legs[p] for p in representative_permutation(mu)]
             for mu in partitions(len(legs))}
    values = dict.fromkeys(perms, 0)
    for i in cx.degrees():
        sign = (-1) ** cx.total_degree(i)
        for mu, perm in perms.items():
            values[mu] += sign * cx.trace(i, perm)
    result = cx.homology()
    top = result.concentrated_in
    if top is None:
        raise RuntimeError(f"homology is not concentrated in one degree: "
                           f"{result.betti.as_dict()} ({result.certificate})")
    return ClassFunction(len(legs), {mu: (-1) ** top * v for mu, v in values.items()})
