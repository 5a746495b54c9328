"""Stirling numbers, characters, and decompositions.

The border-strip character values are cross-checked against a fully
independent construction: permutation-module characters (counted by
distributing cycles into row blocks) orthogonalized down the dominance
order, which produces the irreducible character table without any strip
combinatorics.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from stirhom import characters as C
from stirhom.graphcomplex import GraphComplex
from stirhom.stirling import StirlingComplex

from helpers import (chain_character, class_sign, cycle_type,
                     even_cycle_count_sum, restricted_chain_character,
                     sign_character, trace_character)


# ---------------------------------------------------------------------------
# Stirling triangle


def test_table_matches_reported_values():
    expected = {
        1: [1],
        2: [1, 1],
        3: [2, 3, 1],
        4: [6, 11, 6, 1],
        5: [24, 50, 35, 10, 1],
        6: [120, 274, 225, 85, 15, 1],
        7: [720, 1764, 1624, 735, 175, 21, 1],
    }
    for n, row in expected.items():
        for k, value in enumerate(row, start=1):
            assert C.stirling_unsigned(n, k) == value
            assert C.stirling_signed(n, k) == (-1) ** (n - k) * value


def test_out_of_range_is_zero():
    assert C.stirling_signed(3, 0) == 0
    assert C.stirling_signed(3, 4) == 0
    assert C.stirling_signed(0, 1) == 0
    assert C.stirling_signed(5, 5) == 1


def test_basics_identities():
    assert all(C.verify_basics(n) for n in range(1, 21))
    assert C.stirling_signed(5, 4) == -math.comb(5, 2)


def test_alternating_identity():
    # worked instance: s(2,1) = C(1,1) s(3,2) + C(2,1) s(3,3) = -3 + 2
    assert C.stirling_signed(2, 1) == -1
    assert math.comb(1, 1) * C.stirling_signed(3, 2) \
        + math.comb(2, 1) * C.stirling_signed(3, 3) == -1
    assert C.verify_identity_alt(2, 1)
    assert C.verify_identity_alt(4, 4)
    assert all(C.verify_identity_alt(n, k)
               for n in range(1, 13) for k in range(1, n + 1))


def test_even_cycle_half_factorial():
    for n in range(2, 12):
        assert even_cycle_count_sum(n) == math.factorial(n) // 2


# ---------------------------------------------------------------------------
# partitions, classes


def test_partitions_basic():
    assert C.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for m in range(1, 9):
        assert sum(C.class_size(mu) for mu in C.partitions(m)) == math.factorial(m)


def test_representative_permutation():
    perm = C.representative_permutation((3, 2))
    assert cycle_type(perm) == (3, 2)
    assert perm[0] in (1, 2)  # 0 sits in the first (long) cycle
    for mu in C.partitions(6):
        assert cycle_type(C.representative_permutation(mu)) == mu


# ---------------------------------------------------------------------------
# irreducible characters vs the permutation-module oracle


def oracle_character_table(m):
    """Character table built without border strips.

    The permutation character of the Young subgroup of a partition counts,
    on each class, the ways to sort the class's cycles into blocks of the
    partition's sizes.  Gram-Schmidt down the lexicographic order (which
    refines dominance) then strips the upper unitriangular mixing.
    """
    parts = C.partitions(m)

    def perm_character(lam, mu):
        rows = list(lam)
        cycles = sorted(mu, reverse=True)

        def count(remaining, fill):
            if not remaining:
                return 1 if all(f == 0 for f in fill) else 0
            head, rest = remaining[0], remaining[1:]
            total = 0
            seen = set()
            for idx, cap in enumerate(fill):
                if cap >= head and (idx, cap) not in seen:
                    seen.add((idx, cap))
                    new_fill = list(fill)
                    new_fill[idx] -= head
                    total += count(rest, tuple(new_fill))
            return total

        return count(tuple(cycles), tuple(rows))

    table = {}
    for lam in parts:  # lexicographically decreasing order
        values = {mu: Fraction(perm_character(lam, mu)) for mu in parts}
        for prev in table:
            inner = sum(C.class_size(mu) * values[mu] * table[prev][mu]
                        for mu in parts) / math.factorial(m)
            if inner:
                values = {mu: values[mu] - inner * table[prev][mu] for mu in parts}
        table[lam] = values
    return table


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_characters_match_permutation_module_oracle(m):
    table = oracle_character_table(m)
    for lam, values in table.items():
        for mu in C.partitions(m):
            assert C.irreducible_character(lam, mu) == values[mu]


def test_character_values():
    assert all(C.irreducible_character((4,), mu) == 1 for mu in C.partitions(4))
    assert all(C.irreducible_character((1, 1, 1, 1), mu) == class_sign(mu)
               for mu in C.partitions(4))
    assert C.irreducible_character((3, 1), (2, 1, 1)) == 1
    with pytest.raises(ValueError):
        C.irreducible_character((3, 1), (2, 1))


def test_orthogonality():
    for m in range(1, 9):
        chars = {lam: C.character_of(lam) for lam in C.partitions(m)}
        for lam, a in chars.items():
            for nu, b in chars.items():
                assert a.inner(b) == (1 if lam == nu else 0)


def test_hook_dimensions():
    assert C.hook_length_dimension((6,)) == 1
    assert C.hook_length_dimension((2, 1)) == 2
    dims = [C.hook_length_dimension(lam)
            for lam in [(3, 3), (2, 2, 1, 1), (3, 2, 1), (5, 1)]]
    assert sum(dims) == C.stirling_unsigned(5, 3) == 35
    for m in range(1, 8):
        assert sum(C.hook_length_dimension(lam) ** 2
                   for lam in C.partitions(m)) == math.factorial(m)


# ---------------------------------------------------------------------------
# class functions and decomposition


def test_decompose_roundtrip_examples():
    cf = C.character_of((3, 1)) + C.character_of((2, 2))
    assert C.decompose(cf) == [((3, 1), 1), ((2, 2), 1)]
    assert C.decompose(sign_character(5)) == [((1, 1, 1, 1, 1), 1)]


@settings(max_examples=25, deadline=None)
@given(st_.lists(st_.integers(0, 3), min_size=5, max_size=5))
def test_decompose_roundtrip_random(mults):
    parts = C.partitions(4)
    values = {mu: 0 for mu in parts}
    for lam, mult in zip(parts, mults):
        if mult:
            for mu in parts:
                values[mu] += mult * C.irreducible_character(lam, mu)
    cf = C.ClassFunction(4, values)
    recovered = dict(C.decompose(cf))
    assert recovered == {lam: mult for lam, mult in zip(parts, mults) if mult}


def test_decompose_rejects_virtual_and_fractional():
    parts = C.partitions(3)
    minus_trivial = C.ClassFunction(3, {mu: -1 for mu in parts})
    with pytest.raises(C.DecompositionError):
        C.decompose(minus_trivial)
    half = C.ClassFunction(3, {mu: Fraction(1, 2) if mu == (1, 1, 1) else 0
                               for mu in parts})
    with pytest.raises(C.DecompositionError):
        C.decompose(half)


def test_class_function_requires_all_classes():
    with pytest.raises(ValueError):
        C.ClassFunction(3, {(3,): 1})


# ---------------------------------------------------------------------------
# homology characters


def test_equivariant_euler_at_identity_is_top_betti():
    for n, k in [(3, 2), (4, 3), (4, 4)]:
        cf = C.equivariant_euler_character(StirlingComplex(n, k))
        assert cf((1,) * (n + 1)) == C.stirling_unsigned(n, k)
        decomposition = C.decompose(cf)
        assert sum(mult * C.hook_length_dimension(lam)
                   for lam, mult in decomposition) == C.stirling_unsigned(n, k)


def graph_permutation(mu):
    return [p + 1 for p in C.representative_permutation(mu)]


@pytest.mark.parametrize("make,size,perm_of", [
    *[(functools.partial(StirlingComplex, n, k), n + 1,
       C.representative_permutation)
      for n, k in [(3, 2), (4, 2), (5, 3), (5, 5)]],
    *[(functools.partial(GraphComplex, m), m, graph_permutation)
      for m in (4, 5)]])
def test_streamed_traces_match_traces_of_the_whole_complex(make, size, perm_of):
    # homology_character takes its traces inside the complex's one pass;
    # the same alternating sum over a complex that keeps every degree
    cx = make()
    streamed = C.homology_character(cx, size, perm_of)
    top = cx.homology().betti.support()
    fresh = make()
    assert streamed == trace_character(fresh, size, perm_of,
                                       range(fresh.max_edges + 1),
                                       (-1) ** top[0])


def test_full_alternating_complexes_give_sign():
    for n in [2, 3, 4]:
        assert C.equivariant_euler_character(StirlingComplex(n, n)) == sign_character(n + 1)


def test_chain_character_of_near_top():
    assert C.decompose(chain_character(StirlingComplex(4, 3), 0)) == [((2, 1, 1, 1), 1)]


def test_restricted_zero_degree_characters():
    for n in [3, 4]:
        assert restricted_chain_character(StirlingComplex(n, n), 0) == sign_character(n)
        expected = C.character_of((1,) * n) + C.character_of((2,) + (1,) * (n - 2))
        assert restricted_chain_character(StirlingComplex(n, n - 1), 0) == expected


def _diagonal_sum(matrix):
    return sum(v for r, c, v in matrix.triplets() if r == c)


def test_trace_is_the_action_diagonal():
    # the trace reads only the action terms that land on their source; the
    # whole action matrix is its oracle, at the representative of every
    # cycle type and in every degree
    cases = [(StirlingComplex(n, k, orient_seed=seed), n + 1, C.representative_permutation)
             for n in range(2, 6) for k in range(2, n + 1) for seed in (0, 12345)]
    cases += [(GraphComplex(m, orientation_kill=kill), m,
               lambda mu: [p + 1 for p in C.representative_permutation(mu)])
              for m in range(3, 6) for kill in (True, False)]
    for cx, size, perm_of in cases:
        for mu in C.partitions(size):
            perm = perm_of(mu)
            for i in range(cx.max_edges + 1):
                assert cx.trace(i, perm) == _diagonal_sum(cx.action_matrix(i, perm))


@functools.lru_cache(maxsize=None)
def _complex(kind, size, k_or_kill, seed):
    if kind == "stirling":
        return StirlingComplex(size, k_or_kill, orient_seed=seed)
    return GraphComplex(size, orientation_kill=k_or_kill, orient_seed=seed)


def _labels(cx):
    return range(cx.n + 1) if isinstance(cx, StirlingComplex) else range(1, cx.m + 1)


def _assert_trace_is_the_diagonal(cx, perm):
    for i in range(cx.max_edges + 1):
        assert cx.trace(i, perm) == _diagonal_sum(cx.action_matrix(i, perm))


def test_trace_is_the_diagonal_for_all_of_s4():
    # the trace stops relabeling at the first piece that moves; every
    # permutation of four letters, each its own matrix oracle
    cases = [_complex("graph", 4, kill, seed)
             for kill in (True, False) for seed in (0, 12345)]
    cases += [_complex("stirling", 3, k, seed) for k in (2, 3) for seed in (0, 12345)]
    for cx in cases:
        for perm in itertools.permutations(_labels(cx)):
            _assert_trace_is_the_diagonal(cx, perm)


@st_.composite
def complexes_and_permutations(draw):
    """A Stirling complex with 2 <= k <= n <= 5 or a graph complex with
    m <= 5, and two permutations of its labels as dicts."""
    seed = draw(st_.sampled_from((0, 12345)))
    if draw(st_.booleans()):
        n = draw(st_.integers(2, 5))
        cx = _complex("stirling", n, draw(st_.integers(2, n)), seed)
    else:
        cx = _complex("graph", draw(st_.integers(3, 5)), draw(st_.booleans()), seed)
    labels = list(_labels(cx))
    sigma, tau = (dict(zip(labels, draw(st_.permutations(labels)))) for _ in range(2))
    return cx, sigma, tau


@settings(max_examples=60, deadline=None)
@given(complexes_and_permutations())
@example((_complex("stirling", 4, 2, 0), {0: 1, 1: 0, 2: 2, 3: 3, 4: 4},
          {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}))
@example((_complex("stirling", 5, 3, 12345), {0: 3, 1: 5, 2: 0, 3: 1, 4: 4, 5: 2},
          {0: 2, 1: 0, 2: 1, 3: 3, 4: 5, 5: 4}))
def test_trace_is_a_class_function_of_any_permutation(case):
    # leg 0 moving re-roots the tree; the trade terms and the complement
    # are where a fixed term would hide from an early exit
    cx, sigma, tau = case
    labels = _labels(cx)
    as_sequence = [sigma[j] for j in labels]
    conjugate = {tau[j]: tau[sigma[j]] for j in labels}
    _assert_trace_is_the_diagonal(cx, as_sequence)
    for i in range(cx.max_edges + 1):
        value = cx.trace(i, as_sequence)
        assert cx.trace(i, sigma) == value
        assert cx.trace(i, conjugate) == value
