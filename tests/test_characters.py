"""Stirling numbers, characters, and decompositions.

The border-strip character values are cross-checked against a fully
independent construction: permutation-module characters (counted by
distributing cycles into row blocks) orthogonalized down the dominance
order, which produces the irreducible character table without any strip
combinatorics.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from stirhom import characters as C
from stirhom.graphcomplex import GraphComplex, _normal_cycle
from stirhom.linalg import BettiVector, Homology
from stirhom.stirling import StirlingComplex, _mask_set

from closed_forms import dihedral_character, stirling_character
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
    # the trivial character's multiplicity is (1/2) / 3! = 1/12
    with pytest.raises(C.DecompositionError, match="non-integral multiplicity 1/12 at"):
        C.decompose(half)


def test_class_function_requires_all_classes():
    with pytest.raises(ValueError):
        C.ClassFunction(3, {(3,): 1})
    with pytest.raises(ValueError, match=r"missing for cycle types \[\(2, 1\)\]"):
        C.ClassFunction(m=3, values={(3,): 1, (1, 1, 1): 1})
    # a cycle type that is no partition of m is named, and nothing is
    # called missing when nothing is
    every = {mu: 1 for mu in C.partitions(3)}
    with pytest.raises(ValueError, match=r"^values given for cycle types \[\(4,\)\], "
                                         r"which are not partitions of 3$"):
        C.ClassFunction(3, {**every, (4,): 1})
    with pytest.raises(ValueError, match=r"^values missing for cycle types \[\(3,\)\]; "
                                         r"values given for cycle types \[\(2, 2\)\], "
                                         r"which are not partitions of 3$"):
        C.ClassFunction(3, {(2, 1): 1, (1, 1, 1): 1, (2, 2): 1})


@pytest.mark.parametrize("cls,fields,others", [
    (BettiVector, {"values": {0: 1, 2: 3}}, [{"values": {0: 1}}]),
    (Homology, {"dims": {0: 2, 1: 1}, "ranks": {1: 1}, "betti": BettiVector({0: 1}),
                "certificate": "morse-integral"},
     [{"dims": {0: 2, 1: 2}, "ranks": {1: 1}, "betti": BettiVector({0: 1, 1: 1}),
       "certificate": "morse-integral"},
      {"dims": {0: 2, 1: 1}, "ranks": {1: 1}, "betti": BettiVector({0: 1}),
       "certificate": "exact-rational"}]),
    (C.ClassFunction, {"m": 2, "values": {(2,): 1, (1, 1): 1}},
     [{"m": 2, "values": {(2,): -1, (1, 1): 1}}, {"m": 1, "values": {(1,): 1}}]),
], ids=["BettiVector", "Homology", "ClassFunction"])
def test_value_classes_behave_as_dataclasses(cls, fields, others):
    # the public value classes are plain classes, which keep what the
    # dataclass of the same fields gives: the constructor, == and != by
    # field on the exact class, no hash and the repr
    twin = dataclasses.make_dataclass(cls.__name__, list(fields))
    value = cls(**fields)
    assert vars(value) == fields
    assert value == cls(*fields.values())
    assert not value != cls(*fields.values())
    assert repr(value) == repr(twin(**fields))
    for other in others:
        assert value != cls(**other)
        assert not value == cls(**other)
    assert value != twin(**fields)
    assert value != type("Sub", (cls,), {})(**fields)
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


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
    # equivariant_euler_character takes its traces inside the complex's one pass,
    # its group read off the complex's legs; the same alternating sum over
    # a complex that keeps every degree, with the group given here
    cx = make()
    streamed = C.equivariant_euler_character(cx)
    top = cx.homology().betti.support()
    fresh = make()
    assert streamed == trace_character(fresh, size, perm_of,
                                       range(fresh.max_edges + 1),
                                       (-1) ** top[0])


def test_character_refuses_homology_outside_one_degree():
    # the negative control fails d^2 = 0 and spreads over two degrees, so
    # its homology has no single degree to sign the character by
    with pytest.raises(RuntimeError, match=r"^homology is not concentrated "
                       r"in one degree: \{0: 0, 1: 0, 2: 0, 3: -2, 4: 1\} "
                       r"\(unverified\)$"):
        C.equivariant_euler_character(GraphComplex(4, orientation_kill=False))


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
    # cycle type and in every degree; GC(6) and (5, 2), (5, 4) are the
    # complexes `stirhom graph --m 6 --characters` traces
    cases = [(StirlingComplex(n, k), n + 1, C.representative_permutation)
             for n in range(2, 6) for k in range(2, n + 1)]
    cases += [(GraphComplex(m, orientation_kill=kill), m, graph_permutation)
              for m in range(3, 6) for kill in (True, False)]
    # with the kill off, GC(6)'s 2-cycles are the one place where a swap of
    # blocks fixes a cycle, so the trace must enumerate them
    cases += [(GraphComplex(6, orientation_kill=kill), 6, graph_permutation)
              for kill in (True, False)]
    for cx, size, perm_of in cases:
        for mu in C.partitions(size):
            perm = perm_of(mu)
            for i in range(cx.max_edges + 1):
                assert cx.trace(i, perm) == _diagonal_sum(cx.action_matrix(i, perm))


def test_traces_apply_the_action_terms_to_the_fixed_keys_alone():
    # on GC(6) the ten non-identity cycle types read the action columns of
    # 3,984 keys over all degrees, exactly the keys they fix (a scan of
    # every degree visits 143,080); the identity reads dim(i) and the
    # columns of none; after the pass every per-degree cache is empty
    cx = GraphComplex(6)
    perms = {mu: tuple(graph_permutation(mu)) for mu in C.partitions(6)}
    applied = dict.fromkeys(perms.values(), 0)
    fixed = dict.fromkeys(perms.values(), 0)
    action_columns = cx.action_columns

    def counted(keys, perm):
        for column in action_columns(keys, perm):
            applied[tuple(perm)] += 1
            yield column

    cx.action_columns = counted
    for i in cx.degrees():
        for perm in perms.values():
            cx.trace(i, perm)
            fixed[perm] += sum((key in plus) + (key in minus) for key, (plus, minus)
                               in action_columns(cx.generators(i), perm))
    identity = perms[(1,) * 6]
    assert applied.pop(identity) == 0
    fixed.pop(identity)
    assert applied == fixed and sum(applied.values()) == 3984
    assert not any(cx._caches)


@functools.lru_cache(maxsize=None)
def _complex(kind, size, k_or_kill):
    if kind == "stirling":
        return StirlingComplex(size, k_or_kill)
    return GraphComplex(size, orientation_kill=k_or_kill)


def _labels(cx):
    return range(cx.n + 1) if isinstance(cx, StirlingComplex) else range(1, cx.m + 1)


def _assert_trace_is_the_diagonal(cx, perm):
    for i in range(cx.max_edges + 1):
        assert cx.trace(i, perm) == _diagonal_sum(cx.action_matrix(i, perm))


def test_trace_is_the_diagonal_for_all_of_s4():
    # the trace stops relabeling at the first piece that moves; every
    # permutation of four letters, each its own matrix oracle
    cases = [_complex("graph", 4, kill) for kill in (True, False)]
    cases += [_complex("stirling", 3, k) for k in (2, 3)]
    for cx in cases:
        for perm in itertools.permutations(_labels(cx)):
            _assert_trace_is_the_diagonal(cx, perm)


@st_.composite
def complexes_and_permutations(draw):
    """A Stirling complex with 2 <= k <= n <= 5 or a graph complex with
    m <= 5, and two permutations of its labels as dicts."""
    if draw(st_.booleans()):
        n = draw(st_.integers(2, 5))
        cx = _complex("stirling", n, draw(st_.integers(2, n)))
    else:
        cx = _complex("graph", draw(st_.integers(3, 5)), draw(st_.booleans()))
    labels = list(_labels(cx))
    sigma, tau = (dict(zip(labels, draw(st_.permutations(labels)))) for _ in range(2))
    return cx, sigma, tau


@settings(max_examples=60, deadline=None)
@given(complexes_and_permutations())
@example((_complex("stirling", 4, 2), {0: 1, 1: 0, 2: 2, 3: 3, 4: 4},
          {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}))
@example((_complex("stirling", 5, 3), {0: 3, 1: 5, 2: 0, 3: 1, 4: 4, 5: 2},
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


LOOP6, PAIRS6 = (0b1111110,), (0b110, 0b11000, 0b1100000)


@pytest.mark.parametrize("perm,image", [
    # (1 3 5)(2 4 6) rotates the blocks {1, 2}, {3, 4}, {5, 6} of a 3-cycle
    ([3, 4, 5, 6, 1, 2], PAIRS6[1:] + PAIRS6[:1]),
    # (3 5)(4 6) reflects them, so two cycle edges trade names
    ([1, 2, 5, 6, 3, 4], PAIRS6[:1] + PAIRS6[:0:-1])], ids=["rotation", "reflection"])
def test_trace_is_the_diagonal_when_blocks_move(perm, image):
    # a relabeling relabels each cycle once and keeps the image: here the
    # cycle is kept, though its blocks move
    assert tuple(sum(1 << perm[j - 1] for j in range(1, 7) if b >> j & 1)
                 for b in PAIRS6) == image
    assert _normal_cycle(image) == PAIRS6
    for kill in (True, False):
        _assert_trace_is_the_diagonal(_complex("graph", 6, kill), perm)


def test_trace_is_the_diagonal_when_a_kept_cycle_moves_a_cluster():
    # (1 3)(2 4) keeps the loop and swaps the clusters {1, 2} and {3, 4},
    # so the key with both is fixed and the key with {1, 2} alone is not:
    # the trace must enumerate the one and may skip the other
    perm = [3, 4, 1, 2, 5, 6]
    cx = _complex("graph", 6, True)
    both, one = (LOOP6, _mask_set([0b110, 0b11000])), (LOOP6, _mask_set([0b110]))
    assert both in cx.rows(3) and one in cx.rows(2)
    targets = {key: plus + minus for key, (plus, minus) in cx.action_columns([both, one], perm)}
    assert targets[both] == [both]
    assert targets[one] != [one]
    assert both in set(cx.fixable_keys(3, perm))
    assert one not in set(cx.fixable_keys(2, perm))
    for kill in (True, False):
        _assert_trace_is_the_diagonal(_complex("graph", 6, kill), perm)


def test_relabelings_alive_at_once_keep_their_own_verdicts():
    # each relabeling keeps the images of the cycle or tree its run of keys
    # is on in its own stream; two streams of one complex read turn about
    # must not share them, and neither may the traces they give
    cases = [(_complex("graph", 5, True), [1, 2, 3, 4, 5], [2, 1, 4, 5, 3]),
             (_complex("stirling", 5, 2), [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4])]
    for cx, identity, other in cases:
        for i in range(cx.max_edges + 1):
            for first, second in ((identity, other), (other, identity)):
                keys = cx.generators(i)
                a, b = cx.action_columns(keys, first), cx.action_columns(keys, second)
                sums = [0, 0]
                for (key, (a_plus, a_minus)), (_key, (b_plus, b_minus)) in zip(a, b):
                    sums[0] += (key in a_plus) - (key in a_minus)
                    sums[1] += (key in b_plus) - (key in b_minus)
                diagonals = [_diagonal_sum(cx.action_matrix(i, first)),
                             _diagonal_sum(cx.action_matrix(i, second))]
                assert sums == diagonals
                assert [cx.trace(i, first), cx.trace(i, second)] == diagonals


# ---------------------------------------------------------------------------
# the Stirling closed form, which counts no generator and takes no trace


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(2, n + 1)])
def test_stirling_character_is_the_eulerian_closed_form(n, k):
    # a trace bug that hits the graph and the Stirling sides alike fails here
    assert C.equivariant_euler_character(StirlingComplex(n, k)) == stirling_character(n, k)


@pytest.mark.parametrize("m", range(3, 11))
def test_even_stirling_closed_forms_sum_to_the_dihedral_form(m):
    # the two closed forms agree on the decomposition of GC(m), m <= 10,
    # with no complex built
    pieces = [stirling_character(m - 1, k) for k in range(2, m, 2)]
    assert sum(pieces[1:], pieces[0]) == dihedral_character(m)
