"""Acceptance suite: every headline quantity at its stated tolerance.

Each criterion prints one PASS/FAIL line.  All comparisons are exact.
Every type runs through ``survey``, the complex's one pass over its
degrees, which holds at most two degrees of generators and runs the reach
check as it goes.  The results are cached and shared between the rank,
composition and filtration criteria, which that one pass computes
together.
"""

from __future__ import annotations

import math
import random
import time
from functools import lru_cache

from stirhom import characters as C
from stirhom import stirling as S
from stirhom.graphcomplex import GraphComplex, verify_decomposition

from helpers import restricted_chain_character, sign_character

ALL_SMALL = [(n, k) for n in range(2, 7) for k in range(2, n + 1)]
LARGE = [(7, 2), (7, 3)]


def report(number, name, ok):
    print(f"\nCRITERION {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@lru_cache(maxsize=None)
def cached_survey(n, k, orient_seed=0, reach_check=True):
    return S.survey(n, k, orient_seed=orient_seed, reach_check=reach_check)


def test_criterion_1_stirling_table():
    expected = {
        1: [1],
        2: [1, 1],
        3: [2, 3, 1],
        4: [6, 11, 6, 1],
        5: [24, 50, 35, 10, 1],
        6: [120, 274, 225, 85, 15, 1],
        7: [720, 1764, 1624, 735, 175, 21, 1],
    }
    start = time.time()
    ok = all(C.stirling_unsigned(n, k) == expected[n][k - 1]
             for n in expected for k in range(1, n + 1))
    ok = ok and sum(len(r) for r in expected.values()) == 28
    ok = ok and all(C.verify_basics(n) for n in range(1, 13))
    ok = ok and all(C.verify_identity_alt(n, k)
                    for n in range(1, 13) for k in range(1, n + 1))
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    report(1, f"stirling table, {elapsed:.3f}s", ok)


def test_criterion_2_betti_numbers():
    ok = True
    for n, k in ALL_SMALL + LARGE:
        result = cached_survey(n, k)
        betti = result["betti"]
        expected = C.stirling_unsigned(n, k)
        if betti[n] != expected:
            ok = False
        if any(b != 0 for d, b in betti.values.items() if d != n):
            ok = False
    ok = ok and cached_survey(7, 2)["betti"][7] == 1764
    ok = ok and cached_survey(7, 3)["betti"][7] == 1624
    report(2, "top homology equals unsigned stirling numbers", ok)


def test_criterion_3_d_squared_and_reach():
    ok = all(cached_survey(n, k)["d2_ok"] and cached_survey(n, k)["reach_ok"]
             for n, k in ALL_SMALL + LARGE)
    report(3, "d squared zero and reach filtration", ok)


def test_coreduction_certificates():
    # every type's homology is read off a zero residual, so it holds over Z
    for n, k in ALL_SMALL + LARGE:
        assert cached_survey(n, k)["certificate"] == "morse-integral", (n, k)


def test_criterion_4_equivariance():
    start = time.time()
    rng = random.Random(2024)
    ok = True
    pairs_pool = []
    for n in range(2, 6):
        for k in range(2, n + 1):
            cx = S.StirlingComplex(n, k)
            for i in range(1, n + 1):
                if not cx.verify_equivariance(S.transposition(n, 0, i)):
                    ok = False
            for _ in range(10):
                perm = list(range(n + 1))
                rng.shuffle(perm)
                if not cx.verify_equivariance(tuple(perm)):
                    ok = False
            pairs_pool.append(cx)
    for _ in range(20):
        cx = pairs_pool[rng.randrange(len(pairs_pool))]
        sigma = list(range(cx.n + 1))
        tau = list(range(cx.n + 1))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        if not cx.verify_group_law([(tuple(sigma), tuple(tau))]):
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    report(4, f"equivariance and group law, {elapsed:.1f}s", ok)


def test_criterion_5_decompositions():
    ok = True
    for n in range(2, 7):
        cf = C.equivariant_euler_character(S.StirlingComplex(n, n))
        if cf != sign_character(n + 1):
            ok = False
        if C.decompose(cf) != [((1,) * (n + 1), 1)]:
            ok = False
    for n in range(3, 7):
        cf = C.equivariant_euler_character(S.StirlingComplex(n, n - 1))
        expected_lam = (3,) + (1,) * (n - 2)
        if C.decompose(cf) != [(expected_lam, 1)]:
            ok = False
        # hook-length dimension must reproduce the adjacent-diagonal value
        if C.hook_length_dimension(expected_lam) != math.comb(n, 2):
            ok = False
        if sum(mult * C.hook_length_dimension(lam)
               for lam, mult in C.decompose(cf)) != C.stirling_unsigned(n, n - 1):
            ok = False
    cf = C.equivariant_euler_character(S.StirlingComplex(5, 3))
    expected = {(3, 3): 1, (2, 2, 1, 1): 1, (3, 2, 1): 1, (5, 1): 1}
    if dict(C.decompose(cf)) != expected:
        ok = False
    total = sum(mult * C.hook_length_dimension(lam)
                for lam, mult in expected.items())
    quarter = math.comb(5, 3) * (3 * 5 - 1) // 4
    if not (total == quarter == C.stirling_unsigned(5, 3) == 35):
        ok = False
    report(5, "homology decompositions into irreducibles", ok)


def test_criterion_6_graph_complex():
    ok = True
    for m in range(3, 7):
        cx = GraphComplex(m)
        betti = cx.betti()
        support = betti.support()
        if len(support) != 1:
            ok = False
            continue
        value = betti[support[0]]
        even_sum = sum(C.stirling_unsigned(m - 1, k) for k in range(2, m, 2))
        if not (value == math.factorial(m - 1) // 2 == even_sum):
            ok = False
        # read off a zero residual, so the rank holds over Z
        if cx.homology().certificate != "morse-integral":
            ok = False
        if not verify_decomposition(cx):
            ok = False
    report(6, "genus-one graph homology ranks", ok)


def test_criterion_7_property_suite():
    ok = True
    # orientation perturbation leaves every Betti number fixed
    for n, k in ALL_SMALL:
        base = cached_survey(n, k)["betti"].as_dict()
        remix = cached_survey(n, k, orient_seed=12345, reach_check=False)
        if remix["betti"].as_dict() != base:
            ok = False
    # stated zero-edge chain modules
    for n in range(3, 7):
        if restricted_chain_character(S.StirlingComplex(n, n), 0) \
                != sign_character(n):
            ok = False
        expected = C.character_of((1,) * n) + C.character_of((2,) + (1,) * (n - 2))
        if restricted_chain_character(S.StirlingComplex(n, n - 1), 0) != expected:
            ok = False
    # zero-edge dimensions and the vanishing window, n up to 7 (re-using the
    # criterion-2 surveys for the two heavyweight types)
    for n in range(2, 8):
        for k in range(2, n + 1):
            cx = S.StirlingComplex(n, k)
            if (n, k) in ALL_SMALL + LARGE:
                dims = cached_survey(n, k)["dims"]
            else:
                dims = {i: cx.dim(i) for i in range(n - k + 1)}
            if dims[0] != math.comb(n, k):
                ok = False
            if any(dims[i] == 0 for i in range(n - k + 1)):
                ok = False
            if cx.dim(n - k + 1) != 0:
                ok = False
    report(7, "orientation invariance, chain modules, vanishing window", ok)


def test_criterion_8_negative_control():
    start = time.time()
    changed = False
    for m in (3, 4, 5):
        on = GraphComplex(m).betti().as_dict()
        off = GraphComplex(m, orientation_kill=False).betti().as_dict()
        if on != off:
            changed = True
    elapsed = time.time() - start
    report(8, f"orientation kill is load-bearing, {elapsed:.1f}s",
           changed and elapsed < 30)
