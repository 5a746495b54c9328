#!/usr/bin/env python3
"""Reproduce every desk-scale headline number in one run.

Builds the full grid of Stirling complexes with 2 <= k <= n <= N (default
6), the genus-one graph complexes with 3 <= m <= M (default 6), and the
homology decompositions, printing a one-line summary per object.  Add
--include-large to also run the two big types (7, 2) and (7, 3).
"""

import argparse
import math
import time

from stirhom import characters as C
from stirhom import stirling as S
from stirhom.cli import MAX_N
from stirhom.graphcomplex import GraphComplex, verify_decomposition

# the largest m whose graph complex is built: GC(7) runs in seconds, and
# GC(8) has 3.79M generators
MAX_M = 7
LARGE = [(7, 2), (7, 3)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-m", type=int, default=6)
    parser.add_argument("--include-large", action="store_true",
                        help="also run types (7, 2) and (7, 3)")
    args = parser.parse_args()
    if args.max_n > MAX_N or args.max_m > MAX_M:
        raise SystemExit(f"reproduce requires --max-n <= {MAX_N} and --max-m <= {MAX_M}")

    start = time.time()
    failures = 0

    print("== Stirling complexes ==")
    types = [(n, k) for n in range(2, args.max_n + 1) for k in range(2, n + 1)]
    if args.include_large:
        types += [large for large in LARGE if large not in types]
    for n, k in types:
        t0 = time.time()
        result = S.survey(n, k)
        expected = C.stirling_unsigned(n, k)
        betti = result["betti"]
        ok = (result["concentrated_in"] == n and betti[n] == expected
              and result["reach_ok"]
              and result["euler"] == C.stirling_signed(n, k))
        failures += not ok
        print(f"  ({n},{k}): betti_top={betti[n]} expected={expected} "
              f"d2={result['d2_ok']} reach={result['reach_ok']} "
              f"[{time.time() - t0:.1f}s] {'ok' if ok else 'MISMATCH'}")

    print("== genus-one graph complexes ==")
    for m in range(3, args.max_m + 1):
        t0 = time.time()
        cx = GraphComplex(m)
        # the character comparison takes the graph's one pass, which leaves
        # the homology printed below
        decomposed = verify_decomposition(cx)
        result = cx.homology()
        betti = result.betti
        expected = math.factorial(m - 1) // 2
        top = result.concentrated_in
        ok = top is not None and betti[top] == expected and decomposed
        failures += not ok
        print(f"  m={m}: betti={betti.as_dict()} expected_top={expected} "
              f"[{time.time() - t0:.1f}s] {'ok' if ok else 'MISMATCH'}")

    print("== homology decompositions ==")
    for n in range(2, min(args.max_n, 6) + 1):
        cf = C.equivariant_euler_character(S.StirlingComplex(n, n))
        print(f"  ({n},{n}): {C.decompose(cf)}")
    for n in range(3, min(args.max_n, 6) + 1):
        cf = C.equivariant_euler_character(S.StirlingComplex(n, n - 1))
        print(f"  ({n},{n - 1}): {C.decompose(cf)}")
    if args.max_n >= 5:
        cf = C.equivariant_euler_character(S.StirlingComplex(5, 3))
        print(f"  (5,3): {C.decompose(cf)}")

    print(f"done in {time.time() - start:.1f}s, {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
