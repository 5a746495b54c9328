"""Command-line interface: every computation as a reproducible subcommand.

All numeric output is exact.  JSON output is deterministic byte-for-byte
(keys sorted, no timestamps) and echoes the seed; the exit code is zero
exactly when every requested check passed.  Each command returns whether
its checks passed and its report in every format it offers (a JSON
payload, CSV rows, text lines, or DOT text); ``main`` writes the one that
was asked for.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys

from . import characters as chars
from . import graphcomplex as gc
from . import stirling as st
from .linalg import composes_to_zero

SCHEMA = 1
# the largest n a Stirling command accepts: (7, 2) already has 283,668
# generators and `betti --n 7 --k 2` peaks near 105 MiB (ru_maxrss, Python
# 3.11 on Linux), and n = 8 is many times larger
MAX_N = 7
# the largest table --max-n: the table's cost grows steeply, 0.15 s at
# n = 100, 1.6 s at 200 and 8.5 s at 300
TABLE_MAX_N = 100


def _seed_default():
    env = os.environ.get("STIRLING_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"STIRLING_SEED must be an integer, got {env!r}")
    return 0


def _status(ok):
    return "PASS" if ok else "FAIL"


def _render(fmt, report):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(report)
        return buf.getvalue()
    if fmt == "table":
        return "\n".join(report) + "\n"
    return report


# ---------------------------------------------------------------------------
# table


def cmd_table(args):
    max_n = args.max_n
    if not 1 <= max_n <= TABLE_MAX_N:
        raise SystemExit(f"table --max-n must be between 1 and {TABLE_MAX_N}")
    table = chars.stirling_table(max_n)
    basics_ok = all(chars.verify_basics(n) for n in range(1, max_n + 1))
    alt_ok = all(chars.verify_identity_alt(n, k)
                 for n in range(1, max_n + 1) for k in range(1, n + 1))
    payload = {
        "schema": SCHEMA,
        "command": "table",
        "max_n": max_n,
        "signed": {str(n): {str(k): v for k, v in row.items()}
                   for n, row in table.items()},
        "unsigned": {str(n): {str(k): abs(v) for k, v in row.items()}
                     for n, row in table.items()},
        "basics_ok": basics_ok,
        "alternating_identity_ok": alt_ok,
    }
    rows = [["n", "k", "signed", "unsigned"]]
    rows += [[n, k, v, abs(v)] for n, row in table.items() for k, v in row.items()]
    lines = [f"signed Stirling numbers of the first kind, n <= {max_n}"]
    width = max(len(str(v)) for row in table.values() for v in row.values()) + 2
    lines.append("n\\k" + "".join(str(k).rjust(width) for k in range(1, max_n + 1)))
    for n, row in table.items():
        lines.append(str(n).ljust(3) + "".join(
            str(row.get(k, "")).rjust(width) for k in range(1, max_n + 1)))
    lines.append(f"identities (row sums, adjacent-k, next-row): "
                 f"{_status(basics_ok and alt_ok)}")
    return basics_ok and alt_ok, {"json": payload, "csv": rows, "table": lines}


# ---------------------------------------------------------------------------
# betti


def _betti_report(n, k):
    result = st.survey(n, k, reach_check=False)
    expected = chars.stirling_unsigned(n, k)
    betti = result["betti"]
    ok = betti[n] == expected and all(b == 0 for d, b in betti.values.items()
                                      if d != n)
    return {
        "n": n, "k": k,
        "dims": {str(i): d for i, d in result["dims"].items()},
        "ranks": {str(i): r for i, r in result["ranks"].items()},
        "betti": {str(d): b for d, b in betti.as_dict().items()},
        "euler": result["euler"],
        "expected_top": expected,
        "d2_ok": result["d2_ok"],
        "status": _status(ok and result["d2_ok"]),
    }


def _betti_lines(report):
    return [
        f"type ({report['n']}, {report['k']})",
        "  dims:  " + " ".join(f"i={i}:{d}" for i, d in report["dims"].items()),
        "  ranks: " + " ".join(f"d{i}:{r}" for i, r in report["ranks"].items()),
        "  betti: " + " ".join(f"b{d}={b}" for d, b in report["betti"].items()),
        f"  euler={report['euler']} expected_top={report['expected_top']} "
        f"d2={report['d2_ok']}  {report['status']}",
    ]


def cmd_betti(args):
    if args.max_n is not None:
        if args.n is not None or args.k is not None:
            raise SystemExit("betti takes --max-n or --n/--k, not both")
        if not 2 <= args.max_n <= MAX_N:
            raise SystemExit(f"betti --max-n must be between 2 and {MAX_N}")
        jobs = [(n, k) for n in range(2, args.max_n + 1) for k in range(2, n + 1)]
    elif args.n is None or args.k is None:
        raise SystemExit("betti requires --n and --k (or --max-n)")
    else:
        jobs = [(args.n, args.k)]
    for n, k in jobs:
        if not 2 <= k <= n <= MAX_N:
            raise SystemExit(f"type ({n}, {k}) requires 2 <= k <= n <= {MAX_N}")
    if args.format == "dot":
        return True, {"dot": "\n".join(st.StirlingComplex(n, k).generator_dot()
                                       for n, k in jobs)}
    reports = [_betti_report(n, k) for n, k in jobs]
    payload = {"schema": SCHEMA, "command": "betti", "seed": args.seed,
               "reports": reports}
    rows = [["n", "k", "degree", "betti", "expected_top", "status"]]
    rows += [[r["n"], r["k"], d, b, r["expected_top"], r["status"]]
             for r in reports for d, b in r["betti"].items()]
    lines = [line for r in reports for line in _betti_lines(r)]
    ok = all(r["status"] == "PASS" for r in reports)
    return ok, {"json": payload, "csv": rows, "table": lines}


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    n, k = args.n, args.k
    if n is None or k is None or not 2 <= k <= n <= MAX_N:
        raise SystemExit(f"verify requires --n and --k with 2 <= k <= n <= {MAX_N}")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"d2", "equivariance", "reach", "euler"}
    unknown = set(checks) - known
    if unknown:
        raise SystemExit(f"unknown checks: {sorted(unknown)}")
    if not checks:
        raise SystemExit(f"no checks given; choose from {sorted(known)}")
    cx = st.StirlingComplex(n, k)
    results = {}
    if "d2" in checks:
        d = cx.differentials()
        results["d2"] = all(composes_to_zero(d[i - 1], d[i]) for i in d if i > 1)
    if "equivariance" in checks:
        rng = random.Random(args.seed)
        pairs = []
        for _ in range(3):
            sigma = list(range(n + 1))
            tau = list(range(n + 1))
            rng.shuffle(sigma)
            rng.shuffle(tau)
            pairs.append((tuple(sigma), tuple(tau)))
        perms = [st.transposition(n, 0, i) for i in range(1, n + 1)]
        perms += [sigma for sigma, _tau in pairs]
        results["equivariance"] = (all(cx.verify_equivariance(p) for p in perms)
                                   and cx.verify_group_law(pairs))
    if "reach" in checks:
        results["reach"] = all(cx.reach_filtration_holds(i)
                               for i in range(cx.max_edges + 1))
    if "euler" in checks:
        results["euler"] = (cx.euler_characteristic()
                            == chars.stirling_signed(n, k))
    ok = all(results.values())
    payload = {"schema": SCHEMA, "command": "verify", "n": n, "k": k,
               "seed": args.seed, "results": results, "status": _status(ok)}
    lines = [f"verify ({n}, {k})"]
    lines += [f"  {name}: {_status(value)}" for name, value in results.items()]
    return ok, {"json": payload, "table": lines}


# ---------------------------------------------------------------------------
# characters


def cmd_characters(args):
    n, k = args.n, args.k
    if n is None or k is None or not 2 <= k <= n or n > 6:
        raise SystemExit("characters requires --n and --k with 2 <= k <= n <= 6")
    cf = chars.equivariant_euler_character(st.StirlingComplex(n, k))
    decomposition = [(lam, mult, chars.hook_length_dimension(lam))
                     for lam, mult in chars.decompose(cf)]
    total = sum(mult * dim for _lam, mult, dim in decomposition)
    expected = chars.stirling_unsigned(n, k)
    ok = total == expected
    values = sorted(cf.values.items())
    payload = {
        "schema": SCHEMA, "command": "characters", "n": n, "k": k,
        "seed": args.seed,
        "class_function": {str(list(mu)): int(v) for mu, v in values},
        "decomposition": [{"partition": list(lam), "multiplicity": mult,
                           "dimension": dim} for lam, mult, dim in decomposition],
        "total_dimension": total,
        "expected_dimension": expected,
        "status": _status(ok),
    }
    rows = [["cycle_type", "value"]]
    rows += [["+".join(map(str, mu)), v] for mu, v in values]
    rows += [[], ["partition", "multiplicity", "dimension"]]
    rows += [["+".join(map(str, lam)), mult, dim] for lam, mult, dim in decomposition]
    lines = [f"top homology character of type ({n}, {k}) "
             f"under the {n + 1}-letter symmetric group"]
    lines += [f"  class {'+'.join(map(str, mu)):>14}: {v}" for mu, v in values]
    lines.append("decomposition:")
    lines += [f"  V_{list(lam)} x {mult} (dim {dim})"
              for lam, mult, dim in decomposition]
    lines.append(f"total dim {total}, expected {expected}: {_status(ok)}")
    return ok, {"json": payload, "csv": rows, "table": lines}


# ---------------------------------------------------------------------------
# graph


def cmd_graph(args):
    m = args.m
    if m is None or not 3 <= m <= 6:
        raise SystemExit("graph requires --m with 3 <= m <= 6")
    kill = not args.disable_orientation_kill
    if args.characters and not kill:
        raise SystemExit("--characters requires the orientation kill")
    if args.characters and args.format == "dot":
        raise SystemExit("--characters cannot be checked with --format dot")
    cx = gc.GraphComplex(m, orientation_kill=kill)
    if args.format == "dot":
        return True, {"dot": cx.generator_dot()}
    # the traces ride on the graph's one pass, which computes its homology
    characters_ok = None
    if args.characters:
        characters_ok = gc.verify_decomposition(cx, include_characters=True)
    result = cx.homology()
    betti = result.betti.as_dict()
    expected = math.factorial(m - 1) // 2
    stirling_sum = sum(chars.stirling_unsigned(m - 1, k)
                       for k in range(2, m, 2))
    support = result.betti.support()
    ok = (kill and result.d2_ok and len(support) == 1
          and betti[support[0]] == expected == stirling_sum
          and characters_ok is not False)
    dims = result.dims
    payload = {
        "schema": SCHEMA, "command": "graph", "m": m, "seed": args.seed,
        "orientation_kill": kill,
        "dims": {str(i): d for i, d in dims.items()},
        "betti": {str(d): b for d, b in betti.items()},
        "expected": expected,
        "even_stirling_sum": stirling_sum,
        "characters_ok": characters_ok,
        "status": _status(ok),
    }
    rows = [["m", "degree", "betti", "expected", "status"]]
    rows += [[m, d, b, expected, _status(ok)] for d, b in betti.items()]
    lines = [f"genus-one graph complex, m={m} (orientation kill: {kill})",
             "  dims:  " + " ".join(f"i={i}:{d}" for i, d in dims.items()),
             "  betti: " + " ".join(f"b{d}={b}" for d, b in betti.items())]
    if characters_ok is not None:
        lines.append(f"  character comparison: {_status(characters_ok)}")
    lines.append(f"  expected {expected} = (m-1)!/2; even-k Stirling sum "
                 f"{stirling_sum}: {_status(ok)}")
    return ok, {"json": payload, "csv": rows, "table": lines}


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stirhom",
        description="Exact homology of Stirling complexes and the genus-one "
                    "commutative graph complex.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("table", "json", "csv"), seeded=True):
        p.add_argument("--format", choices=fmt, default="table")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="seed of the random permutations that "
                                "verify draws, echoed in JSON output "
                                "(STIRLING_SEED env fallback)")
        p.add_argument("--out", default=None, help="write output to a file")

    p_table = sub.add_parser("table", help="signed Stirling triangle and identities")
    p_table.add_argument("--max-n", type=int, required=True)
    common(p_table, seeded=False)
    p_table.set_defaults(func=cmd_table)

    p_betti = sub.add_parser("betti", help="Betti numbers of a Stirling complex")
    p_betti.add_argument("--n", type=int)
    p_betti.add_argument("--k", type=int)
    p_betti.add_argument("--max-n", type=int,
                         help="run every type with 2 <= k <= n <= max-n")
    common(p_betti, fmt=("table", "json", "csv", "dot"))
    p_betti.set_defaults(func=cmd_betti)

    p_verify = sub.add_parser("verify", help="structural checks of a complex")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--checks", default="d2,equivariance,reach,euler")
    common(p_verify, fmt=("table", "json"))
    p_verify.set_defaults(func=cmd_verify)

    p_chars = sub.add_parser("characters",
                             help="homology character and its decomposition")
    p_chars.add_argument("--n", type=int)
    p_chars.add_argument("--k", type=int)
    common(p_chars)
    p_chars.set_defaults(func=cmd_characters)

    p_graph = sub.add_parser("graph", help="genus-one graph complex homology")
    p_graph.add_argument("--m", type=int)
    p_graph.add_argument("--disable-orientation-kill", action="store_true",
                         help="negative control: keep the 2-cycle classes, "
                              "which an odd automorphism kills")
    p_graph.add_argument("--characters", action="store_true",
                         help="also compare the full symmetric-group "
                              "characters of the two sides")
    common(p_graph, fmt=("table", "json", "csv", "dot"))
    p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = _seed_default()
    ok, reports = args.func(args)
    text = _render(args.format, reports[args.format])
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
