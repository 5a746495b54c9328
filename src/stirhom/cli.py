"""Command-line interface: every computation as a reproducible subcommand.

All numeric output is exact.  JSON output is deterministic byte-for-byte
for a fixed seed (keys sorted, no timestamps); the exit code is zero
exactly when every requested check passed.
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

SCHEMA = 1


def _seed_default():
    env = os.environ.get("STIRLING_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"STIRLING_SEED must be an integer, got {env!r}")
    return 0


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _status(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# table


def cmd_table(args):
    max_n = args.max_n
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
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "k", "signed", "unsigned"])
        for n, row in table.items():
            for k, v in row.items():
                writer.writerow([n, k, v, abs(v)])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"signed Stirling numbers of the first kind, n <= {max_n}"]
        width = max(len(str(v)) for row in table.values() for v in row.values()) + 2
        header = "n\\k" + "".join(str(k).rjust(width) for k in range(1, max_n + 1))
        lines.append(header)
        for n, row in table.items():
            lines.append(str(n).ljust(3) + "".join(
                str(row.get(k, "")).rjust(width) for k in range(1, max_n + 1)))
        lines.append(f"identities (row sums, adjacent-k, next-row): "
                     f"{_status(basics_ok and alt_ok)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if basics_ok and alt_ok else 1


# ---------------------------------------------------------------------------
# betti


def _betti_report(n, k, seed):
    result = st.survey(n, k, rank_seed=seed, reach_check=False)
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


def _render_betti(report):
    lines = [f"type ({report['n']}, {report['k']})"]
    lines.append("  dims:  " + " ".join(f"i={i}:{d}" for i, d in report["dims"].items()))
    lines.append("  ranks: " + " ".join(f"d{i}:{r}" for i, r in report["ranks"].items()))
    lines.append("  betti: " + " ".join(f"b{d}={b}" for d, b in report["betti"].items()))
    lines.append(f"  euler={report['euler']} expected_top={report['expected_top']} "
                 f"d2={report['d2_ok']}  {report['status']}")
    return "\n".join(lines)


def cmd_betti(args):
    jobs = []
    if args.max_n is not None:
        for n in range(2, args.max_n + 1):
            for k in range(2, n + 1):
                jobs.append((n, k))
    else:
        if args.n is None or args.k is None:
            raise SystemExit("betti requires --n and --k (or --max-n)")
        jobs.append((args.n, args.k))
    for n, k in jobs:
        if not 2 <= k <= n:
            raise SystemExit(f"type ({n}, {k}) requires 2 <= k <= n")

    if args.format == "dot":
        reports = []
        for n, k in jobs:
            cx = st.stirling_complex(n, k)
            reports.append(cx.generator_dot())
        _emit("\n".join(reports), args.out)
        return 0

    reports = [_betti_report(n, k, args.seed) for n, k in sorted(jobs)]

    ok = all(r["status"] == "PASS" for r in reports)
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "betti", "seed": args.seed,
                   "reports": reports}
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "k", "degree", "betti", "expected_top", "status"])
        for r in reports:
            for d, b in r["betti"].items():
                writer.writerow([r["n"], r["k"], d, b, r["expected_top"], r["status"]])
        _emit(buf.getvalue(), args.out)
    else:
        _emit("\n".join(_render_betti(r) for r in reports) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    n, k = args.n, args.k
    if n is None or k is None or not 2 <= k <= n:
        raise SystemExit("verify requires --n and --k with 2 <= k <= n")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"d2", "equivariance", "reach", "euler"}
    unknown = set(checks) - known
    if unknown:
        raise SystemExit(f"unknown checks: {sorted(unknown)}")
    results = {}
    if "d2" in checks:
        results["d2"] = st.verify_d_squared(n, k)
    if "equivariance" in checks:
        ok = all(st.verify_equivariance(n, k, st.transposition(n, 0, i))
                 for i in range(1, n + 1))
        rng = random.Random(args.seed)
        pairs = []
        for _ in range(3):
            sigma = list(range(n + 1))
            tau = list(range(n + 1))
            rng.shuffle(sigma)
            rng.shuffle(tau)
            ok = ok and st.verify_equivariance(n, k, tuple(sigma))
            pairs.append((tuple(sigma), tuple(tau)))
        results["equivariance"] = ok and st.verify_group_law(n, k, pairs)
    if "reach" in checks:
        results["reach"] = st.verify_reach_filtration(n, k)
    if "euler" in checks:
        cx = st.stirling_complex(n, k)
        results["euler"] = (cx.euler_characteristic()
                            == chars.stirling_signed(n, k))
    ok = all(results.values())
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "verify", "n": n, "k": k,
                   "seed": args.seed, "results": results,
                   "status": _status(ok)}
        _emit(_json_text(payload), args.out)
    else:
        lines = [f"verify ({n}, {k})"]
        lines.extend(f"  {name}: {_status(value)}"
                     for name, value in results.items())
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# characters


def cmd_characters(args):
    n, k = args.n, args.k
    if n is None or k is None or not 2 <= k <= n or n > 6:
        raise SystemExit("characters requires --n and --k with 2 <= k <= n <= 6")
    cf = chars.equivariant_euler_character(n, k, rank_seed=args.seed)
    decomposition = chars.decompose(cf)
    total = sum(mult * chars.hook_length_dimension(lam)
                for lam, mult in decomposition)
    ok = total == chars.stirling_unsigned(n, k)
    payload = {
        "schema": SCHEMA, "command": "characters", "n": n, "k": k,
        "seed": args.seed,
        "class_function": {str(list(mu)): int(v) for mu, v in sorted(cf.values.items())},
        "decomposition": [{"partition": list(lam), "multiplicity": mult,
                           "dimension": chars.hook_length_dimension(lam)}
                          for lam, mult in decomposition],
        "total_dimension": total,
        "expected_dimension": chars.stirling_unsigned(n, k),
        "status": _status(ok),
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["cycle_type", "value"])
        for mu, v in sorted(cf.values.items()):
            writer.writerow(["+".join(map(str, mu)), v])
        writer.writerow([])
        writer.writerow(["partition", "multiplicity", "dimension"])
        for lam, mult in decomposition:
            writer.writerow(["+".join(map(str, lam)), mult,
                             chars.hook_length_dimension(lam)])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"top homology character of type ({n}, {k}) "
                 f"under the {n + 1}-letter symmetric group"]
        for mu, v in sorted(cf.values.items()):
            lines.append(f"  class {'+'.join(map(str, mu)):>14}: {v}")
        lines.append("decomposition:")
        for lam, mult in decomposition:
            lines.append(f"  V_{list(lam)} x {mult} (dim "
                         f"{chars.hook_length_dimension(lam)})")
        lines.append(f"total dim {total}, expected "
                     f"{chars.stirling_unsigned(n, k)}: {_status(ok)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# graph


def cmd_graph(args):
    m = args.m
    if m is None or not 3 <= m <= 6:
        raise SystemExit("graph requires --m with 3 <= m <= 6")
    kill = not args.disable_orientation_kill
    if args.characters and not kill:
        raise SystemExit("--characters requires the orientation kill")
    cx = gc.GraphComplex(m, orientation_kill=kill)
    if args.format == "dot":
        _emit(cx.generator_dot(), args.out)
        return 0
    betti = cx.betti(seed=args.seed, check=kill)
    expected = math.factorial(m - 1) // 2
    stirling_sum = sum(chars.stirling_unsigned(m - 1, k)
                       for k in range(2, m, 2))
    support = betti.support()
    concentrated = len(support) == 1
    value = betti[support[0]] if concentrated else None
    ok = kill and concentrated and value == expected == stirling_sum
    characters_ok = None
    if args.characters:
        characters_ok = gc.verify_decomposition(m, seed=args.seed,
                                                include_characters=True)
        ok = ok and characters_ok
    payload = {
        "schema": SCHEMA, "command": "graph", "m": m, "seed": args.seed,
        "orientation_kill": kill,
        "dims": {str(i): d for i, d in cx.dims().items()},
        "betti": {str(d): b for d, b in betti.as_dict().items()},
        "expected": expected,
        "even_stirling_sum": stirling_sum,
        "characters_ok": characters_ok,
        "status": _status(ok),
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["m", "degree", "betti", "expected", "status"])
        for d, b in betti.as_dict().items():
            writer.writerow([m, d, b, expected, payload["status"]])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"genus-one graph complex, m={m} (orientation kill: {kill})"]
        lines.append("  dims:  " + " ".join(f"i={i}:{d}" for i, d in cx.dims().items()))
        lines.append("  betti: " + " ".join(f"b{d}={b}" for d, b in betti.as_dict().items()))
        if characters_ok is not None:
            lines.append(f"  character comparison: {_status(characters_ok)}")
        lines.append(f"  expected {expected} = (m-1)!/2; even-k Stirling sum "
                     f"{stirling_sum}: {payload['status']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stirhom",
        description="Exact homology of Stirling complexes and the genus-one "
                    "commutative graph complex.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("table", "json", "csv")):
        p.add_argument("--format", choices=fmt, default="table")
        p.add_argument("--seed", type=int, default=_seed_default(),
                       help="seed for the modular-rank primes "
                            "(STIRLING_SEED env fallback)")
        p.add_argument("--out", default=None, help="write output to a file")

    p_table = sub.add_parser("table", help="signed Stirling triangle and identities")
    p_table.add_argument("--max-n", type=int, required=True)
    common(p_table)
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
    common(p_verify)
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
                         help="negative control: keep classes killed by odd "
                              "automorphisms")
    p_graph.add_argument("--characters", action="store_true",
                         help="also compare the full symmetric-group "
                              "characters of the two sides")
    common(p_graph, fmt=("table", "json", "csv", "dot"))
    p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
