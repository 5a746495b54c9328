#!/usr/bin/env python3
"""Export a Stirling complex for offline inspection.

Writes three artifacts into the output directory: the full complex as JSON
(generator codes plus differential triplets), every differential in
MatrixMarket coordinate format for cross-checking with external
computer-algebra systems, and a DOT file drawing every generator with its
distinguished vertex and alternating flags in red.
"""

import argparse
import json
import pathlib

from stirhom.cli import MAX_N
from stirhom.stirling import StirlingComplex


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--out-dir", default="export")
    args = parser.parse_args()
    if not 2 <= args.k <= args.n <= MAX_N:
        # the CLI's bounds: no complex outside them, and n = 8 is many times
        # larger than (7, 2)
        raise SystemExit(f"export requires 2 <= k <= n <= {MAX_N}")

    cx = StirlingComplex(args.n, args.k)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"stirling_{args.n}_{args.k}"

    with open(out / f"{stem}.json", "w") as handle:
        json.dump(cx.to_json_dict(), handle, sort_keys=True, indent=1)
    for i in range(1, cx.max_edges + 1):
        with open(out / f"{stem}_d{i}.mtx", "w") as handle:
            handle.write(cx.differential(i).to_matrix_market())
    with open(out / f"{stem}.dot", "w") as handle:
        handle.write(cx.generator_dot())
    print(f"wrote {stem}.json, {cx.max_edges} MatrixMarket files, "
          f"and {stem}.dot under {out}/")


if __name__ == "__main__":
    main()
