"""The benchmark workloads and the checks on their results.

Each workload takes the workload seed, which stirhom receives as its rank
seed, and returns ``(problems, output_bytes)``: a list of failed checks
(empty when the result is right) and the size of what the CLI wrote.  The
inputs themselves are fixed.  Expected values come from this file, not
from stirhom, so a wrong answer cannot confirm itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

from stirhom import cli, stirling

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# The references were captured with this seed; the seed is the only part of
# the JSON that depends on it, so other seeds are checked by substitution.
REFERENCE_SEED = 0


def unsigned_stirling(n, k):
    """|s(n, k)|, the number of permutations of n letters with k cycles."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [row[j - 1] + (m - 1) * (row[j] if j < m else 0)
                     for j in range(1, m + 1)]
    return row[k]


def reference_text(workload, seed):
    with open(os.path.join(REFERENCE_DIR, workload + ".json")) as handle:
        text = handle.read()
    token = f'"seed":{REFERENCE_SEED}'
    if text.count(token) != 1:
        raise ValueError(f"reference for {workload} must hold {token} exactly once")
    return text.replace(token, f'"seed":{seed}')


def survey_7_3(seed):
    n, k = 7, 3
    top = unsigned_stirling(n, k)
    result = stirling.survey(n, k, rank_seed=seed)
    betti = result["betti"]
    problems = []
    if betti.support() != [n]:
        problems.append(f"Betti support {betti.support()}, expected [{n}]")
    if betti[n] != top:
        problems.append(f"top Betti number {betti[n]}, expected {top}")
    if result["d2_ok"] is not True:
        problems.append("d2_ok is not true")
    if result["reach_ok"] is not True:
        problems.append("reach_ok is not true")
    if result["euler"] != (-1) ** (n - k) * top:
        problems.append(f"Euler characteristic {result['euler']}, expected s({n},{k})")
    return problems, 0


def _check_betti_grid(payload):
    problems = []
    reports = payload.get("reports", [])
    types = sorted((r.get("n"), r.get("k")) for r in reports)
    expected_types = [(n, k) for n in range(2, 7) for k in range(2, n + 1)]
    if types != expected_types:
        problems.append(f"types {types}, expected {expected_types}")
    for r in reports:
        n, k = r.get("n"), r.get("k")
        expected = {str(d): 0 for d in r.get("betti", {})}
        expected[str(n)] = unsigned_stirling(n, k)
        if r.get("betti") != expected or r.get("status") != "PASS":
            problems.append(f"({n}, {k}): betti {r.get('betti')} status "
                            f"{r.get('status')}, expected top {expected[str(n)]} PASS")
    return problems


def _check_graph_chars(payload):
    m = payload.get("m")
    expected = math.factorial(m - 1) // 2 if isinstance(m, int) else None
    nonzero = [b for b in payload.get("betti", {}).values() if b]
    problems = []
    if nonzero != [expected]:
        problems.append(f"nonzero Betti numbers {nonzero}, expected [{expected}]")
    if payload.get("characters_ok") is not True:
        problems.append("characters_ok is not true")
    if payload.get("status") != "PASS":
        problems.append(f"status {payload.get('status')}")
    return problems


def _cli_workload(name, argv, check):
    def run(seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv + ["--seed", str(seed)])
        text = buf.getvalue()
        problems = [] if status == 0 else [f"exit status {status}"]
        try:
            problems += check(json.loads(text))
        except ValueError as exc:
            problems.append(f"stdout is not JSON: {exc}")
        if text != reference_text(name, seed):
            problems.append("stdout differs from the seed-commit reference")
        return problems, len(text.encode())
    return run


CLI_COMMANDS = {
    "betti-grid": ["betti", "--max-n", "6", "--format", "json"],
    "graph-chars": ["graph", "--m", "6", "--characters", "--format", "json"],
}
WORKLOADS = {
    "survey-7-3": survey_7_3,
    "betti-grid": _cli_workload("betti-grid", CLI_COMMANDS["betti-grid"],
                                _check_betti_grid),
    "graph-chars": _cli_workload("graph-chars", CLI_COMMANDS["graph-chars"],
                                 _check_graph_chars),
}
