"""A standing mutation guard: each mutant below must fail the tests named
for it.

Run from anywhere with ``python tests/mutants.py``; pytest does not collect
this file.  A mutant is a source file, an exact old text that must occur in
it once, the new text, and the pytest arguments (files or node ids) of the
tests that must fail.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and runs every selection there
on the unmutated code, which must pass.  It then applies one mutant at a
time and runs its selection with ``-x``.  It exits nonzero when an old text
does not occur exactly once, when a selection fails unmutated, or when a
mutant survives (its selection passes).  A refactor that moves a mutant's
code moves the mutant with it.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant("Stirling contraction: trade terms keep the edge's sign",
           "src/stirhom/stirling.py",
           "(minus if negative ^ passed & 1 else plus)",
           "(minus if negative else plus)",
           ("tests/test_stirling.py::test_first_differential_matches_oracle",
            "tests/test_stirling.py::test_tree_columns_equal_the_per_key_terms",
            "tests/test_cli.py::test_verify_lines_read_fail")),
    Mutant("Stirling contraction: a trade passes the far sides below the input too",
           "src/stirhom/stirling.py",
           "passed = (below >> b + 1).bit_count()",
           "passed = below.bit_count()",
           ("tests/test_stirling.py::test_tree_columns_equal_the_per_key_terms",)),
    Mutant("Stirling action: trade terms keep the relabeling's sign",
           "src/stirhom/stirling.py",
           "for a in alt_images], -edge_sign)",
           "for a in alt_images], edge_sign)",
           ("tests/test_stirling.py::test_equivariance_and_group_law",
            "tests/test_cli.py::test_verify_lines_read_fail")),
    Mutant("Stirling action: the sign of sorting a tree's renamed edges dropped",
           "src/stirhom/stirling.py",
           "edge_sign = sort_sign([side[c] for c in tree.edges])",
           "edge_sign = 1",
           ("tests/test_stirling.py::test_equivariance_and_group_law",)),
    Mutant("action check: the group law of a pair is not checked",
           "src/stirhom/stirling.py",
           "for tau, prod in laws.get(perm, ())):",
           "for tau, prod in laws.get(perm, ())[:0]):",
           ("tests/test_stirling.py::test_verify_action_checks_the_group_law",)),
    Mutant("graph contraction: the flip mask reads the clusters without the view's sign bit",
           "src/stirhom/graphcomplex.py",
           "odd = (marked & flips[place])",
           "odd = (clusters & flips[place])",
           ("tests/test_graphcomplex.py::test_contraction_terms_equal_the_sorting_rule",
            "tests/test_graphcomplex.py::test_cycle_columns_equal_the_sorting_rule")),
    Mutant("Stirling relabeling search: the first relabeling's set-up serves every one",
           "src/stirhom/stirling.py",
           "search = self._search(self.relabeling(perm), perm)",
           "search = self._search(self.relabeling(perm) and (), perm)",
           ("tests/test_trees.py::test_stirling_search_setups_equal_fresh_searches",)),
    Mutant("graph relabeling search: a block partition's first set-up serves every relabeling",
           "src/stirhom/graphcomplex.py",
           "key = blocks, bits\n",
           "key = blocks, bits is not None\n",
           ("tests/test_trees.py::test_graph_search_setups_equal_fresh_searches",)),
    Mutant("graph action: the sort sign dropped, every target on the positive side",
           "src/stirhom/graphcomplex.py",
           "positive = sort_sign(",
           "positive = 1 or sort_sign(",
           ("tests/test_graphcomplex.py::test_action_terms_equal_the_sorting_rule",)),
    Mutant("orientation kill: 2-cycles kept",
           "src/stirhom/graphcomplex.py",
           "if not (orientation_kill and c == 2):",
           "if True:",
           ("tests/test_graphcomplex.py::test_kill_rule_is_two_cycle",
            "tests/test_graphcomplex.py::test_parallel_edges_killed",
            "tests/test_counts.py::test_graph_dims_match_counts")),
    Mutant("block partitions: the lowest leg left is never alone in its block",
           "src/stirhom/graphcomplex.py",
           "            if not sub:\n                break\n            sub = sub - 1 & rest",
           "            sub = sub - 1 & rest\n            if not sub:\n                break",
           ("tests/test_trees.py::test_cycle_table_equals_the_oracle_cycles",
            "tests/test_counts.py::test_graph_dims_match_counts")),
    Mutant("block cycles: listed without the normal form, in both directions",
           "src/stirhom/graphcomplex.py",
           "_normal_cycle((first,) + order) for order",
           "(first,) + order for order",
           ("tests/test_trees.py::test_cycle_table_equals_the_oracle_cycles",
            "tests/test_counts.py::test_graph_dims_match_counts")),
    Mutant("product comparison: equal lengths only",
           "src/stirhom/linalg.py",
           "        if up != down:",
           "        if len(up) != len(down):",
           ("tests/test_linalg.py::test_d_squared_matches_the_oracle",
            "tests/test_linalg.py::test_products_agree_on_the_action")),
    Mutant("product comparison: the right side's terms keep their sign",
           "src/stirhom/linalg.py",
           "([*up, *right_down], [*down, *right_up])",
           "([*up, *right_up], [*down, *right_down])",
           ("tests/test_linalg.py::test_products_agree_on_the_action",)),
    Mutant("product comparison: a right side without a factor read with its signs swapped",
           "src/stirhom/linalg.py",
           "right = c.sides() if d is None",
           "right = (sides[::-1] for sides in c.sides()) if d is None",
           ("tests/test_linalg.py::test_products_agree_on_the_action",
            "tests/test_stirling.py::test_equivariance_and_group_law")),
    Mutant("pairing: a cell with two live faces is paired",
           "src/stirhom/linalg.py",
           "if count == 1)\n        pairs = 0\n        while queue:\n"
           "            c = queue.popleft()\n            if nfaces[c] != 1:",
           "if count in (1, 2))\n        pairs = 0\n        while queue:\n"
           "            c = queue.popleft()\n            if nfaces[c] not in (1, 2):",
           ("tests/test_linalg.py::test_stirling_reduction_matches_rank_oracle",)),
    Mutant("cut of d_{i-1}: no column kept on the live faces",
           "src/stirhom/linalg.py",
           "                rows += col\n                split[c] = cut\n",
           "                pass\n",
           ("tests/test_linalg.py::test_projective_plane_needs_the_residual",
            "tests/test_linalg.py::test_unit_pivots_keep_the_residual_integral")),
    Mutant("cut of d_{i-1}: a column kept only when all its faces are live",
           "src/stirhom/linalg.py",
           "if any(map(live, col)):",
           "if all(map(live, col)):",
           ("tests/test_linalg.py::test_the_cut_keeps_a_column_with_a_dead_face",)),
    Mutant("column offsets: each column read one row short",
           "src/stirhom/linalg.py",
           "            yield rows[start:end]\n",
           "            yield rows[start:end - 1]\n",
           ("tests/test_linalg.py::test_the_form_round_trips",
            "tests/test_linalg.py::test_d_squared_matches_the_oracle")),
    Mutant("elimination: the negative entries are not read",
           "src/stirhom/linalg.py",
           "        for side, unit in zip(sides, (1, -1)):\n            for r in side:",
           "        for side, unit in zip(sides, (1,)):\n            for r in side:",
           ("tests/test_linalg.py::test_projective_plane_needs_the_residual",)),
    Mutant("concentration: the verdict ignores a failed d^2 check",
           "src/stirhom/linalg.py",
           "if not self.d2_ok or len(support) != 1:",
           "if len(support) != 1:",
           ("tests/test_linalg.py::test_concentration_needs_a_verified_d_squared",)),
    Mutant("reach: the bound on the source's reach lowered by one",
           "src/stirhom/stirling.py",
           "upper = 2 * (self.n - self.k) - 2",
           "upper = 2 * (self.n - self.k) - 3",
           ("tests/test_stirling.py::test_reach_filtration",)),
    Mutant("reach: a key outside the acyclic part stored as score 0",
           "src/stirhom/stirling.py",
           "_BYTE[None] = bytes([OUTSIDE])",
           "_BYTE[None] = bytes([0])",
           ("tests/test_stirling.py::test_reach_check_can_fail",)),
    Mutant("relabeling: any sequence of the right length is taken",
           "src/stirhom/linalg.py",
           "if sorted(images) != legs:",
           "if len(images) != len(legs):",
           ("tests/test_stirling.py::test_action_rejects_non_bijections",)),
    Mutant("character: the sign of the concentration degree dropped",
           "src/stirhom/characters.py",
           "{mu: (-1) ** top * v for mu, v in values.items()}",
           "{mu: v for mu, v in values.items()}",
           ("tests/test_characters.py::test_equivariant_euler_at_identity_is_top_betti",
            "tests/test_graphcomplex.py::test_graph_character_is_the_dihedral_closed_form")),
    Mutant("decomposition verdict: the characters are not compared",
           "src/stirhom/graphcomplex.py",
           "return graph_character == sum(characters[1:], characters[0])",
           "return True",
           ("tests/test_graphcomplex.py::test_decomposition_verdict_reads_the_characters",)),
    Mutant("trace: the identity shortcut taken when the first two bits stay",
           "src/stirhom/linalg.py",
           "if bits == tuple(range(len(bits))):",
           "if bits[:2] == (0, 1):",
           ("tests/test_characters.py::test_trace_is_the_diagonal_for_all_of_s4",)),
    Mutant("trace: a column holding its own key counted +1 on either side",
           "src/stirhom/linalg.py",
           "sum((key in plus) - (key in minus)",
           "sum((key in plus) + (key in minus)",
           ("tests/test_characters.py::test_trace_is_the_action_diagonal",)),
]


def pytest(cwd, args, first_failure=False):
    """Run pytest on ``args`` in the copy at ``cwd``, importing its
    ``src/``; no bytecode is written, so a restored file is read again."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    if first_failure:
        command.append("-x")
    return subprocess.run(command + list(args), cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def main():
    problems = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: the old text occurs {count} times "
                            f"in {mutant.path}")
    if problems:
        print("\n".join(problems))
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        found = subprocess.run(
            [sys.executable, "-c", "import stirhom; print(stirhom.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            stdout=subprocess.PIPE, text=True).stdout.strip()
        if not found.startswith(str(copy)):
            print(f"the copy's package is not the one imported: {found}")
            return 1
        selections = sorted({test for mutant in MUTANTS for test in mutant.tests})
        run = pytest(copy, selections)
        print(f"unmutated: {len(selections)} selections, exit {run.returncode}, "
              f"{time.perf_counter() - start:.1f} s")
        if run.returncode != 0:
            print(run.stdout)
            return 1
        for mutant in MUTANTS:
            target = copy / mutant.path
            source = target.read_text()
            target.write_text(source.replace(mutant.old, mutant.new))
            begun = time.perf_counter()
            try:
                run = pytest(copy, mutant.tests, first_failure=True)
            finally:
                target.write_text(source)
            verdict = {0: "SURVIVED", 1: "killed"}.get(run.returncode,
                                                        f"ERROR (exit {run.returncode})")
            print(f"{verdict}: {mutant.name} ({time.perf_counter() - begun:.1f} s)")
            if run.returncode != 1:
                problems.append(mutant.name)
                print(run.stdout[-3000:])
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
