"""Command-line behavior: reports, formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from stirhom import stirling as st
from stirhom.cli import main
from stirhom.linalg import ChainComplex
from stirhom.trees import _members


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_the_cli_imports_neither_dataclasses_nor_fractions():
    # no survey, betti or graph run reads them, and each stays resident from
    # the start: dataclasses loads inspect and ast, fractions loads decimal.
    # A fresh interpreter, as this one has loaded them for the tests
    src = pathlib.Path(st.__file__).resolve().parent.parent
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    code = f"import stirhom.cli, sys; print(*(m for m in {heavy!r} if m in sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)))
    assert loaded.stdout.split() == []


def test_table_text(capsys):
    code, out = run(capsys, "table", "--max-n", "7")
    assert code == 0
    assert "-1764" in out and "1624" in out
    assert "PASS" in out


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert "3,2,-3,3" in out


def test_betti_pass(capsys):
    code, out = run(capsys, "betti", "--n", "3", "--k", "3")
    assert code == 0
    assert "b3=1" in out and "PASS" in out


def test_betti_json_deterministic(capsys):
    _, first = run(capsys, "betti", "--n", "4", "--k", "2",
                   "--format", "json", "--seed", "5")
    _, second = run(capsys, "betti", "--n", "4", "--k", "2",
                    "--format", "json", "--seed", "5")
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    report = payload["reports"][0]
    assert report["betti"]["4"] == 11
    assert report["status"] == "PASS"


def test_betti_sweep_ordered(capsys):
    code, out = run(capsys, "betti", "--max-n", "4", "--format", "json")
    assert code == 0
    keys = [(r["n"], r["k"]) for r in json.loads(out)["reports"]]
    assert keys == sorted(keys)


def test_betti_requires_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["betti"])
    with pytest.raises(SystemExit):
        main(["betti", "--n", "3", "--k", "9"])


def test_betti_grid_needs_a_type(capsys):
    with pytest.raises(SystemExit):
        main(["betti", "--max-n", "1"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["table", "--max-n", "0"],
    ["table", "--max-n", "-3", "--format", "json"],
])
def test_table_needs_a_row(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["table", "--max-n", "101"],
    ["table", "--max-n", "2000", "--format", "json"],
])
def test_huge_table_refused_before_work(monkeypatch, capsys, argv):
    # the table's cost grows about as n^5, so --max-n 2000 would run for
    # hours; it is refused before the table is computed
    def refuse(*args, **kwargs):
        raise AssertionError("the table was computed before the refusal")
    monkeypatch.setattr("stirhom.characters.stirling_table", refuse)
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == ""


def test_betti_grid_excludes_a_single_type(capsys):
    with pytest.raises(SystemExit):
        main(["betti", "--n", "4", "--k", "2", "--max-n", "3"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["betti", "--n", "8", "--k", "2"],
    ["betti", "--n", "8", "--k", "8", "--format", "dot"],
    ["betti", "--max-n", "8"],
    ["verify", "--n", "8", "--k", "3"],
])
def test_stirling_runs_above_n7_refused_before_work(monkeypatch, capsys, argv):
    # (7, 2) already takes seconds and hundreds of MiB; n = 8 is refused
    # before any complex is built
    def refuse(*args, **kwargs):
        raise AssertionError("a complex was built before the refusal")
    monkeypatch.setattr("stirhom.stirling.StirlingComplex", refuse)
    with pytest.raises(SystemExit) as refusal:
        main(argv)
    assert "n <= 7" in str(refusal.value) or "and 7" in str(refusal.value)
    assert capsys.readouterr().out == ""


def test_verify(capsys):
    code, out = run(capsys, "verify", "--n", "3", "--k", "2")
    assert code == 0
    assert out.count("PASS") == 4
    code, out = run(capsys, "verify", "--n", "4", "--k", "2",
                    "--checks", "d2,euler", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == {"d2": True, "euler": True}
    with pytest.raises(SystemExit):
        main(["verify", "--n", "3", "--k", "2", "--checks", "bogus"])


def test_verify_refuses_an_empty_check_list(capsys):
    for checks in (",", ""):
        with pytest.raises(SystemExit):
            main(["verify", "--n", "4", "--k", "2", "--checks", checks])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("factor,code", [(1, 0), (-1, 1)])
def test_verify_fails_when_the_trade_terms_flip_sign(monkeypatch, capsys, factor, code):
    # the action's trade terms times factor: a relabeling trades exactly the
    # keys whose alternating far sides hold the leg it sends to 0; with
    # their sign flipped the action no longer commutes with d
    original = st.StirlingComplex.action_columns

    def action_columns(self, keys, perm):
        source = 1 << list(perm).index(0)
        for key, (plus, minus) in original(self, keys, perm):
            traded = any(a & source for a in _members(key[2]))
            yield key, ((minus, plus) if traded and factor < 0 else (plus, minus))

    monkeypatch.setattr(st.StirlingComplex, "action_columns", action_columns)
    returned, out = run(capsys, "verify", "--n", "5", "--k", "2",
                        "--checks", "equivariance", "--format", "json")
    assert returned == code
    assert json.loads(out)["results"] == {"equivariance": not code}


def flip_contraction_trade_terms(monkeypatch):
    # every trade term of the contraction, the one that replaces an
    # alternating edge by an input, with its sign flipped: d^2 = 0 fails
    # in the rule that builds every column of the differential
    original = st._tree_columns

    def tree_columns(*args):
        for key, (plus, minus) in original(*args):
            yield key, ([t for t in plus if t[2] == key[2]] + [t for t in minus if t[2] != key[2]],
                        [t for t in minus if t[2] == key[2]] + [t for t in plus if t[2] != key[2]])

    monkeypatch.setattr(st, "_tree_columns", tree_columns)


def push_reach_past_its_bound(monkeypatch):
    # every reach in the acyclic part raised past 2 (n - k) - 2
    original = st.StirlingComplex.vertex_reach

    def vertex_reach(self, tree, dv):
        score = original(self, tree, dv)
        return None if score is None else score + 2 * self.n

    monkeypatch.setattr(st.StirlingComplex, "vertex_reach", vertex_reach)


@pytest.mark.parametrize("patch,failed", [
    (None, ()),
    (flip_contraction_trade_terms, ("d2", "equivariance")),
    (push_reach_past_its_bound, ("reach",)),
], ids=["unpatched", "contraction-sign", "reach-bound"])
def test_verify_lines_read_fail(monkeypatch, capsys, patch, failed):
    # every line of verify on (5, 2) reads PASS, and each broken check reads
    # FAIL in both formats with exit code 1
    if patch is not None:
        patch(monkeypatch)
    expected = {check: check not in failed
                for check in ("d2", "equivariance", "reach", "euler")}
    code, out = run(capsys, "verify", "--n", "5", "--k", "2", "--format", "json")
    assert code == (1 if failed else 0)
    assert json.loads(out)["results"] == expected
    code, out = run(capsys, "verify", "--n", "5", "--k", "2")
    assert code == (1 if failed else 0)
    assert out.splitlines()[1:] == [f"  {check}: {'PASS' if ok else 'FAIL'}"
                                    for check, ok in expected.items()]


def test_verify_reads_one_pass(monkeypatch, capsys):
    # the d2, reach and euler lines come from one survey, which builds no
    # action matrix; the equivariance line alone runs no survey
    surveys = []
    survey = st.survey

    def counted(n, k):
        surveys.append((n, k))
        return survey(n, k)

    def refuse(*args):
        raise AssertionError("an action matrix was built")

    monkeypatch.setattr(st, "survey", counted)
    with monkeypatch.context() as patched:
        patched.setattr(st.StirlingComplex, "action_matrix", refuse)
        code, _out = run(capsys, "verify", "--n", "4", "--k", "2",
                         "--checks", "d2,reach,euler")
    assert code == 0 and surveys == [(4, 2)]
    code, _out = run(capsys, "verify", "--n", "4", "--k", "2",
                     "--checks", "equivariance")
    assert code == 0 and surveys == [(4, 2)]


def test_verify_euler_alone_only_walks(monkeypatch, capsys):
    # without d2 or reach the euler line reads the dimensions of one walk
    # per degree: no differential is assembled
    def refuse(*args):
        raise AssertionError("a differential was assembled")

    monkeypatch.setattr(ChainComplex, "_assemble", refuse)
    code, out = run(capsys, "verify", "--n", "5", "--k", "2", "--checks", "euler")
    assert code == 0 and out == "verify (5, 2)\n  euler: PASS\n"


def test_characters(capsys):
    code, out = run(capsys, "characters", "--n", "4", "--k", "4",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"] == [
        {"partition": [1, 1, 1, 1, 1], "multiplicity": 1, "dimension": 1}]
    with pytest.raises(SystemExit):
        main(["characters", "--n", "7", "--k", "2"])


def test_graph(capsys):
    code, out = run(capsys, "graph", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"]["3"] == 1
    assert payload["expected"] == 1
    assert payload["status"] == "PASS"


def test_graph_negative_control_fails(capsys):
    code, _out = run(capsys, "graph", "--m", "4", "--disable-orientation-kill")
    assert code != 0


def test_graph_character_flag(capsys):
    code, out = run(capsys, "graph", "--m", "4", "--characters")
    assert code == 0
    assert "character comparison: PASS" in out
    with pytest.raises(SystemExit):
        main(["graph", "--m", "4", "--characters",
              "--disable-orientation-kill"])


def test_graph_characters_without_kill_rejected_before_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the complex was built before the rejection")
    monkeypatch.setattr("stirhom.graphcomplex.GraphComplex", refuse)
    with pytest.raises(SystemExit):
        main(["graph", "--m", "4", "--characters",
              "--disable-orientation-kill"])


def test_graph_characters_with_dot_rejected_before_work(monkeypatch):
    # a DOT drawing carries no character comparison, so the check would be
    # skipped silently
    def refuse(*args, **kwargs):
        raise AssertionError("the complex was built before the rejection")
    monkeypatch.setattr("stirhom.graphcomplex.GraphComplex", refuse)
    with pytest.raises(SystemExit):
        main(["graph", "--m", "3", "--characters", "--format", "dot"])


def test_graph_characters_builds_each_complex_once(monkeypatch, capsys):
    from stirhom import graphcomplex, stirling
    enumerated, built = Counter(), Counter()
    enumerate_graph_generators = graphcomplex.enumerate_graph_generators
    stirling_init = stirling.StirlingComplex.__init__

    def counting_enumerate(m, i, *args):
        enumerated[m, i] += 1
        return enumerate_graph_generators(m, i, *args)

    def counting_init(self, n, k, *args):
        built[n, k] += 1
        stirling_init(self, n, k, *args)

    monkeypatch.setattr(graphcomplex, "enumerate_graph_generators",
                        counting_enumerate)
    monkeypatch.setattr(stirling.StirlingComplex, "__init__", counting_init)
    code, out = run(capsys, "graph", "--m", "4", "--characters")
    assert code == 0 and "character comparison: PASS" in out
    assert enumerated == {(4, i): 1 for i in range(5)}
    assert built == {(3, 2): 1}


def test_dot_output(capsys):
    code, out = run(capsys, "graph", "--m", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph ")
    code, out = run(capsys, "betti", "--n", "3", "--k", "2", "--format", "dot")
    assert code == 0
    assert "color=red" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["table", "--max-n", "2", "--format", "json",
                 "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["max_n"] == 2


def test_verify_offers_only_its_formats(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--n", "3", "--k", "2", "--format", "csv"])


def test_table_takes_no_seed(monkeypatch, capsys):
    monkeypatch.setenv("STIRLING_SEED", "oops")
    code, out = run(capsys, "table", "--max-n", "3")
    assert code == 0 and "PASS" in out
    with pytest.raises(SystemExit):
        main(["table", "--max-n", "3", "--seed", "1"])


def test_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("STIRLING_SEED", "17")
    code, out = run(capsys, "betti", "--n", "3", "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 17
    monkeypatch.setenv("STIRLING_SEED", "oops")
    with pytest.raises(SystemExit):
        main(["betti", "--n", "3", "--k", "2"])


# ---------------------------------------------------------------------------
# golden output: every kept format of six commands, byte for byte

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "cli"
GOLDEN = {
    "table_max_n5": (["table", "--max-n", "5"], ("table", "json", "csv")),
    "betti_n4_k2": (["betti", "--n", "4", "--k", "2", "--seed", "0"],
                    ("table", "json", "csv", "dot")),
    "betti_max_n4": (["betti", "--max-n", "4", "--seed", "0"],
                     ("table", "json", "csv", "dot")),
    "verify_n4_k2": (["verify", "--n", "4", "--k", "2", "--seed", "0"],
                     ("table", "json")),
    "characters_n4_k3": (["characters", "--n", "4", "--k", "3", "--seed", "0"],
                         ("table", "json", "csv")),
    "graph_m4": (["graph", "--m", "4", "--seed", "0"],
                 ("table", "json", "csv", "dot")),
}


@pytest.mark.parametrize("name,fmt", [(name, fmt) for name, (_argv, formats)
                                      in GOLDEN.items() for fmt in formats])
def test_golden_output(monkeypatch, capsys, name, fmt):
    monkeypatch.delenv("STIRLING_SEED", raising=False)
    argv, _formats = GOLDEN[name]
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


def test_negative_control_golden(monkeypatch, capsys):
    # the kill-off m = 6 complex fails d^2 = 0, so every differential is
    # ranked whole, 6200 and 6780 columns for d_4 and d_5
    monkeypatch.delenv("STIRLING_SEED", raising=False)
    code, out = run(capsys, "graph", "--m", "6", "--disable-orientation-kill",
                    "--format", "json", "--seed", "0")
    assert code == 1
    assert out.encode() == (GOLDEN_DIR / "graph_m6_kill_off.json").read_bytes()


@pytest.mark.parametrize("argv", [["betti", "--n", "5", "--k", "3"],
                                  ["characters", "--n", "4", "--k", "3"],
                                  ["graph", "--m", "4"]])
def test_seed_is_only_echoed(capsys, argv):
    _, base = run(capsys, *argv, "--format", "json", "--seed", "0")
    _, other = run(capsys, *argv, "--format", "json", "--seed", "987")
    assert base.count('"seed":0') == 1
    assert other == base.replace('"seed":0', '"seed":987')


def test_survey_ignores_rank_seed():
    base, other = st.survey(5, 3), st.survey(5, 3, rank_seed=987)
    for field in ("dims", "ranks", "certificate"):
        assert other[field] == base[field]
    assert other["betti"].as_dict() == base["betti"].as_dict()
