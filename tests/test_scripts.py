"""The scripts under ``scripts/``, run in-process against golden output."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXPORT_GOLDEN = pathlib.Path(__file__).parent / "data" / "export"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
def test_export_complex_matches_golden(monkeypatch, capsys, tmp_path, n, k):
    # pins generator codes and order, every differential entry with its
    # sign, and the DOT drawings
    script = load_script("export_complex")
    monkeypatch.setattr("sys.argv", ["export_complex.py", "--n", str(n),
                                     "--k", str(k), "--out-dir", str(tmp_path)])
    script.main()
    stem = f"stirling_{n}_{k}"
    written = sorted(p.name for p in tmp_path.iterdir())
    expected = sorted(p.name for p in EXPORT_GOLDEN.glob(f"{stem}*"))
    assert written == expected
    assert len(expected) == 2 + n - k
    for name in expected:
        assert (tmp_path / name).read_bytes() == (EXPORT_GOLDEN / name).read_bytes()


def test_reproduce_results_runs_clean(monkeypatch, capsys):
    script = load_script("reproduce_results")
    monkeypatch.setattr("sys.argv", ["reproduce_results.py", "--max-n", "4",
                                     "--max-m", "4"])
    assert script.main() == 0
    assert "0 mismatches" in capsys.readouterr().out


def refuse(*args, **kwargs):
    raise AssertionError("a complex was built before the refusal")


def test_export_above_n7_refused_before_work(monkeypatch, tmp_path):
    # n = 8 is beyond what the CLI admits; no complex is built and nothing
    # is written
    script = load_script("export_complex")
    monkeypatch.setattr(script, "StirlingComplex", refuse)
    monkeypatch.setattr("sys.argv", ["export_complex.py", "--n", "8", "--k", "3",
                                     "--out-dir", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as refusal:
        script.main()
    assert "n <= 7" in str(refusal.value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n,k", [(3, 5), (0, 0), (4, 1)])
def test_export_outside_the_domain_refused_before_work(monkeypatch, tmp_path, n, k):
    # a type with no complex is refused like n = 8, before any work, not
    # with a traceback from the complex's constructor
    script = load_script("export_complex")
    monkeypatch.setattr(script, "StirlingComplex", refuse)
    monkeypatch.setattr("sys.argv", ["export_complex.py", "--n", str(n), "--k", str(k),
                                     "--out-dir", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as refusal:
        script.main()
    assert "2 <= k <= n <= 7" in str(refusal.value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--max-n", "8"], ["--max-m", "8"],
                                  ["--max-n", "8", "--include-large"]])
def test_reproduce_above_its_bounds_refused_before_work(monkeypatch, capsys, argv):
    # GC(8) has 3.79M generators and n = 8 is beyond the CLI's bound: the
    # run is refused before any complex is built or any line printed
    script = load_script("reproduce_results")
    monkeypatch.setattr("stirhom.stirling.StirlingComplex", refuse)
    monkeypatch.setattr(script, "GraphComplex", refuse)
    monkeypatch.setattr("sys.argv", ["reproduce_results.py", *argv])
    with pytest.raises(SystemExit) as refusal:
        script.main()
    assert "<= 7" in str(refusal.value)
    assert capsys.readouterr().out == ""


def test_reproduce_runs_each_large_type_once(monkeypatch, capsys):
    # with --max-n 7 the grid already holds (7, 2) and (7, 3), so
    # --include-large adds neither again; the surveys are counted, not run
    from stirhom import characters
    script = load_script("reproduce_results")
    surveys = []

    def survey(n, k):
        surveys.append((n, k))
        return {"concentrated_in": n, "betti": {n: characters.stirling_unsigned(n, k)},
                "reach_ok": True, "d2_ok": True, "euler": characters.stirling_signed(n, k)}

    monkeypatch.setattr(script.S, "survey", survey)
    monkeypatch.setattr(script.C, "equivariant_euler_character", lambda cx: None)
    monkeypatch.setattr(script.C, "decompose", lambda cf: {})
    monkeypatch.setattr("sys.argv", ["reproduce_results.py", "--max-n", "7",
                                     "--max-m", "3", "--include-large"])
    assert script.main() == 0
    assert surveys == [(n, k) for n in range(2, 8) for k in range(2, n + 1)]
    monkeypatch.setattr("sys.argv", ["reproduce_results.py", "--max-n", "3",
                                     "--max-m", "3", "--include-large"])
    surveys.clear()
    assert script.main() == 0
    assert surveys == [(2, 2), (3, 2), (3, 3), (7, 2), (7, 3)]
