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
