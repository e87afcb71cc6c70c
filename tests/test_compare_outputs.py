"""tools/compare_outputs.py: identical outputs pass, any changed value fails
and is named by file, column and row, and in units of its truncation drift
where the row holds one.  With --values-may-differ only a missing or extra
file fails."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from triring import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = {
    "name": "smoke", "dims": [3, 1, 3],
    "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 3}],
    "fixed": {"omega": 0.1, "u": 5.0, "j_ac": 0.70710678, "theta": -0.78539816,
              "j_ab": 0, "j_bc": 0, "kappa_b": 0},
}


def write_outputs(out: Path, spec: Path) -> None:
    assert cli.main(["scenario", "conditions-check", "--out", str(out)]) == 0
    assert cli.main(["sweep", str(spec), "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs of the same inputs: their manifests differ in wall_time_s."""
    root = tmp_path_factory.mktemp("outputs")
    spec = root / "smoke_sweep.json"
    spec.write_text(json.dumps(SWEEP))
    for name in ("a", "b"):
        write_outputs(root / name, spec)
    a, b = root / "a", root / "b"
    wall_times = [json.loads((d / "smoke_manifest.json").read_text())["wall_time_s"] for d in (a, b)]
    assert wall_times[0] != wall_times[1]
    return a, b


def run(compare_outputs, capsys, a, b, *flags):
    capsys.readouterr()
    status = compare_outputs.main([str(a), str(b), *flags])
    return status, capsys.readouterr().out


def edited_copy(source: Path, target: Path, name: str, edit) -> Path:
    shutil.copytree(source, target)
    path = target / name
    path.write_text(edit(path.read_text()))
    return target


def test_identical_runs_pass(compare_outputs, capsys, runs, tmp_path):
    a, b = runs
    status, out = run(compare_outputs, capsys, a, shutil.copytree(a, tmp_path / "copy"))
    assert status == 0
    status, out = run(compare_outputs, capsys, a, b)
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 6 and all(line.endswith(": identical") for line in lines)


def test_changed_cell_named_by_file_column_and_row(compare_outputs, capsys, runs, tmp_path):
    a, _ = runs
    rows = (a / "conditions_check.csv").read_text().splitlines()
    cells = rows[3].split(",")
    t_fwd = cells[6]
    cells[6] = repr(float(t_fwd) * (1 + 1e-9))
    rows[3] = ",".join(cells)
    b = edited_copy(a, tmp_path / "b", "conditions_check.csv", lambda _: "\n".join(rows) + "\n")
    status, out = run(compare_outputs, capsys, a, b)
    assert status == 1
    assert "conditions_check.csv: differs\n" in out
    assert "  t_fwd: 1 cell differs; max abs change" in out
    assert "at row 2; max rel change 1.000e-09 at row 2" in out
    assert "conditions_check.json: identical" in out


def test_changed_manifest_field_fails(compare_outputs, capsys, runs, tmp_path):
    a, _ = runs
    b = edited_copy(
        a, tmp_path / "b", "smoke_manifest.json",
        lambda text: text.replace('"directions": "both"', '"directions": "left"'),
    )
    status, out = run(compare_outputs, capsys, a, b)
    assert status == 1
    assert "smoke_manifest.json: differs\n  directions: 1 cell differs; non-numeric change: 'both' -> 'left'" in out


def test_missing_and_extra_files_fail(compare_outputs, capsys, runs, tmp_path):
    a, _ = runs
    b = shutil.copytree(a, tmp_path / "b")
    (b / "smoke.json").unlink()
    (b / "notes.txt").write_text("x\n")
    status, out = run(compare_outputs, capsys, a, b)
    assert status == 1
    assert f"smoke.json: missing (in {a} only)" in out
    assert f"notes.txt: extra (in {b} only)" in out


def test_change_in_drift_units(compare_outputs, capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    header = "t_fwd,g3_bwd,drift_t_fwd,drift_g3_bwd\n"
    # row 0: t_fwd moves 0.1 drift; row 1: 0.5 drift; g3_bwd's drift is empty or 0
    (a / "sweep.csv").write_text(header + "0.5,2.0,0.01,\n0.25,1.5,0.002,0.0\n")
    (b / "sweep.csv").write_text(header + "0.5005,2.5,0.01,\n0.25025,1.0,0.002,0.0\n")
    (a / "point.json").write_text(json.dumps({"t_fwd": 0.5, "drift_t_fwd": 0.01}))
    (b / "point.json").write_text(json.dumps({"t_fwd": 0.5005, "drift_t_fwd": 0.01}))
    status, out = run(compare_outputs, capsys, a, b)
    assert status == 1
    lines = out.splitlines()
    assert lines[0] == "point.json: differs"
    assert lines[1].startswith("  t_fwd: 1 cell differs;")
    assert lines[1].endswith("; max change in drift units 1.000e-01")
    assert lines[2] == "sweep.csv: differs"
    assert lines[3].endswith("; max change in drift units 5.000e-01 at row 1")
    assert lines[4].startswith("  g3_bwd: 2 cells differ;") and "drift units" not in lines[4]


def test_values_may_differ_passes_a_changed_cell(compare_outputs, capsys, runs, tmp_path):
    a, _ = runs

    def nudge_t_fwd(text):
        rows = text.splitlines()
        cells = rows[3].split(",")
        cells[6] = repr(float(cells[6]) * (1 + 1e-9))
        rows[3] = ",".join(cells)
        return "\n".join(rows) + "\n"

    b = edited_copy(a, tmp_path / "b", "conditions_check.csv", nudge_t_fwd)
    status, out = run(compare_outputs, capsys, a, b, "--values-may-differ")
    assert status == 0
    assert "conditions_check.csv: differs\n  t_fwd: 1 cell differs; max abs change" in out
    assert "max rel change 1.000e-09 at row 2" in out


@pytest.mark.parametrize("kind", ["missing", "extra"])
def test_values_may_differ_fails_a_missing_or_extra_file(
    compare_outputs, capsys, runs, tmp_path, kind
):
    a, _ = runs
    b = shutil.copytree(a, tmp_path / "b")
    if kind == "missing":
        (b / "smoke.json").unlink()
    else:
        (b / "notes.txt").write_text("x\n")
    status, out = run(compare_outputs, capsys, a, b, "--values-may-differ")
    assert status == 1
    assert f": {kind} (in " in out
