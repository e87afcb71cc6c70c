"""Compare two directories of triring outputs, file by file.

    python tools/compare_outputs.py DIR_A DIR_B

Every file under either directory is matched by its relative path.  A file
on both sides prints ``identical``, or ``differs`` followed by one line per
column that changed: for numeric cells the largest absolute and relative
change (relative to DIR_A's value) and the row where each occurs, for other
cells the count and the first row.  CSV and JSON tables (``columns`` and
``rows``) are compared cell by cell, with rows counted from 0 after the
header; any other JSON document, such as a ``triring point`` result, is
compared leaf by leaf under its key path.  A manifest
(``*_manifest.json``) is compared without ``wall_time_s``, which differs on
every run.  A file on one side only is reported as ``missing`` (DIR_A only)
or ``extra`` (DIR_B only).

A changed ``t``, ``g2`` or ``g3`` value of one side (``t_fwd``, ``g3_bwd``,
...) whose row or JSON object in DIR_A also holds the matching relative
truncation drift (``drift_t_fwd``, ...) is also reported in units of that
drift: the largest relative change divided by the drift, with its row.
Cells whose drift is empty or 0 are left out of that figure.

The exit status is 0 when every file is identical and 1 on any difference,
so the command can gate a refactor that must keep its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

ABSENT = "<absent>"
# the values run_point reports a relative truncation drift for
DRIFTED = re.compile(r"(t|g2|g3)_(fwd|bwd)")


def _is_manifest(path: Path) -> bool:
    return path.name.endswith("_manifest.json")


def _flatten(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _flatten(item, f"{path}[{k}]", out)
    else:
        out[(path, None)] = value


def _cells(path: Path) -> dict:
    """The file's values keyed by (column, row); row is None outside a table."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        return {
            (column, r): cell
            for r, row in enumerate(rows)
            for column, cell in zip(header, row)
        }
    with open(path) as fh:
        doc = json.load(fh)
    if _is_manifest(path):
        # the only field that differs between two runs of the same inputs
        doc.pop("wall_time_s", None)
    cells = {}
    if isinstance(doc, dict) and doc.keys() >= {"columns", "rows"}:
        cells = {
            (column, r): cell
            for r, row in enumerate(doc["rows"])
            for column, cell in zip(doc["columns"], row)
        }
        doc = {key: value for key, value in doc.items() if key != "rows"}
    _flatten(doc, "", cells)
    return cells


def _number(value) -> float | None:
    """``value`` as a finite float, or None where it is not one."""
    if isinstance(value, bool) or value is ABSENT:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def _at(row) -> str:
    return "" if row is None else f" at row {row}"


def _drift_key(key: tuple) -> tuple | None:
    """The (column, row) of the drift that goes with ``key``'s value: the
    same row of a table, or the same object of a JSON document."""
    column, row = key
    head, dot, name = column.rpartition(".")
    return (f"{head}{dot}drift_{name}", row) if DRIFTED.fullmatch(name) else None


def compare_file(path_a: Path, path_b: Path) -> list[str]:
    """Lines describing how ``path_b`` differs from ``path_a``; empty if it
    does not."""
    if path_a.read_bytes() == path_b.read_bytes():
        return []
    if path_a.suffix not in (".csv", ".json"):
        return ["  contents differ (not a CSV or JSON file)"]
    cells_a, cells_b = _cells(path_a), _cells(path_b)
    # column -> [cells changed, (abs, row), (rel, row), first other change,
    #            (rel / drift, row)]
    changes: dict = {}
    for key in [*cells_a, *(k for k in cells_b if k not in cells_a)]:
        a, b = cells_a.get(key, ABSENT), cells_b.get(key, ABSENT)
        # repr tells 1 from 1.0 and -0.0 from 0.0, and equates nan with nan
        if repr(a) == repr(b):
            continue
        column, row = key
        entry = changes.setdefault(column, [0, None, None, None, None])
        entry[0] += 1
        x, y = _number(a), _number(b)
        if x is None or y is None:
            entry[3] = entry[3] or (row, a, b)
            continue
        change = abs(y - x)
        relative = change / abs(x) if x else math.inf
        if entry[1] is None or change > entry[1][0]:
            entry[1] = (change, row)
        if entry[2] is None or relative > entry[2][0]:
            entry[2] = (relative, row)
        drift_key = _drift_key(key)
        drift = _number(cells_a.get(drift_key, ABSENT)) if drift_key else None
        if drift and (entry[4] is None or relative / drift > entry[4][0]):
            entry[4] = (relative / drift, row)
    if not changes:
        # a manifest may differ in wall_time_s alone; any other file is
        # only identical byte for byte, so another layout is a difference
        return [] if _is_manifest(path_a) else ["  same values, different bytes"]
    lines = []
    for column, (count, largest, relative, other, drifts) in changes.items():
        parts = [f"{count} cell{'s differ' if count > 1 else ' differs'}"]
        if largest is not None:
            parts.append(f"max abs change {largest[0]:.3e}{_at(largest[1])}")
            parts.append(f"max rel change {relative[0]:.3e}{_at(relative[1])}")
        if drifts is not None:
            parts.append(f"max change in drift units {drifts[0]:.3e}{_at(drifts[1])}")
        if other is not None:
            row, a, b = other
            parts.append(f"non-numeric change{_at(row)}: {a!r} -> {b!r}")
        lines.append(f"  {column}: " + "; ".join(parts))
    return lines


def compare_dirs(dir_a: Path, dir_b: Path, out=None) -> bool:
    """Print the report for two directories to ``out`` (default stdout);
    True when every file is identical."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    same = True
    for name in sorted(files_a | files_b):
        if name not in files_b:
            print(f"{name}: missing (in {dir_a} only)", file=out)
        elif name not in files_a:
            print(f"{name}: extra (in {dir_b} only)", file=out)
        else:
            lines = compare_file(dir_a / name, dir_b / name)
            print(f"{name}: {'differs' if lines else 'identical'}", file=out)
            for line in lines:
                print(line, file=out)
            if not lines:
                continue
        same = False
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of triring outputs file by file; "
        "exit 1 on any difference."
    )
    parser.add_argument("dir_a", type=Path, help="reference outputs, such as the parent commit's")
    parser.add_argument("dir_b", type=Path, help="outputs to check against DIR_A")
    args = parser.parse_args(argv)
    for path in (args.dir_a, args.dir_b):
        if not path.is_dir():
            parser.error(f"{path} is not a directory")
    return 0 if compare_dirs(args.dir_a, args.dir_b) else 1


if __name__ == "__main__":
    sys.exit(main())
