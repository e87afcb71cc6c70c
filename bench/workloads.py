"""The benchmark's three workloads and the correctness gate on their outputs.

Each workload turns ``(seed, pass_index)`` into units of work, runs one unit
through the public ``triring.cli`` API and returns the points it requested,
the per-point latencies it could observe, and the records the gate checks.

* ``kappa_b-d5-serial``: one ``run_point`` call per unit on the paper's
  41-point bridge-loss axis at dims (5, 5, 5).
* ``grid-d5-pool``: one ``run_sweep`` per unit over a 6 x 4 theta x kappa_b
  grid with ``jobs=None`` (one worker per CPU, BLAS threads as inherited).
* ``scenarios-d4``: one unit runs seven named scenarios at dims 4 with
  ``jobs=1``; their grids are fixed, so the seed is ignored.

At seed 0 the first pass uses the paper's grids, which the checked-in
reference covers.  Every other (seed, pass) shifts each grid axis by a
seeded fraction of its step, so later passes never repeat a point.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

D5 = (5, 5, 5)
KAPPA_AXIS = ("kappa_b", 0.0, 2.0, 41)
GRID_AXES = (("theta", 0.0, math.pi, 6), ("kappa_b", 0.0, 2.0, 4))
# outside every kappa_b grid the workloads can generate (at most 2 + one step)
WARMUP_KAPPA_B = 2.5
SCENARIO_DIMS = 4
# grid points each scenario requests from run_point, duplicates included
SCENARIO_POINTS = {
    "fig2a": 101,
    "fig2d": 101,
    "fig3": 83,
    "fig4": 81,
    "fig5c": 81,
    "smatrix-check": 0,
    "conditions-check": 0,
}
ANALYTIC_FILES = ("smatrix_check", "conditions_check")
ROUNDOFF = 1e-12
TOL_FACTOR = 2.0
TOL_FLOOR = {"rel": 1e-9, "abs": 1e-12}
P_M_MAX = 5

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class UnitResult:
    points: int
    records: object  # list of row dicts, or {file: {"columns", "rows"}} for scenarios
    latencies: list[float] = field(default_factory=list)
    outputs: object = None  # what a traced re-run must reproduce exactly


def axis_offset(seed: int, pass_index: int, axis: str) -> float:
    """Fraction of a grid step by which an axis is shifted."""
    if seed == 0 and pass_index == 0:
        return 0.0
    return random.Random(f"{seed}/{pass_index}/{axis}").random()


def shifted_axis(cli, axis, seed: int, pass_index: int):
    name, start, stop, count = axis
    shift = axis_offset(seed, pass_index, name) * (stop - start) / (count - 1)
    return cli.Axis(name, start + shift, stop + shift, count)


# ---------------------------------------------------------------------------
# records


def observable_class(column: str) -> str | None:
    """Tolerance class of a compared column: t, g2, g3 (relative) or p (absolute)."""
    m = re.fullmatch(r"(t|g2|g3)_(fwd|bwd)", column)
    if m:
        return m.group(1)
    if re.fullmatch(r"p\d_(fwd|bwd)|p_m", column):
        return "p"
    return None


def tolerance_kind(cls: str) -> str:
    return "abs" if cls == "p" else "rel"


def point_record(result) -> dict:
    """The columns a sweep row carries for one PointResult."""
    rec = {
        name: getattr(result, name)
        for name in ("t_fwd", "t_bwd", "isolation", "g2_fwd", "g2_bwd",
                     "g3_fwd", "g3_bwd", "ratio", "error_fwd", "error_bwd")
    }
    for suffix in ("fwd", "bwd"):
        dist = getattr(result, f"p_m_{suffix}") or ()
        for m, p in enumerate(dist[:P_M_MAX]):
            rec[f"p{m}_{suffix}"] = p
    return rec


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"columns": rows[0], "rows": [[_cell(c) for c in row] for row in rows[1:]]}


# ---------------------------------------------------------------------------
# workloads


def kappa_units(cli, seed: int, pass_index: int) -> list:
    axis = shifted_axis(cli, KAPPA_AXIS, seed, pass_index)
    return [cli.baseline_params(kappa_b=float(v)) for v in axis.values()]


def kappa_run(cli, params, out_dir: Path, jobs) -> UnitResult:
    start = time.perf_counter()
    result = cli.run_point(params, dims=D5)
    latency = time.perf_counter() - start
    rec = {"kappa_b": params.kappa_b, **point_record(result)}
    return UnitResult(points=1, records=[rec], latencies=[latency], outputs=[rec])


def kappa_warmup(cli) -> None:
    cli.run_point(cli.baseline_params(kappa_b=WARMUP_KAPPA_B), dims=D5)


def grid_units(cli, seed: int, pass_index: int) -> list:
    spec = cli.SweepSpec(
        axes=tuple(shifted_axis(cli, ax, seed, pass_index) for ax in GRID_AXES),
        fixed=cli.baseline_params(),
        dims=D5,
        name="grid",
    )
    return [spec]


def grid_run(cli, spec, out_dir: Path, jobs) -> UnitResult:
    start = time.perf_counter()
    result = cli.run_sweep(spec, jobs=jobs)
    wall = time.perf_counter() - start
    records = [dict(zip(result.columns, row)) for row in result.rows]
    # workers are separate processes, so a point's own latency is not
    # observable here; the sample is the mean time a worker spends per point
    workers = min(jobs or os.cpu_count() or 1, spec.n_points)
    return UnitResult(
        points=spec.n_points,
        records=records,
        latencies=[wall * workers / spec.n_points],
        outputs=result.rows,
    )


def scenario_units(cli, seed: int, pass_index: int) -> list:
    return [tuple(SCENARIO_POINTS)]


def scenario_run(cli, names, out_dir: Path, jobs) -> UnitResult:
    """Run the scenarios into ``out_dir``, timing each run_point call they make."""
    latencies: list[float] = []
    original = cli.run_point

    def timed_run_point(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    cli.run_point = timed_run_point
    try:
        files = []
        for name in names:
            files += cli.scenario(name, out_dir, dims=SCENARIO_DIMS, jobs=jobs)
    finally:
        cli.run_point = original
    tables = {p.stem: read_csv(p) for p in files if p.suffix == ".csv"}
    outputs = {
        p.name: p.read_bytes()
        for p in files
        if p.suffix in (".csv", ".json") and not p.stem.endswith("_manifest")
    }
    return UnitResult(
        points=sum(SCENARIO_POINTS[n] for n in names),
        records=tables,
        latencies=latencies,
        outputs=outputs,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    units: object  # (cli, seed, pass_index) -> list of units
    run: object  # (cli, unit, out_dir, jobs) -> UnitResult
    jobs: int | None = 1  # None: the CLI default of one worker per CPU
    # BLAS threads set before numpy loads; None keeps the inherited setting
    blas_threads: str | None = "1"
    warmup: object = None  # (cli) -> None, run before the timed region
    seeded: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kappa_b-d5-serial", kappa_units, kappa_run, warmup=kappa_warmup),
        # the BLAS oversubscription this workload measures must stay visible
        Workload("grid-d5-pool", grid_units, grid_run, jobs=None, blas_threads=None),
        Workload("scenarios-d4", scenario_units, scenario_run, seeded=False),
    )
}


# ---------------------------------------------------------------------------
# correctness gate


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(value, ref, tol: float, kind: str) -> bool:
    """``rel``: relative to |ref|; ``abs``: absolute; ``mixed``: relative above 1."""
    if value is None or ref is None:
        return value is ref
    scale = {"rel": abs(ref), "abs": 1.0, "mixed": max(abs(ref), 1.0)}[kind]
    return abs(value - ref) <= tol * scale


def _check_point(rec: dict, where: str, errors: list) -> None:
    """Invariants every point must satisfy, at every seed."""
    for key in ("error_fwd", "error_bwd"):
        if rec.get(key):
            errors.append(f"{where}: {key} = {rec[key]!r}")
    numbers = {
        k: v for k, v in rec.items()
        if not k.startswith(("error_", "notes", "residual_")) and isinstance(v, float)
    }
    bad = [k for k, v in numbers.items() if not math.isfinite(v)]
    if bad:
        errors.append(f"{where}: non-finite {bad}")
        return
    if "isolation" in rec:
        if rec["isolation"] != abs(rec["t_fwd"] - rec["t_bwd"]):
            errors.append(f"{where}: isolation != |t_fwd - t_bwd|")
    if "ratio" in rec:
        if rec["ratio"] is None or not 0.0 <= rec["ratio"] <= 1.0:
            errors.append(f"{where}: ratio {rec['ratio']!r} outside [0, 1]")
    for suffix in ("fwd", "bwd"):
        dist = [v for k, v in numbers.items() if re.fullmatch(rf"p\d_{suffix}", k)]
        if dist and (sum(dist) > 1.0 + ROUNDOFF or min(dist) < -ROUNDOFF):
            errors.append(f"{where}: P_m ({suffix}) sums to {sum(dist)!r}")


def _compare(rec: dict, ref: dict, tolerance: dict | None, where: str, errors: list) -> None:
    """Compare against reference values; ``tolerance=None`` means round-off only."""
    for column, expected in ref.items():
        cls = observable_class(column)
        if cls is None or tolerance is None:
            tol, kind = ROUNDOFF, "mixed"
        else:
            tol, kind = tolerance[cls], tolerance_kind(cls)
        if not _close(rec.get(column), expected, tol, kind):
            errors.append(
                f"{where}: {column} = {rec.get(column)!r}, reference {expected!r} "
                f"({kind} tolerance {tol:.3g})"
            )


def check_points(name: str, passes: list, seed: int, reference: dict) -> list[str]:
    """Gate for the point workloads; ``passes`` lists (pass_index, records)."""
    errors: list[str] = []
    for pass_index, records in passes:
        for i, rec in enumerate(records):
            where = f"{name} pass {pass_index} point {i}"
            _check_point(rec, where, errors)
            if seed == 0 and pass_index == 0:
                ref = reference["points"]
                if i >= len(ref):
                    errors.append(f"{where}: beyond the {len(ref)} reference points")
                else:
                    _compare(rec, ref[i], reference["tolerance"][i], where, errors)
    return errors


def check_scenarios(tables: dict, reference: dict) -> list[str]:
    """Gate for one pass of scenarios-d4: fixed grids, so always compared."""
    errors: list[str] = []
    if sorted(tables) != sorted(reference["files"]):
        return [f"scenario files {sorted(tables)} differ from {sorted(reference['files'])}"]
    for stem, table in tables.items():
        ref = reference["files"][stem]
        if table["columns"] != ref["columns"] or len(table["rows"]) != ref["n_rows"]:
            errors.append(f"{stem}: columns or row count differ from the reference")
            continue
        columns = table["columns"]
        for i, row in enumerate(table["rows"]):
            rec = dict(zip(columns, row))
            where = f"{stem} row {i}"
            if stem in ANALYTIC_FILES:
                bad = [c for c in ("diff_fwd", "diff_bwd") if c in rec and not rec[c] <= ROUNDOFF]
                if bad:
                    errors.append(f"{where}: {bad} above closed-form round-off")
            else:
                _check_point(rec, where, errors)
            expected = {c: values[i] for c, values in ref["values"].items()}
            # analytic columns do not depend on the truncation
            tolerance = None if stem in ANALYTIC_FILES else ref["tolerance"][i]
            _compare(rec, expected, tolerance, where, errors)
    return errors
