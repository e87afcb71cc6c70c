#!/usr/bin/env python3
"""Record the correctness gate's reference values and tolerances.

    python3 bench/make_reference.py

Runs every seed-0 point of the three workloads serially, plus the same
points one Fock level finer per mode (the re-solve that
``run_point(..., convergence_check=True)`` makes), and writes
``bench/reference.json``.  Each point's tolerance for an observable is
TOL_FACTOR times that point's truncation drift: relative for T, g2 and g3,
absolute for the photon-number probabilities P_m.  T and g2 drifts are
checked to equal the ones ``convergence_check`` reports; g3 and P_m drifts
come from the same finer solve.  Each workload is recorded in its own
process with the BLAS thread setting its benchmark runs use.  Takes about
ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from run import environment, import_cli, pin_blas  # noqa: E402


def finer(dims):
    return tuple(d + 1 if d > 1 else d for d in dims)


def relative_drift(coarse, fine):
    return abs(coarse - fine) / max(abs(fine), 1e-300)


def point_drift(rec: dict, fine_rec: dict) -> dict:
    """Largest truncation drift of each observable class over one record."""
    drift: dict = {}
    for column, coarse in rec.items():
        cls = wl.observable_class(column)
        if cls is None or coarse is None:
            continue
        fine = fine_rec[column]
        value = abs(coarse - fine) if cls == "p" else relative_drift(coarse, fine)
        drift[cls] = max(drift.get(cls, 0.0), value)
    return drift


def tolerance(drift: dict) -> dict:
    return {
        cls: max(wl.TOL_FACTOR * value, wl.TOL_FLOOR[wl.tolerance_kind(cls)])
        for cls, value in drift.items()
    }


def compared(rec: dict, axes) -> dict:
    return {
        k: v for k, v in rec.items()
        if k in axes or wl.observable_class(k) is not None
    }


def largest(drifts: list[dict]) -> dict:
    return {cls: max(d[cls] for d in drifts if cls in d) for cls in set().union(*drifts)}


def check_reported(drift: dict, reported: dict) -> None:
    """T and g2 drifts must be the ones convergence_check reports."""
    for cls in ("t", "g2"):
        expected = max(reported[f"drift_{cls}_{s}"] for s in ("fwd", "bwd"))
        if drift[cls] != expected:
            raise RuntimeError(f"finer solve disagrees with convergence_check on {cls}")


def points_reference(records, fine_records, reported, axes) -> dict:
    drifts = []
    for rec, fine_rec, rep in zip(records, fine_records, reported):
        drifts.append(point_drift(rec, fine_rec))
        check_reported(drifts[-1], rep)
    return {
        "drift_max": largest(drifts),
        "points": [compared(rec, axes) for rec in records],
        "tolerance": [tolerance(d) for d in drifts],
    }


def kappa_reference(cli) -> dict:
    records, fine_records, reported = [], [], []
    for params in wl.kappa_units(cli, 0, 0):
        checked = cli.run_point(params, dims=wl.D5, convergence_check=True)
        fine = cli.run_point(params, dims=finer(wl.D5))
        records.append({"kappa_b": params.kappa_b, **wl.point_record(checked)})
        fine_records.append(wl.point_record(fine))
        reported.append(vars(checked))
    return points_reference(records, fine_records, reported, ("kappa_b",))


def grid_reference(cli) -> dict:
    spec = wl.grid_units(cli, 0, 0)[0]
    checked = cli.run_sweep(dataclasses.replace(spec, convergence_check=True), jobs=1)
    fine = cli.run_sweep(dataclasses.replace(spec, dims=finer(spec.dims)), jobs=1)
    records = [dict(zip(checked.columns, row)) for row in checked.rows]
    fine_records = [dict(zip(fine.columns, row)) for row in fine.rows]
    return points_reference(records, fine_records, records, ("theta", "kappa_b"))


def scenario_reference(cli) -> dict:
    names = wl.scenario_units(cli, 0, 0)[0]
    out = ROOT / ".bench_out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    try:
        coarse = wl.scenario_run(cli, names, out / "coarse", jobs=1).records
        fine_files = []
        for name in names:
            fine_files += cli.scenario(name, out / "fine", dims=wl.SCENARIO_DIMS + 1, jobs=1)
        fine = {p.stem: wl.read_csv(p) for p in fine_files if p.suffix == ".csv"}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    drifts = []
    files = {}
    for stem, table in coarse.items():
        columns = table["columns"]
        rows = [dict(zip(columns, row)) for row in table["rows"]]
        entry = {"columns": columns, "n_rows": len(rows)}
        if stem in wl.ANALYTIC_FILES:
            keep = [c for c, cell in rows[0].items() if isinstance(cell, float)]
        else:
            keep = [c for c in columns
                    if c in cli.AXIS_NAMES or c == "m" or wl.observable_class(c)]
            fine_rows = [dict(zip(columns, row)) for row in fine[stem]["rows"]]
            if stem == "fig3c":
                # the finer run lists one more m per direction
                index = {(r["kappa_b"], r["drive"], r["m"]): r for r in fine_rows}
                fine_rows = [index[(r["kappa_b"], r["drive"], r["m"])] for r in rows]
            row_drifts = [point_drift(r, f) for r, f in zip(rows, fine_rows)]
            drifts += row_drifts
            entry["tolerance"] = [tolerance(d) for d in row_drifts]
        entry["values"] = {c: [r[c] for r in rows] for c in keep}
        files[stem] = entry
    return {"drift_max": largest(drifts), "files": files}


RECORDERS = {
    "kappa_b-d5-serial": kappa_reference,
    "grid-d5-pool": grid_reference,
    "scenarios-d4": scenario_reference,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(RECORDERS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        # one workload per process, with the BLAS threads its runs use:
        # round-off from a different thread count can exceed the drift
        workload = wl.WORKLOADS[args.workload]
        pin_blas(workload)
        entry = RECORDERS[args.workload](import_cli())
        entry["environment"] = environment(seed=0, jobs=1)
        print(json.dumps(entry))
        return 0

    doc = {
        "tolerance_rule": (
            f"per point: {wl.TOL_FACTOR} x its truncation drift, relative for "
            f"t/g2/g3 (floor {wl.TOL_FLOOR['rel']}), absolute for p "
            f"(floor {wl.TOL_FLOOR['abs']})"
        ),
    }
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        doc[name] = json.loads(proc.stdout.splitlines()[-1])
        print(name, "largest drift", doc[name]["drift_max"])
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
