"""Configuration-driven runner: points, sweeps, and named scenarios.

Subcommands:

    point <config.json>     evaluate one parameter point (both directions)
    sweep <spec.json>       evaluate a 1D/2D grid, emit CSV/JSON + manifest
    scenario <name>         emit the data behind a named figure or check
    validate <config.json>  check a config document without running it

CSV output is deterministic: fixed column order, row-major grid order,
shortest round-trip float formatting, and "\\n" line endings, so repeated
runs of the same spec are byte-identical and parallel evaluation matches
serial evaluation exactly.  Failed grid points keep their row with an
error flag; values are never fabricated.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    InsufficientPopulationError,
    PointEvaluationError,
    SweepCapError,
    TriringError,
    UndefinedRatioError,
)
from .fock import CompositeSpace
from .lindblad import build_liouvillian, steady_state
from .model import (
    DriveSide,
    SystemParams,
    TransmissionDirection,
    build_hamiltonian,
    collapse_operators,
    optimal_condition,
)
from .observables import (
    PointResult,
    correlation_g_n,
    isolation,
    mean_occupation,
    nonreciprocal_ratio,
    photon_distribution,
    poisson_reference,
    transmission,
)
from .scattering import (
    LinearModel,
    scattering_matrix,
    transmission_closed_form,
)
from .model import MODE_A, MODE_B, MODE_C, phase_matching_residual

__all__ = [
    "Axis",
    "SweepSpec",
    "SweepResult",
    "run_point",
    "run_sweep",
    "scenario",
    "SCENARIO_NAMES",
    "baseline_params",
    "two_cavity_params",
    "params_from_dict",
    "params_to_dict",
    "apply_axis",
    "emit_sweep",
    "main",
]

AXIS_NAMES = ("delta", "kappa_b", "theta", "omega", "u", "j_ac")
DEFAULT_DIMS = (5, 5, 5)
DEFAULT_POINT_CAP = 40_000
# distributions are reported for m = 0 ... 4 regardless of truncation
P_M_MAX = 5


# ---------------------------------------------------------------------------
# parameter construction


_PARAM_KEYS = {
    "delta_a", "delta_c", "delta_b", "u_a", "u_c",
    "j_ab", "j_bc", "j_ac", "theta", "omega", "drive",
    "kappa_a", "kappa_c", "kappa_b",
}
_SHORTHAND = {
    "delta": ("delta_a", "delta_c", "delta_b"),
    "u": ("u_a", "u_c"),
    "j": ("j_ab", "j_bc", "j_ac"),
    "kappa": ("kappa_a", "kappa_c"),
}


def params_from_dict(doc: dict) -> SystemParams:
    """Build SystemParams from a JSON-style dict.

    Accepts the full field names plus the shorthands ``delta`` (all three
    detunings), ``u`` (both Kerr strengths), ``j`` (all three couplings)
    and ``kappa`` (both port losses).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"params must be an object, got {type(doc).__name__}")
    fields: dict = {}
    for key, value in doc.items():
        if key in _SHORTHAND:
            for target in _SHORTHAND[key]:
                fields[target] = float(value)
        elif key == "drive":
            try:
                fields["drive"] = DriveSide(str(value).lower())
            except ValueError:
                raise ConfigError(
                    f"drive must be 'left' or 'right', got {value!r}"
                ) from None
        elif key in _PARAM_KEYS:
            fields[key] = float(value)
        else:
            allowed = sorted(_PARAM_KEYS | set(_SHORTHAND))
            raise ConfigError(f"unknown parameter {key!r}; allowed: {allowed}")
    try:
        return SystemParams(**fields)
    except TriringError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def params_to_dict(params: SystemParams) -> dict:
    doc = dataclasses.asdict(params)
    doc["drive"] = params.drive.value
    return doc


def _parse_dims(value, default=DEFAULT_DIMS) -> tuple[int, ...]:
    if value is None:
        return tuple(default)
    dims = (value,) * 3 if isinstance(value, int) else tuple(int(d) for d in value)
    if len(dims) != 3:
        raise ConfigError(f"dims must have 3 entries (a, b, c), got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"dims must be >= 1, got {dims}")
    return dims


# ---------------------------------------------------------------------------
# single-point evaluation


def apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one sweep axis applied."""
    if name not in AXIS_NAMES:
        raise ConfigError(f"unknown sweep axis {name!r}; allowed: {list(AXIS_NAMES)}")
    targets = _SHORTHAND.get(name, (name,))
    return dataclasses.replace(params, **dict.fromkeys(targets, value))


_DIRECTIONS = {
    "both": (DriveSide.LEFT, DriveSide.RIGHT),
    "left": (DriveSide.LEFT,),
    "right": (DriveSide.RIGHT,),
}


def _drive_sides(directions) -> tuple[DriveSide, ...]:
    try:
        return _DIRECTIONS[directions]
    except (KeyError, TypeError):  # TypeError: an unhashable value from JSON
        raise ConfigError(
            f"directions must be 'both', 'left' or 'right', got {directions!r}"
        ) from None


def _solve_direction(params: SystemParams, dims: tuple[int, ...]) -> dict:
    """Steady state and observables for one drive side."""
    space = CompositeSpace(dims)
    h = build_hamiltonian(params, space)
    c_ops = collapse_operators(params, space)
    rho = steady_state(build_liouvillian(h, c_ops))
    out_mode = MODE_C if params.drive is DriveSide.LEFT else MODE_A
    values = {
        "t": transmission(rho, params),
        "residual": rho.diagnostics.residual if rho.diagnostics else None,
        "n_a": mean_occupation(rho, MODE_A),
        "n_b": mean_occupation(rho, MODE_B) if dims[MODE_B] > 1 else 0.0,
        "n_c": mean_occupation(rho, MODE_C),
        "p_m": tuple(float(p) for p in photon_distribution(rho, out_mode)[:P_M_MAX]),
        "g2": None,
        "g3": None,
        "g_error": None,
    }
    try:
        values["g2"] = correlation_g_n(rho, out_mode, 2)
        values["g3"] = correlation_g_n(rho, out_mode, 3)
    except InsufficientPopulationError as exc:
        values["g_error"] = str(exc)
    return values


def _direction_params(params: SystemParams, side: DriveSide) -> SystemParams:
    return dataclasses.replace(params, drive=side)


def run_point(
    params: SystemParams,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    directions: str = "both",
    convergence_check: bool = False,
    strict: bool = True,
) -> PointResult:
    """Evaluate one parameter point, solving each drive side independently.

    With ``convergence_check`` the point is re-solved with one extra Fock
    level per mode and the relative drifts of T and g2 are recorded.  With
    ``strict`` any failure raises :class:`PointEvaluationError` naming the
    failing direction; otherwise failures become error flags on the result.
    """
    sides = _drive_sides(directions)

    outcome: dict[DriveSide, dict] = {}
    errors: dict[DriveSide, str] = {}
    for side in sides:
        try:
            outcome[side] = _solve_direction(_direction_params(params, side), dims)
        except TriringError as exc:
            if strict:
                label = "forward (drive left)" if side is DriveSide.LEFT else "backward (drive right)"
                raise PointEvaluationError(
                    f"{label} evaluation failed: {exc}", direction=side.value
                ) from exc
            errors[side] = f"{type(exc).__name__}: {exc}"

    fields: dict = {}
    tag = {DriveSide.LEFT: "fwd", DriveSide.RIGHT: "bwd"}
    for side in sides:
        suffix = tag[side]
        if side in outcome:
            vals = outcome[side]
            fields[f"t_{suffix}"] = float(vals["t"])
            fields[f"g2_{suffix}"] = None if vals["g2"] is None else float(vals["g2"])
            fields[f"g3_{suffix}"] = None if vals["g3"] is None else float(vals["g3"])
            fields[f"p_m_{suffix}"] = vals["p_m"]
            fields[f"n_a_{suffix}"] = float(vals["n_a"])
            fields[f"n_b_{suffix}"] = float(vals["n_b"])
            fields[f"n_c_{suffix}"] = float(vals["n_c"])
            fields[f"residual_{suffix}"] = (
                None if vals["residual"] is None else float(vals["residual"])
            )
            fields[f"error_{suffix}"] = vals["g_error"]
        else:
            fields[f"error_{suffix}"] = errors[side]

    notes = None
    if fields.get("t_fwd") is not None and fields.get("t_bwd") is not None:
        fields["isolation"] = isolation(fields["t_fwd"], fields["t_bwd"])
    if fields.get("g2_fwd") is not None and fields.get("g2_bwd") is not None:
        try:
            fields["ratio"] = nonreciprocal_ratio(fields["g2_fwd"], fields["g2_bwd"])
        except UndefinedRatioError as exc:
            notes = str(exc)

    if convergence_check:
        finer = tuple(d + 1 if d > 1 else d for d in dims)
        for side in sides:
            if side not in outcome:
                continue
            suffix = tag[side]
            try:
                refined = _solve_direction(_direction_params(params, side), finer)
            except TriringError as exc:
                note = f"convergence re-solve failed ({suffix}): {exc}"
                notes = note if notes is None else f"{notes}; {note}"
                continue
            fields[f"drift_t_{suffix}"] = _relative_drift(
                outcome[side]["t"], refined["t"]
            )
            if outcome[side]["g2"] is not None and refined["g2"] is not None:
                fields[f"drift_g2_{suffix}"] = _relative_drift(
                    outcome[side]["g2"], refined["g2"]
                )

    return PointResult(notes=notes, **fields)


def _relative_drift(coarse: float, fine: float) -> float:
    return abs(coarse - fine) / max(abs(fine), 1e-300)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(
                f"unknown sweep axis {self.name!r}; allowed: {list(AXIS_NAMES)}"
            )
        if self.count < 2:
            raise ConfigError(f"axis {self.name!r} needs count >= 2, got {self.count}")
        if self.start == self.stop:
            raise ConfigError(f"axis {self.name!r} has start == stop == {self.start}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A 1D or 2D grid over immutable baseline parameters."""

    axes: tuple[Axis, ...]
    fixed: SystemParams
    directions: str = "both"
    dims: tuple[int, ...] = DEFAULT_DIMS
    outputs: tuple[str, ...] | None = None
    convergence_check: bool = False
    point_cap: int = DEFAULT_POINT_CAP
    name: str = "sweep"

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError(f"a sweep needs 1 or 2 axes, got {len(self.axes)}")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"sweep axes must be distinct, got {names}")
        _drive_sides(self.directions)
        total = self.n_points
        if total > self.point_cap:
            raise SweepCapError(
                f"sweep has {total} grid points, exceeding the cap of {self.point_cap}; "
                "raise point_cap explicitly if this is intended"
            )
        if self.outputs is not None:
            allowed = set(_value_columns(self.dims, self.convergence_check))
            unknown = [c for c in self.outputs if c not in allowed]
            if unknown:
                raise ConfigError(
                    f"unknown output columns {unknown}; allowed: {sorted(allowed)}"
                )

    @property
    def n_points(self) -> int:
        return math.prod(ax.count for ax in self.axes)

    def grid(self) -> list[tuple[float, ...]]:
        """Grid points in row-major order (first axis outermost)."""
        grids = [ax.values() for ax in self.axes]
        if len(grids) == 1:
            return [(float(v),) for v in grids[0]]
        return [(float(u), float(v)) for u in grids[0] for v in grids[1]]


def _p_columns(dims: tuple[int, ...]) -> tuple[list[str], list[str]]:
    fwd = [f"p{m}_fwd" for m in range(min(P_M_MAX, dims[MODE_C]))]
    bwd = [f"p{m}_bwd" for m in range(min(P_M_MAX, dims[MODE_A]))]
    return fwd, bwd


def _value_columns(dims: tuple[int, ...], convergence_check: bool) -> list[str]:
    p_fwd, p_bwd = _p_columns(dims)
    cols = [
        "t_fwd", "t_bwd", "isolation",
        "g2_fwd", "g2_bwd", "g3_fwd", "g3_bwd", "ratio",
        "n_a_fwd", "n_b_fwd", "n_c_fwd", "n_a_bwd", "n_b_bwd", "n_c_bwd",
        *p_fwd, *p_bwd,
    ]
    if convergence_check:
        cols += ["drift_t_fwd", "drift_t_bwd", "drift_g2_fwd", "drift_g2_bwd"]
    return cols


_DIAG_COLUMNS = ["residual_fwd", "residual_bwd", "error_fwd", "error_bwd", "notes"]


def _result_cell(result: PointResult, column: str):
    if column.startswith("p") and ("_fwd" in column or "_bwd" in column) and column[1].isdigit():
        m = int(column[1:column.index("_")])
        dist = result.p_m_fwd if column.endswith("_fwd") else result.p_m_bwd
        if dist is None or m >= len(dist):
            return None
        return dist[m]
    return getattr(result, column)


def _point_row(axes_values, result: PointResult, columns) -> list:
    row = list(axes_values)
    for col in columns[len(axes_values):]:
        row.append(_result_cell(result, col))
    return row


def _sweep_worker(args) -> PointResult:
    spec, values = args
    params = spec.fixed
    for ax, value in zip(spec.axes, values):
        params = apply_axis(params, ax.name, value)
    return run_point(
        params,
        dims=spec.dims,
        directions=spec.directions,
        convergence_check=spec.convergence_check,
        strict=False,
    )


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: list[str]
    rows: list[list]
    wall_time_s: float = 0.0

    @property
    def n_errors(self) -> int:
        i_err = [self.columns.index(c) for c in ("error_fwd", "error_bwd")]
        return sum(1 for row in self.rows if any(row[i] for i in i_err))

    def max_residual(self) -> float | None:
        idx = [
            self.columns.index(c)
            for c in ("residual_fwd", "residual_bwd")
            if c in self.columns
        ]
        residuals = [row[i] for row in self.rows for i in idx if row[i] is not None]
        return max(residuals) if residuals else None


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate every grid point, serially or with a process pool.

    Results are ordered by grid index regardless of worker scheduling, so
    parallel and serial runs produce identical tables.
    """
    start = time.monotonic()
    grid = spec.grid()
    tasks = [(spec, values) for values in grid]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(grid) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks, chunksize=8))
    else:
        results = [_sweep_worker(task) for task in tasks]

    axis_cols = [ax.name for ax in spec.axes]
    value_cols = _value_columns(spec.dims, spec.convergence_check)
    if spec.outputs is not None:
        value_cols = [c for c in value_cols if c in spec.outputs]
    columns = axis_cols + value_cols + _DIAG_COLUMNS
    rows = [
        _point_row(values, result, columns)
        for values, result in zip(grid, results)
    ]
    return SweepResult(
        spec=spec, columns=columns, rows=rows,
        wall_time_s=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# deterministic table output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(fh: TextIO, columns: list[str], rows: list[list]) -> None:
    """Write a header and rows as CSV with "\\n" line endings to an open text stream."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])


def _json_cell(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def write_json(path: Path, name: str, columns: list[str], rows: list[list]) -> None:
    doc = {
        "name": name,
        "columns": columns,
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(
    out_dir: Path,
    basename: str,
    columns: list[str],
    rows: list[list],
    manifest: dict,
    formats: tuple[str, ...],
) -> list[Path]:
    """Write ``<basename>.csv`` / ``.json`` and ``<basename>_manifest.json``.

    ``manifest`` gains ``name`` and ``files`` unless it sets them itself.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out_dir / f"{basename}.csv"
        with open(path, "w", newline="") as fh:
            write_csv(fh, columns, rows)
        written.append(path)
    if "json" in formats:
        path = out_dir / f"{basename}.json"
        write_json(path, basename, columns, rows)
        written.append(path)
    manifest = {"name": basename, "files": [p.name for p in written], **manifest}
    manifest_path = out_dir / f"{basename}_manifest.json"
    _write_manifest(manifest_path, manifest)
    written.append(manifest_path)
    return written


def emit_sweep(
    result: SweepResult,
    out_dir: Path,
    basename: str | None = None,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Write CSV/JSON mirrors plus a run manifest for a finished sweep."""
    manifest = {
        "kind": "sweep",
        "axes": [dataclasses.asdict(ax) for ax in result.spec.axes],
        "fixed": params_to_dict(result.spec.fixed),
        "dims": list(result.spec.dims),
        "directions": result.spec.directions,
        "n_points": result.spec.n_points,
        "n_errors": result.n_errors,
        "max_residual": result.max_residual(),
        "wall_time_s": result.wall_time_s,
    }
    return _emit(
        out_dir, basename or result.spec.name, result.columns, result.rows,
        manifest, formats,
    )


def emit_table(
    out_dir: Path,
    basename: str,
    columns: list[str],
    rows: list[list],
    manifest_extra: dict | None = None,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Write CSV/JSON mirrors plus a manifest for a table built outside a sweep."""
    manifest = {"kind": "table", **(manifest_extra or {})}
    return _emit(out_dir, basename, columns, rows, manifest, formats)


# ---------------------------------------------------------------------------
# named scenarios

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def baseline_params(**overrides) -> SystemParams:
    """Canonical working point: equal port losses kappa, all couplings
    sqrt(2) kappa / 2, Kerr strength 5 kappa, drive 0.1 kappa, phase -pi/4,
    common detuning 0.5 kappa, bridge loss kappa."""
    fields = dict(
        delta_a=0.5, delta_c=0.5, delta_b=0.5,
        u_a=5.0, u_c=5.0,
        j_ab=SQRT2_OVER_2, j_bc=SQRT2_OVER_2, j_ac=SQRT2_OVER_2,
        theta=-math.pi / 4,
        omega=0.1,
        kappa_a=1.0, kappa_c=1.0, kappa_b=1.0,
    )
    fields.update(overrides)
    return SystemParams(**fields)


def two_cavity_params(**overrides) -> SystemParams:
    """Baseline with the bridge cavity removed (j_ab = j_bc = kappa_b = 0)."""
    return baseline_params(j_ab=0.0, j_bc=0.0, kappa_b=0.0, **overrides)


def _two_cavity_dims(dims: tuple[int, ...]) -> tuple[int, ...]:
    # the decoupled bridge mode stays in vacuum exactly; one level suffices
    return (dims[0], 1, dims[2])


# named grids and column sets shared by the scenario table
_DELTA_101 = Axis("delta", -3.0, 3.0, 101)
_DELTA_61 = Axis("delta", -3.0, 3.0, 61)
_KAPPA_B_0_1 = Axis("kappa_b", 0.0, 1.0, 2)
_KAPPA_B_41 = Axis("kappa_b", 0.0, 2.0, 41)
_KAPPA_B_81 = Axis("kappa_b", 0.0, 2.0, 81)
_THETA_61 = Axis("theta", 0.0, math.pi, 61)
_THETA_81 = Axis("theta", 0.0, math.pi, 81)
_T_COLUMNS = ("t_fwd", "t_bwd", "isolation")
_G2_COLUMNS = ("g2_fwd", "g2_bwd", "ratio")

# scenario name -> the sweeps it writes, in order, as (file basename, axes,
# output columns).  Only names are stored here: run_sweep and emit_sweep are
# looked up on the module at call time, so they can be replaced from outside.
_SCENARIO_SWEEPS = {
    "fig2a": [("fig2a", (_DELTA_101,), _T_COLUMNS)],
    "fig2b": [("fig2b", (_KAPPA_B_0_1, _DELTA_101), _T_COLUMNS)],
    "fig2c": [
        ("fig2c", (_DELTA_61, _KAPPA_B_41), _T_COLUMNS),
        ("fig2c_inset", (_KAPPA_B_81,), _T_COLUMNS),
    ],
    "fig2d": [("fig2d", (_DELTA_101,), _G2_COLUMNS)],
    "fig2e": [("fig2e", (_KAPPA_B_0_1, _DELTA_101), _G2_COLUMNS)],
    "fig2f": [
        ("fig2f", (_DELTA_61, _KAPPA_B_41), _G2_COLUMNS),
        ("fig2f_inset", (_KAPPA_B_81,), _G2_COLUMNS),
    ],
    "fig3": [("fig3ab", (_KAPPA_B_81,), ("g2_fwd", "g2_bwd", "g3_fwd", "g3_bwd", "ratio"))],
    "fig4": [
        ("fig4", (_KAPPA_B_81,),
         ("p1_fwd", "p2_fwd", "p3_fwd", "p1_bwd", "p2_bwd", "p3_bwd")),
    ],
    "fig5a": [("fig5a", (_THETA_61, _KAPPA_B_41), _T_COLUMNS)],
    "fig5b": [("fig5b", (_THETA_61, _KAPPA_B_41), _G2_COLUMNS)],
    "fig5c": [
        ("fig5c", (_THETA_81,),
         ("t_fwd", "t_bwd", "g2_fwd", "g2_bwd", "isolation", "ratio")),
    ],
}
# scenarios on two_cavity_params() with _two_cavity_dims(); the rest use
# baseline_params() at the requested dims
_TWO_CAVITY_SCENARIOS = {"fig2a", "fig2d"}


def _fig3c_table(out, dims, formats):
    # panel (c): photon distributions against their Poisson references at
    # the two highlighted bridge losses, for both drive directions
    columns = ["kappa_b", "drive", "output_mode", "m", "p_m", "poisson_m", "deviation"]
    rows = []
    for kappa_b in (1.0, 1.25):
        params = baseline_params(kappa_b=kappa_b)
        result = run_point(params, dims=dims, directions="both", strict=True)
        for drive, mode_label, dist, n_out in (
            ("left", "c", result.p_m_fwd, result.n_c_fwd),
            ("right", "a", result.p_m_bwd, result.n_a_bwd),
        ):
            ref = poisson_reference(n_out, len(dist) - 1)
            for m, (p, q) in enumerate(zip(dist, ref)):
                rows.append([kappa_b, drive, mode_label, m, p, float(q), p - float(q)])
    extra = {"dims": list(dims), "fixed": params_to_dict(baseline_params())}
    return emit_table(out, "fig3c", columns, rows, extra, formats)


def _smatrix_check_table(out, dims, formats):
    """Closed-form transmissions against the numerically inverted network.

    Port losses deliberately differ from 1 so the two trailing-loss-factor
    variants of the scattering matrix are distinguishable; only the "sqrt"
    variant reproduces the closed forms.
    """
    kappa = 0.8
    base = LinearModel(
        j_ab=SQRT2_OVER_2, j_bc=SQRT2_OVER_2, j_ac=SQRT2_OVER_2,
        theta=-math.pi / 4, kappa_a=kappa, kappa_c=kappa, kappa_b=1.0,
    )
    columns = [
        "delta", "kappa_b",
        "t_fwd_closed", "t_bwd_closed",
        "t_fwd_smatrix", "t_bwd_smatrix",
        "diff_fwd", "diff_bwd",
        "t_fwd_gamma_variant", "diff_fwd_gamma_variant",
    ]
    rows = []
    for kappa_b in (0.5, 1.0, 1.5):
        model = dataclasses.replace(base, kappa_b=kappa_b)
        for delta in np.linspace(-3.0, 3.0, 121):
            delta = float(delta)
            t_fwd, t_bwd = transmission_closed_form(model, delta)
            s = scattering_matrix(model, delta)
            s_gamma = scattering_matrix(model, delta, variant="gamma")
            rows.append([
                delta, kappa_b,
                t_fwd, t_bwd,
                s.forward, s.backward,
                abs(s.forward - t_fwd), abs(s.backward - t_bwd),
                s_gamma.forward, abs(s_gamma.forward - t_fwd),
            ])
    extra = {"model": dataclasses.asdict(base)}
    return emit_table(out, "smatrix_check", columns, rows, extra, formats)


def _conditions_check_table(out, dims, formats):
    """Verify the complete-transmission working points through the S-matrix."""
    columns = [
        "theta", "direction", "delta", "j_ac", "effective_theta", "phase_folded",
        "t_fwd", "t_bwd", "err_fwd", "err_bwd",
        "amp_residual", "phase_residual",
    ]
    rows = []
    thetas = [t for t in np.linspace(-math.pi + 0.1, math.pi - 0.1, 57) if abs(math.sin(t)) > 0.05]
    for direction in (TransmissionDirection.FORWARD, TransmissionDirection.BACKWARD):
        targets = (1.0, 0.0) if direction is TransmissionDirection.FORWARD else (0.0, 1.0)
        for theta in thetas:
            cond = optimal_condition(direction, float(theta), kappa=1.0)
            s = scattering_matrix(cond.as_linear_model(), cond.delta)
            params = SystemParams(
                j_ab=cond.j, j_bc=cond.j, j_ac=cond.j_ac, theta=cond.theta,
                kappa_a=1.0, kappa_c=1.0, kappa_b=cond.kappa_b,
            )
            amp, phase = phase_matching_residual(params, cond.delta)
            rows.append([
                float(theta), direction.value, cond.delta, cond.j_ac,
                cond.theta, str(cond.phase_folded).lower(),
                s.forward, s.backward,
                abs(s.forward - targets[0]), abs(s.backward - targets[1]),
                amp, phase,
            ])
    return emit_table(out, "conditions_check", columns, rows, {"kappa": 1.0}, formats)


# tables a scenario writes after its sweeps, built by (out_dir, dims, formats)
_SCENARIO_TABLES = {
    "fig3": _fig3c_table,
    "smatrix-check": _smatrix_check_table,
    "conditions-check": _conditions_check_table,
}
SCENARIO_NAMES = (*_SCENARIO_SWEEPS, "smatrix-check", "conditions-check")


def scenario(
    name: str,
    out_dir: Path | str = ".",
    dims: tuple[int, ...] | int | None = None,
    jobs: int = 1,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Emit the data files behind a named figure or consistency check."""
    if name not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    dims = _parse_dims(dims)
    out_dir = Path(out_dir)
    if name in _TWO_CAVITY_SCENARIOS:
        fixed, sweep_dims = two_cavity_params(), _two_cavity_dims(dims)
    else:
        fixed, sweep_dims = baseline_params(), dims
    files = []
    for basename, axes, outputs in _SCENARIO_SWEEPS.get(name, ()):
        spec = SweepSpec(
            axes=axes, fixed=fixed, dims=sweep_dims, outputs=outputs, name=basename
        )
        files += emit_sweep(run_sweep(spec, jobs), out_dir, formats=formats)
    if name in _SCENARIO_TABLES:
        files += _SCENARIO_TABLES[name](out_dir, dims, formats)
    return files


# ---------------------------------------------------------------------------
# config documents


def load_point_config(doc: dict) -> tuple[SystemParams, tuple[int, ...], str, bool]:
    if not isinstance(doc, dict):
        raise ConfigError("point config must be a JSON object")
    unknown = set(doc) - {"params", "dims", "directions", "convergence_check"}
    if unknown:
        raise ConfigError(f"unknown point-config keys: {sorted(unknown)}")
    if "params" not in doc:
        raise ConfigError("point config needs a 'params' object")
    params = params_from_dict(doc["params"])
    dims = _parse_dims(doc.get("dims"))
    directions = doc.get("directions", "both")
    _drive_sides(directions)
    convergence = bool(doc.get("convergence_check", False))
    return params, dims, directions, convergence


def load_sweep_spec(doc: dict) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("sweep spec must be a JSON object")
    unknown = set(doc) - {
        "axes", "fixed", "directions", "dims", "outputs",
        "convergence_check", "point_cap", "name",
    }
    if unknown:
        raise ConfigError(f"unknown sweep-spec keys: {sorted(unknown)}")
    if "axes" not in doc or "fixed" not in doc:
        raise ConfigError("sweep spec needs 'axes' and 'fixed'")
    axes = []
    for entry in doc["axes"]:
        missing = {"name", "start", "stop", "count"} - set(entry)
        if missing:
            raise ConfigError(f"axis entry missing keys: {sorted(missing)}")
        axes.append(
            Axis(
                name=str(entry["name"]),
                start=float(entry["start"]),
                stop=float(entry["stop"]),
                count=int(entry["count"]),
            )
        )
    outputs = doc.get("outputs")
    return SweepSpec(
        axes=tuple(axes),
        fixed=params_from_dict(doc["fixed"]),
        directions=doc.get("directions", "both"),
        dims=_parse_dims(doc.get("dims")),
        outputs=None if outputs is None else tuple(outputs),
        convergence_check=bool(doc.get("convergence_check", False)),
        point_cap=int(doc.get("point_cap", DEFAULT_POINT_CAP)),
        name=str(doc.get("name", "sweep")),
    )


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# command line


def _point_result_doc(result: PointResult) -> dict:
    doc = dataclasses.asdict(result)
    for key, value in doc.items():
        if isinstance(value, tuple):
            doc[key] = [float(v) for v in value]
    return doc


def _cmd_point(args) -> int:
    doc = _load_json(args.config)
    params, dims, directions, convergence = load_point_config(doc)
    if args.dims is not None:
        dims = _parse_dims(args.dims)
    result = run_point(
        params, dims=dims, directions=directions, convergence_check=convergence
    )
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            fh.write(json.dumps(_point_result_doc(result), indent=1) + "\n")
        else:
            columns = _value_columns(dims, convergence) + _DIAG_COLUMNS
            write_csv(fh, columns, [_point_row((), result, columns)])
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _formats(args) -> tuple[str, ...]:
    return ("csv", "json") if args.format == "both" else (args.format,)


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(_load_json(args.spec))
    if args.dims is not None:
        spec = dataclasses.replace(spec, dims=_parse_dims(args.dims))
    result = run_sweep(spec, jobs=args.jobs)
    files = emit_sweep(result, Path(args.out), formats=_formats(args))
    for path in files:
        print(f"wrote {path}")
    if result.n_errors:
        print(f"note: {result.n_errors} grid point(s) carry error flags")
    return 0


def _cmd_scenario(args) -> int:
    files = scenario(
        args.name, out_dir=args.out, dims=args.dims, jobs=args.jobs,
        formats=_formats(args),
    )
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    doc = _load_json(args.config)
    if "axes" in doc:
        spec = load_sweep_spec(doc)
        print(
            f"valid sweep spec '{spec.name}': "
            f"{' x '.join(f'{ax.name}[{ax.count}]' for ax in spec.axes)} "
            f"= {spec.n_points} points, dims {spec.dims}, directions {spec.directions}"
        )
    else:
        params, dims, directions, convergence = load_point_config(doc)
        print(
            f"valid point config: dims {dims}, directions {directions}, "
            f"convergence_check {convergence}"
        )
        print(json.dumps(params_to_dict(params), indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triring",
        description=(
            "Steady-state simulator for a three-cavity ring with two Kerr "
            "cavities bridged by a lossy linear cavity; computes "
            "transmissions, photon correlations, and nonreciprocity "
            "measures for both drive directions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate a single parameter point")
    p_point.add_argument("config", help="JSON point config")
    p_point.add_argument("--dims", type=int, help="per-mode Fock truncation override")
    p_point.add_argument("--format", choices=("csv", "json"), default="json")
    p_point.add_argument("--out", help="write to file instead of stdout")
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="run a 1D/2D parameter sweep")
    p_sweep.add_argument("spec", help="JSON sweep spec")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: available parallelism)")
    p_sweep.add_argument("--dims", type=int, help="per-mode Fock truncation override")
    p_sweep.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scen = sub.add_parser("scenario", help="emit data for a named scenario")
    p_scen.add_argument("name", choices=SCENARIO_NAMES)
    p_scen.add_argument("--out", default=".", help="output directory")
    p_scen.add_argument("--dims", type=int, help="per-mode Fock truncation override")
    p_scen.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: available parallelism)")
    p_scen.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_scen.set_defaults(func=_cmd_scenario)

    p_val = sub.add_parser("validate", help="validate a config document")
    p_val.add_argument("config", help="JSON point config or sweep spec")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TriringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
