"""Configuration-driven runner: points, sweeps, and named scenarios.

Subcommands:

    point <config.json>     evaluate one parameter point (both directions)
    sweep <spec.json>       evaluate a 1D/2D grid, emit CSV/JSON + manifest
    scenario <name> ...     emit the data behind named figures or checks
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
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from collections.abc import Iterable
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
from .fock import CompositeSpace, _finite_float, _flag, _whole_number
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
from .model import MODE_A, MODE_B, MODE_C, _check_levels, phase_matching_residual

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


_PARAM_KEYS = {f.name for f in dataclasses.fields(SystemParams)}
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
    and ``kappa`` (both port losses).  A field given both directly and
    through its shorthand is a :class:`ConfigError` naming both keys.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"params must be an object, got {type(doc).__name__}")
    fields: dict = {}
    given_by: dict = {}
    for key, value in doc.items():
        if key in _SHORTHAND:
            targets = _SHORTHAND[key]
        elif key in _PARAM_KEYS:
            targets = (key,)
        else:
            allowed = sorted(_PARAM_KEYS | set(_SHORTHAND))
            raise ConfigError(f"unknown parameter {key!r}; allowed: {allowed}")
        for target in targets:
            if target in given_by:
                raise ConfigError(
                    f"parameters {given_by[target]!r} and {key!r} both set {target!r}"
                )
            given_by[target] = key
        if key != "drive":  # SystemParams checks the drive
            value = _finite_float(value, f"parameter {key!r}", ConfigError)
        fields.update(dict.fromkeys(targets, value))
    try:
        return SystemParams(**fields)
    except TriringError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def params_to_dict(params: SystemParams) -> dict:
    doc = dataclasses.asdict(params)
    doc["drive"] = params.drive.value
    return doc


def _parse_dims(value) -> tuple[int, ...]:
    if value is None:
        return DEFAULT_DIMS
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()  # a 0-d array is the scalar it holds
    # any iterable but a string gives one entry per mode; a scalar, all three
    if not isinstance(value, Iterable) or isinstance(value, (str, bytes)):
        return (_whole_number(value, "dims", ConfigError, minimum=1),) * 3
    entries = tuple(value)
    if len(entries) != 3:
        raise ConfigError(f"dims must have 3 entries (a, b, c), got {entries}")
    return tuple(
        _whole_number(d, f"dims[{k}]", ConfigError, minimum=1) for k, d in enumerate(entries)
    )


# ---------------------------------------------------------------------------
# single-point evaluation


def apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return a copy of ``params`` with one sweep axis applied."""
    if name not in AXIS_NAMES:
        raise ConfigError(f"unknown sweep axis {name!r}; allowed: {list(AXIS_NAMES)}")
    targets = _SHORTHAND.get(name, (name,))
    return dataclasses.replace(params, **dict.fromkeys(targets, value))


# the drive sides each ``directions`` value solves, the suffix of each
# side's PointResult fields, and each mode's letter in field names
_DIRECTIONS = {"both": tuple(DriveSide), **{s.value: (s,) for s in DriveSide}}
_SUFFIX = {DriveSide.LEFT: "fwd", DriveSide.RIGHT: "bwd"}
_MODE_NAMES = {MODE_A: "a", MODE_B: "b", MODE_C: "c"}


def _point_args(params, dims, directions, convergence_check) -> tuple[tuple[int, ...], str, bool]:
    """A point's inputs checked and normalized, a coupled or driven one-level mode
    refused; the one rule that ``run_point``, ``SweepSpec`` and the config readers apply."""
    dims = _parse_dims(dims)
    # an unhashable value from JSON is not a key either
    if not isinstance(directions, str) or directions not in _DIRECTIONS:
        raise ConfigError(f"directions must be 'both', 'left' or 'right', got {directions!r}")
    convergence_check = _flag(convergence_check, "convergence_check", ConfigError)
    _check_levels(params, dims, _DIRECTIONS[directions], ConfigError)
    return dims, directions, convergence_check


def _solve_direction(params: SystemParams, dims: tuple[int, ...]) -> dict:
    """Steady state and observables for one drive side, keyed by the
    :class:`PointResult` field names without their ``_fwd``/``_bwd`` suffix."""
    space = CompositeSpace(dims)
    h = build_hamiltonian(params, space)
    c_ops = collapse_operators(params, space)
    rho = steady_state(build_liouvillian(h, c_ops))
    out_mode = params.drive.output_mode
    values = {
        "residual": rho.diagnostics.residual,
        **{f"n_{name}": mean_occupation(rho, mode) for mode, name in _MODE_NAMES.items()},
        "p_m": tuple(float(p) for p in photon_distribution(rho, out_mode)[:P_M_MAX]),
        **dict.fromkeys(("t", "g2", "g3", "error")),
    }
    try:
        values["t"] = transmission(rho, params)
        # with n or fewer levels a^n = 0 and correlation_g_n refuses g<n>;
        # the truncation rule leaves it None, not flagged
        for n in (2, 3):
            if dims[out_mode] > n:
                values[f"g{n}"] = correlation_g_n(rho, out_mode, n)
    except InsufficientPopulationError as exc:
        values["error"] = str(exc)
    return values


def run_point(
    params: SystemParams,
    dims: tuple[int, ...] | int = DEFAULT_DIMS,
    directions: str = "both",
    convergence_check: bool = False,
    strict: bool = True,
) -> PointResult:
    """Evaluate one parameter point, solving each drive side independently.

    ``dims`` (whole numbers >= 1, or one for all three modes),
    ``directions``, ``convergence_check`` and ``strict`` (both bools) follow
    the point-config rules: a bad one raises :class:`ConfigError` before
    any solve.  With ``convergence_check`` the point is re-solved with one
    extra Fock level per mode and the relative drifts of T, g2 and g3 are
    recorded.  With ``strict`` any failure raises
    :class:`PointEvaluationError` naming the failing direction; otherwise
    failures become error flags on the result.
    """
    dims, directions, convergence_check = _point_args(params, dims, directions, convergence_check)
    _flag(strict, "strict", ConfigError)
    fields: dict = {}
    resolve_notes = []
    for side in _DIRECTIONS[directions]:
        suffix = _SUFFIX[side]
        side_params = dataclasses.replace(params, drive=side)
        try:
            values = _solve_direction(side_params, dims)
        except TriringError as exc:
            if strict:
                label = "forward (drive left)" if side is DriveSide.LEFT else "backward (drive right)"
                raise PointEvaluationError(
                    f"{label} evaluation failed: {exc}", direction=side.value
                ) from exc
            fields[f"error_{suffix}"] = f"{type(exc).__name__}: {exc}"
            continue
        fields.update({f"{stem}_{suffix}": value for stem, value in values.items()})
        if not convergence_check:
            continue
        finer = tuple(d + 1 if d > 1 else d for d in dims)
        try:
            refined = _solve_direction(side_params, finer)
        except TriringError as exc:
            resolve_notes.append(f"convergence re-solve failed ({suffix}): {exc}")
            continue
        # a drift only where both solves define the value (g2 and g3 are
        # None where the output mode is nearly empty or has too few levels)
        for stem in ("t", "g2", "g3"):
            coarse, fine = values[stem], refined[stem]
            if coarse is not None and fine is not None:
                fields[f"drift_{stem}_{suffix}"] = abs(coarse - fine) / max(abs(fine), 1e-300)

    notes = []
    if fields.get("t_fwd") is not None and fields.get("t_bwd") is not None:
        fields["isolation"] = isolation(fields["t_fwd"], fields["t_bwd"])
    if fields.get("g2_fwd") is not None and fields.get("g2_bwd") is not None:
        try:
            fields["ratio"] = nonreciprocal_ratio(fields["g2_fwd"], fields["g2_bwd"])
        except UndefinedRatioError as exc:
            notes.append(str(exc))
    return PointResult(notes="; ".join(notes + resolve_notes) or None, **fields)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class Axis:
    """``count`` evenly spaced values from ``start`` to ``stop`` of one
    parameter; ``count`` is a whole number >= 2, else :class:`ConfigError`."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(
                f"unknown sweep axis {self.name!r}; allowed: {list(AXIS_NAMES)}"
            )
        for end in ("start", "stop"):
            value = _finite_float(getattr(self, end), f"axis {self.name!r} {end}", ConfigError)
            object.__setattr__(self, end, value)
        count = _whole_number(self.count, f"axis {self.name!r} count", ConfigError, minimum=2)
        object.__setattr__(self, "count", count)
        if self.start == self.stop:
            raise ConfigError(f"axis {self.name!r} has start == stop == {self.start}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A 1D or 2D grid over immutable baseline parameters.

    ``dims`` follows :func:`run_point`'s rule and ``point_cap`` is a whole
    number >= 1, else :class:`ConfigError`; a grid above the cap is a
    :class:`SweepCapError`.
    """

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
        # the grid is linear and each parameter bound, coupling and drive
        # involves one field, so the two ends of an axis, one of them nonzero,
        # show every bound and acting term that any grid point meets
        for ax in self.axes:
            for value in (ax.start, ax.stop):
                try:
                    end = apply_axis(self.fixed, ax.name, value)
                except TriringError as exc:
                    raise ConfigError(
                        f"axis {ax.name!r} leaves the parameter range: {exc}"
                    ) from exc
                checked = _point_args(end, self.dims, self.directions, self.convergence_check)
        for field, value in zip(("dims", "directions", "convergence_check"), checked):
            object.__setattr__(self, field, value)
        point_cap = _whole_number(self.point_cap, "point_cap", ConfigError, minimum=1)
        object.__setattr__(self, "point_cap", point_cap)
        # the name is the basename of the files a sweep writes into its
        # output directory, so it may not lead out of it
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        if self.name in ("", ".", "..") or Path(self.name).name != self.name:
            raise ConfigError(
                f"name must be a plain file name, without a path separator "
                f"and not '.' or '..', got {self.name!r}"
            )
        total = self.n_points
        if total > self.point_cap:
            raise SweepCapError(
                f"sweep has {total} grid points, exceeding the cap of {self.point_cap}; "
                "raise point_cap explicitly if this is intended"
            )
        if self.outputs is not None:
            # a bare string would pass as its own letters
            if not (isinstance(self.outputs, (tuple, list))
                    and all(isinstance(c, str) for c in self.outputs)):
                raise ConfigError(
                    f"outputs must be a list of column names, got {self.outputs!r}"
                )
            # no column at all would write only the grid and its notes
            if not self.outputs:
                raise ConfigError(
                    "outputs must name at least one column; leave it out to get every column"
                )
            object.__setattr__(self, "outputs", tuple(self.outputs))
            allowed = set(_value_columns(self.dims, self.convergence_check))
            unknown = [c for c in self.outputs if c not in allowed]
            untruncated = _value_columns((P_M_MAX,) * 3, self.convergence_check)
            truncated = [c for c in unknown if c in untruncated]
            if truncated:
                raise ConfigError(
                    f"output columns {truncated} do not exist at dims {self.dims}: "
                    "p<m>_fwd and g<m>_fwd need dims[c] > m, p<m>_bwd and "
                    "g<m>_bwd need dims[a] > m"
                )
            if unknown:
                raise ConfigError(
                    f"unknown output columns {unknown}; allowed: {sorted(allowed)}"
                )
            # a _fwd column needs the left side, a _bwd column the right
            # side, and isolation and ratio need both
            sides = _DIRECTIONS[self.directions]
            missing = tuple(f"_{_SUFFIX[s]}" for s in DriveSide if s not in sides)
            unfilled = [c for c in self.outputs
                        if missing and (c in ("isolation", "ratio") or c.endswith(missing))]
            if unfilled:
                raise ConfigError(
                    f"output columns {unfilled} need a drive side that directions "
                    f"{self.directions!r} does not solve: a _fwd column needs the "
                    "left side, a _bwd column the right side, isolation and ratio both"
                )

    @property
    def n_points(self) -> int:
        return math.prod(ax.count for ax in self.axes)

    def grid(self) -> list[tuple[float, ...]]:
        """Grid points in row-major order (first axis outermost)."""
        grids = itertools.product(*(ax.values() for ax in self.axes))
        return [tuple(float(v) for v in point) for point in grids]


def _value_columns(dims: tuple[int, ...], convergence_check: bool) -> list[str]:
    # the truncation rule: p<m> needs more than m levels on a side's output
    # mode and g<n> more than n
    levels = {_SUFFIX[side]: dims[side.output_mode] for side in DriveSide}
    g_cols = [f"g{n}_{side}" for n in (2, 3) for side in levels if levels[side] > n]
    cols = [
        "t_fwd", "t_bwd", "isolation", *g_cols, "ratio",
        "n_a_fwd", "n_b_fwd", "n_c_fwd", "n_a_bwd", "n_b_bwd", "n_c_bwd",
        *(f"p{m}_{side}" for side in levels for m in range(min(P_M_MAX, levels[side]))),
    ]
    if convergence_check:
        cols += ["drift_t_fwd", "drift_t_bwd", *(f"drift_{c}" for c in g_cols)]
    return cols


_DIAG_COLUMNS = ["residual_fwd", "residual_bwd", "error_fwd", "error_bwd", "notes"]


def _point_row(axes_values, result: PointResult, columns) -> list:
    # one flat record: the result's fields plus p<m>_fwd/p<m>_bwd; a side
    # that failed or was not requested has no p<m> entries and gives None
    record = dict(vars(result))
    for suffix in _SUFFIX.values():
        dist = getattr(result, f"p_m_{suffix}") or ()
        record.update((f"p{m}_{suffix}", p) for m, p in enumerate(dist))
    return [*axes_values, *(record.get(c) for c in columns[len(axes_values):])]


def _point_key(spec: SweepSpec, values: tuple[float, ...]) -> tuple:
    """``(params, dims, directions, convergence_check)`` of one grid point.

    These are the arguments the sweep passes to ``run_point`` and, since
    they determine its result, the key of a point memo.
    """
    params = spec.fixed
    for ax, value in zip(spec.axes, values):
        params = apply_axis(params, ax.name, value)
    return params, spec.dims, spec.directions, spec.convergence_check


def _sweep_worker(key: tuple) -> PointResult:
    return run_point(*key, strict=False)


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
        idx = [self.columns.index(c) for c in ("residual_fwd", "residual_bwd")]
        residuals = [row[i] for row in self.rows for i in idx if row[i] is not None]
        return max(residuals) if residuals else None


def _worker_count(jobs: int | None) -> int:
    """``jobs`` itself, or one worker per CPU for None."""
    if jobs is None:
        return os.cpu_count() or 1
    return _whole_number(jobs, "jobs", ConfigError, minimum=1)


def run_sweep(
    spec: SweepSpec, jobs: int | None = 1, memo: dict | None = None
) -> SweepResult:
    """Evaluate every grid point, serially or with a process pool.

    Results are ordered by grid index regardless of worker scheduling, so
    parallel and serial runs produce identical tables.  ``jobs`` is the
    number of worker processes, a whole number >= 1, or None for one per
    CPU; anything else is a :class:`ConfigError`.

    ``memo`` is an optional caller-owned dict from
    ``(params, dims, directions, convergence_check)`` to ``PointResult``.
    Only the grid points it does not hold are evaluated, each once (with
    ``jobs > 1`` only those go to the pool), and their results are added
    to it.  The caller keeps a memo only as long as ``run_point`` stays the
    same function.  Without one, each call starts from an empty memo, so
    every distinct grid point is evaluated.
    """
    start = time.monotonic()
    grid = spec.grid()
    keys = [_point_key(spec, values) for values in grid]
    jobs = _worker_count(jobs)
    memo = {} if memo is None else memo
    missing = [key for key in dict.fromkeys(keys) if key not in memo]
    if jobs > 1 and len(missing) > 1:
        # loaded once here, so forked workers inherit it instead of each
        # importing it on its first point; the pool machinery is loaded
        # only by a sweep that uses it
        import scipy.sparse.linalg  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            solved = pool.map(_sweep_worker, missing, chunksize=8)
            memo.update(zip(missing, solved))
    else:
        memo.update((key, _sweep_worker(key)) for key in missing)
    results = [memo[key] for key in keys]

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
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(fh: TextIO, columns: list[str], rows: list[list]) -> None:
    """Write a header and rows as CSV with "\\n" line endings to an open text stream."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])


def _check_formats(formats) -> None:
    # a string would pass as its own letters ("csv" in "csv"), and no
    # format at all would write only the manifest
    if not (isinstance(formats, (tuple, list)) and formats
            and all(f in ("csv", "json") for f in formats)):
        raise ConfigError(f"formats must be a non-empty tuple of 'csv' and 'json', got {formats!r}")


def _out_dir(path) -> Path:
    """Create the output directory ``path`` and its parents, if missing; a
    path that cannot be one is a :class:`ConfigError` naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def _emit(
    out_dir: Path,
    basename: str,
    columns: list[str],
    rows: list[list],
    manifest: dict,
    formats: tuple[str, ...],
) -> list[Path]:
    """Write ``<basename>.csv`` / ``.json`` and ``<basename>_manifest.json``.

    Row cells are None, str, int or float, which CSV and JSON take as they
    are.  ``manifest`` gains ``name`` and ``files`` unless it sets them
    itself, and always ``version``.  ``formats`` other than ``"csv"`` and
    ``"json"`` are a :class:`ConfigError`.
    """
    _check_formats(formats)
    out_dir = _out_dir(out_dir)
    written = []
    if "csv" in formats:
        path = out_dir / f"{basename}.csv"
        with open(path, "w", newline="") as fh:
            write_csv(fh, columns, rows)
        written.append(path)
    if "json" in formats:
        path = out_dir / f"{basename}.json"
        with open(path, "w") as fh:
            json.dump({"name": basename, "columns": columns, "rows": rows}, fh, indent=1)
            fh.write("\n")
        written.append(path)
    manifest = {
        "name": basename, "files": [p.name for p in written], **manifest,
        "version": __version__,
    }
    path = out_dir / f"{basename}_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [*written, path]


def emit_sweep(
    result: SweepResult,
    out_dir: Path,
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
        out_dir, result.spec.name, result.columns, result.rows, manifest, formats
    )


def emit_table(
    out_dir: Path,
    basename: str,
    columns: list[str],
    rows: list[list],
    manifest_extra: dict,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Write CSV/JSON mirrors plus a manifest for a table built outside a sweep."""
    manifest = {"kind": "table", **manifest_extra}
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


# the sweep points scenario() has solved with an evaluator, kept across calls
# because scenarios share grids (fig2a/fig2d, fig3/fig4, ...).  It is asked
# for with the module's current run_point, so a different one, such as a fake
# or a timing wrapper, gets a new, empty memo and no evaluator is given
# another's results.  Points at different dims have different keys.
@functools.lru_cache(maxsize=1)
def _point_memo(evaluator) -> dict:
    return {}


def _fig3c_table(specs: list[SweepSpec]) -> tuple:
    """Panel (c): photon distributions against their Poisson references at
    two bridge losses of the fig3ab grid, both drive directions.  A point
    the memo lacks or flags is solved again with ``strict``, so it raises."""
    (fig3ab,) = specs
    columns = ["kappa_b", "drive", "output_mode", "m", "p_m", "poisson_m", "deviation"]
    rows = []
    for kappa_b in (1.0, 1.25):
        key = _point_key(fig3ab, (kappa_b,))
        result = _point_memo(run_point).get(key)
        if result is None or result.error_fwd or result.error_bwd:
            result = run_point(*key, strict=True)
        for side in DriveSide:
            suffix, mode = _SUFFIX[side], _MODE_NAMES[side.output_mode]
            dist = getattr(result, f"p_m_{suffix}")
            ref = poisson_reference(getattr(result, f"n_{mode}_{suffix}"), len(dist) - 1)
            for m, (p, q) in enumerate(zip(dist, ref)):
                rows.append([kappa_b, side.value, mode, m, p, float(q), p - float(q)])
    extra = {"dims": list(fig3ab.dims), "fixed": params_to_dict(fig3ab.fixed)}
    return "fig3c", columns, rows, extra


def _smatrix_check_table(specs: list[SweepSpec]) -> tuple:
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
    return "smatrix_check", columns, rows, {"model": dataclasses.asdict(base)}


def _conditions_check_table(specs: list[SweepSpec]) -> tuple:
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
    return "conditions_check", columns, rows, {"kappa": 1.0}


# scenario name -> (fixed parameters, the sweeps it writes in order as (file
# basename, axes, output columns), and the builder of the table it writes
# after them or None).  A builder takes the scenario's sweep specs (none for
# the two checks) and returns (basename, columns, rows, manifest extra).
# Only names are stored here: run_point, run_sweep, emit_sweep and emit_table
# are looked up on the module at call time, so they can be replaced from
# outside.
_SCENARIOS = {
    "fig2a": (two_cavity_params(), [("fig2a", (_DELTA_101,), _T_COLUMNS)], None),
    "fig2b": (baseline_params(), [("fig2b", (_KAPPA_B_0_1, _DELTA_101), _T_COLUMNS)], None),
    "fig2c": (baseline_params(), [
        ("fig2c", (_DELTA_61, _KAPPA_B_41), _T_COLUMNS),
        ("fig2c_inset", (_KAPPA_B_81,), _T_COLUMNS),
    ], None),
    "fig2d": (two_cavity_params(), [("fig2d", (_DELTA_101,), _G2_COLUMNS)], None),
    "fig2e": (baseline_params(), [("fig2e", (_KAPPA_B_0_1, _DELTA_101), _G2_COLUMNS)], None),
    "fig2f": (baseline_params(), [
        ("fig2f", (_DELTA_61, _KAPPA_B_41), _G2_COLUMNS),
        ("fig2f_inset", (_KAPPA_B_81,), _G2_COLUMNS),
    ], None),
    "fig3": (baseline_params(), [
        ("fig3ab", (_KAPPA_B_81,), ("g2_fwd", "g2_bwd", "g3_fwd", "g3_bwd", "ratio")),
    ], _fig3c_table),
    "fig4": (baseline_params(), [
        ("fig4", (_KAPPA_B_81,), ("p1_fwd", "p2_fwd", "p3_fwd", "p1_bwd", "p2_bwd", "p3_bwd")),
    ], None),
    "fig5a": (baseline_params(), [("fig5a", (_THETA_61, _KAPPA_B_41), _T_COLUMNS)], None),
    "fig5b": (baseline_params(), [("fig5b", (_THETA_61, _KAPPA_B_41), _G2_COLUMNS)], None),
    "fig5c": (baseline_params(), [
        ("fig5c", (_THETA_81,), ("t_fwd", "t_bwd", "g2_fwd", "g2_bwd", "isolation", "ratio")),
    ], None),
    "smatrix-check": (None, [], _smatrix_check_table),
    "conditions-check": (None, [], _conditions_check_table),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def _scenario_specs(name: str, dims) -> list[SweepSpec]:
    """The sweeps of a named scenario, built (and so checked) but not run.

    Where the fixed parameters leave the bridge decoupled (``j_ab = j_bc =
    0``; no sweep axis sets either coupling) it stays in vacuum exactly, so
    it is cut to one level: the sweeps run at ``(d_a, 1, d_c)``.
    """
    if name not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    dims = _parse_dims(dims)
    fixed, sweeps, _ = _SCENARIOS[name]
    if sweeps and fixed.j_ab == fixed.j_bc == 0:
        dims = (dims[MODE_A], 1, dims[MODE_C])
    return [
        SweepSpec(axes=axes, fixed=fixed, dims=dims, outputs=outputs, name=basename)
        for basename, axes, outputs in sweeps
    ]


def scenario(
    name: str,
    out_dir: Path | str = ".",
    dims: tuple[int, ...] | int | None = None,
    jobs: int = 1,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Emit the data files behind a named figure or consistency check.

    The scenario's entry in ``_SCENARIOS`` gives its sweeps, each written
    by ``emit_sweep``, and then its table, if any, written by
    ``emit_table``.  Sweep points already solved by an earlier call in this
    process with the same ``run_point`` are reused rather than solved
    again; the files written are the same either way.  ``dims`` follows
    :func:`run_point`'s rule and ``jobs`` :func:`run_sweep`'s.
    """
    specs = _scenario_specs(name, dims)
    # a bad count, format or output directory fails before any solve
    _worker_count(jobs)
    _check_formats(formats)
    out_dir = _out_dir(out_dir)
    files = []
    for spec in specs:
        result = run_sweep(spec, jobs, memo=_point_memo(run_point))
        files += emit_sweep(result, out_dir, formats=formats)
    table = _SCENARIOS[name][2]
    if table is not None:
        files += emit_table(out_dir, *table(specs), formats)
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
    dims, directions, convergence_check = _point_args(
        params, doc.get("dims"), doc.get("directions", "both"), doc.get("convergence_check", False)
    )
    return params, dims, directions, convergence_check


def load_sweep_spec(doc: dict) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("sweep spec must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(SweepSpec)}
    if unknown:
        raise ConfigError(f"unknown sweep-spec keys: {sorted(unknown)}")
    if "axes" not in doc or "fixed" not in doc:
        raise ConfigError("sweep spec needs 'axes' and 'fixed'")
    if not isinstance(doc["axes"], list):
        raise ConfigError(f"axes must be a list of axis objects, got {doc['axes']!r}")
    axes = []
    keys = {f.name for f in dataclasses.fields(Axis)}
    for entry in doc["axes"]:
        if not isinstance(entry, dict):
            raise ConfigError(f"axis entries must be objects, got {entry!r}")
        if set(entry) != keys:
            raise ConfigError(f"axis entry keys must be {sorted(keys)}, got {sorted(entry)}")
        axes.append(Axis(**entry))
    # only the keys the document holds, so SweepSpec's defaults fill the rest
    return SweepSpec(**{**doc, "axes": tuple(axes), "fixed": params_from_dict(doc["fixed"])})


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


def _cmd_point(args) -> int:
    doc = _load_json(args.config)
    if args.dims is not None and isinstance(doc, dict):
        doc["dims"] = args.dims
    params, dims, directions, convergence = load_point_config(doc)
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ConfigError(f"cannot write {args.out}: not a file in an existing directory")
    result = run_point(
        params, dims=dims, directions=directions, convergence_check=convergence
    )
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            fh.write(json.dumps(dataclasses.asdict(result), indent=1) + "\n")
        else:
            columns = _value_columns(dims, convergence) + _DIAG_COLUMNS
            write_csv(fh, columns, [_point_row((), result, columns)])
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _formats(args) -> tuple[str, ...]:
    return ("csv", "json") if args.format == "both" else (args.format,)


def _cmd_sweep(args) -> int:
    doc = _load_json(args.spec)
    if args.dims is not None and isinstance(doc, dict):
        doc["dims"] = args.dims
    spec = load_sweep_spec(doc)
    # a bad count creates no directory; a bad directory fails before any solve
    _worker_count(args.jobs)
    out_dir = _out_dir(args.out)
    result = run_sweep(spec, jobs=args.jobs)
    files = emit_sweep(result, out_dir, formats=_formats(args))
    for path in files:
        print(f"wrote {path}")
    if result.n_errors:
        print(f"note: {result.n_errors} grid point(s) carry error flags")
    return 0


def _cmd_scenario(args) -> int:
    # every name is checked before the first one writes, so a config error
    # leaves no files; one process for all names, so scenario() solves
    # their shared grids once
    for name in args.names:
        _scenario_specs(name, args.dims)
    for name in args.names:
        files = scenario(
            name, out_dir=args.out, dims=args.dims, jobs=args.jobs,
            formats=_formats(args),
        )
        for path in files:
            print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    doc = _load_json(args.config)
    if isinstance(doc, dict) and "axes" in doc:
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

    # the options sweep and scenario share; point's --format and --out differ
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default: 1)")
    grid.add_argument("--dims", type=int, help="per-mode Fock truncation override")
    grid.add_argument("--format", choices=("csv", "json", "both"), default="both")
    grid.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", parents=[grid], help="run a 1D/2D parameter sweep")
    p_sweep.add_argument("spec", help="JSON sweep spec")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scen = sub.add_parser("scenario", parents=[grid], help="emit data for named scenarios")
    p_scen.add_argument("names", nargs="+", choices=SCENARIO_NAMES, metavar="name",
                        help=f"one or more of: {', '.join(SCENARIO_NAMES)}")
    p_scen.set_defaults(func=_cmd_scenario)

    p_val = sub.add_parser("validate", help="validate a config document")
    p_val.add_argument("config", help="JSON point config or sweep spec")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a warning names the config file the command read, once per message,
    # not the frame that raised it (under `python -m` that is runpy's); the
    # filters still apply, so a run under -W error fails as before
    with warnings.catch_warnings(record=True) as caught:
        try:
            status, error = args.func(args), None
        except ConfigError as exc:
            status, error = 2, f"config error: {exc}"
        except TriringError as exc:
            status, error = 1, f"error: {exc}"
    source = "".join(f"{getattr(args, a)}: " for a in ("config", "spec") if hasattr(args, a))
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {source}{message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
