import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import triring.cli as cli
from triring import (
    MODE_A,
    MODE_B,
    MODE_C,
    CompositeSpace,
    DriveSide,
    PointEvaluationError,
    PointResult,
    SystemParams,
    build_hamiltonian,
    build_liouvillian,
    collapse_operators,
    correlation_g_n,
    isolation,
    mean_occupation,
    nonreciprocal_ratio,
    photon_distribution,
    steady_state,
    transmission,
)
from triring.errors import (
    ConfigError, InvalidRateError, NoConvergenceError, SweepCapError, UndefinedRatioError,
)
from triring.cli import (
    Axis,
    SweepSpec,
    apply_axis,
    baseline_params,
    emit_sweep,
    load_point_config,
    load_sweep_spec,
    main,
    params_from_dict,
    params_to_dict,
    run_point,
    run_sweep,
    scenario,
    two_cavity_params,
    _format_cell,
)


class TestParamsParsing:
    def test_shorthands(self):
        params = params_from_dict(
            {"delta": 0.5, "u": 5.0, "j": 0.7, "kappa": 1.2, "kappa_b": 0.9,
             "theta": -0.78, "omega": 0.1, "drive": "right"}
        )
        assert params.delta_a == params.delta_c == params.delta_b == 0.5
        assert params.u_a == params.u_c == 5.0
        assert params.j_ab == params.j_bc == params.j_ac == 0.7
        assert params.kappa_a == params.kappa_c == 1.2
        assert params.kappa_b == 0.9
        assert params.drive is DriveSide.RIGHT

    def test_unknown_key(self):
        # the keys are SystemParams' fields plus the shorthands
        allowed = sorted([f.name for f in dataclasses.fields(SystemParams)] + ["delta", "u", "j", "kappa"])
        with pytest.raises(ConfigError) as exc:
            params_from_dict({"delta_q": 1.0})
        assert str(exc.value) == f"unknown parameter 'delta_q'; allowed: {allowed}"

    def test_bad_drive(self):
        # the rule SystemParams applies: a DriveSide or its exact value
        for drive in ("up", "LEFT", None, ["left"]):
            with pytest.raises(InvalidRateError) as direct:
                SystemParams(drive=drive)
            with pytest.raises(ConfigError) as parsed:
                params_from_dict({"drive": drive})
            assert str(parsed.value) == f"invalid parameters: {direct.value}"


    @pytest.mark.parametrize("doc, first, second, field", [
        ({"delta": 0.5, "delta_a": 1.0}, "delta", "delta_a", "delta_a"),
        ({"delta_a": 1.0, "delta": 0.5}, "delta_a", "delta", "delta_a"),
        ({"kappa_c": 1.0, "u": 5.0, "kappa": 2.0}, "kappa_c", "kappa", "kappa_c"),
        ({"j": 0.7, "omega": 0.1, "j_ac": 0.5}, "j", "j_ac", "j_ac"),
    ])
    def test_field_given_twice_refused(self, doc, first, second, field):
        # either order: the later key must not silently win
        with pytest.raises(ConfigError) as exc:
            params_from_dict(doc)
        assert str(exc.value) == f"parameters {first!r} and {second!r} both set {field!r}"

    def test_invalid_physics_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="invalid parameters"):
            params_from_dict({"kappa_a": 0.0})

    def test_round_trip(self):
        params = baseline_params()
        assert params_from_dict(params_to_dict(params)) == params


class TestApplyAxis:
    def test_delta_sets_all_detunings(self):
        params = apply_axis(baseline_params(), "delta", -1.5)
        assert params.delta_a == params.delta_c == params.delta_b == -1.5

    def test_u_sets_both_kerr_terms(self):
        params = apply_axis(baseline_params(), "u", 2.0)
        assert params.u_a == params.u_c == 2.0

    def test_scalar_axes(self):
        params = baseline_params()
        assert apply_axis(params, "kappa_b", 1.7).kappa_b == 1.7
        assert apply_axis(params, "theta", 0.3).theta == 0.3
        assert apply_axis(params, "omega", 0.05).omega == 0.05
        assert apply_axis(params, "j_ac", 0.9).j_ac == 0.9

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            apply_axis(baseline_params(), "kappa_a", 1.0)


class TestRunPoint:
    def test_zero_drive_surfaces_clear_error(self):
        params = baseline_params(omega=0.0)
        with pytest.raises(PointEvaluationError, match="undefined at zero drive"):
            run_point(params, dims=(3, 3, 3))

    def test_error_flags_in_lenient_mode(self):
        result = run_point(baseline_params(omega=0.0), dims=(3, 3, 3), strict=False)
        assert result.error_fwd and result.error_bwd
        assert result.t_fwd is None and result.t_bwd is None

    def test_insufficient_population_flagged_not_fatal(self):
        # nothing couples into mode c: its occupation is round-off, so T and
        # the correlations are flagged, and the point still has a record
        params = SystemParams(omega=0.1, kappa_a=1.0, kappa_c=1.0)
        result = run_point(params, dims=(3, 1, 3), strict=False)
        assert result.t_fwd is None and result.g2_fwd is None
        assert "occupation" in result.error_fwd and "T would read" in result.error_fwd
        assert result.n_c_fwd < 1e-12

    def test_non_integral_dims_rejected(self):
        # refused before any solve, also without strict
        message = r"^dims\[0\] must be a whole number >= 1, got 3.7$"
        for strict in (True, False):
            with pytest.raises(ConfigError, match=message):
                run_point(two_cavity_params(), dims=(3.7, 1, 3), strict=strict)

    @pytest.mark.parametrize("params, dims, directions, shown", [
        (baseline_params(), (4, 1, 4), "both", "j_ab acts on mode b"),
        (two_cavity_params(j_ac=0.0), (1, 4, 4), "left", "omega (drive 'left') acts on mode a"),
        (two_cavity_params(j_ac=0.0), (4, 4, 1), "both", "omega (drive 'right') acts on mode c"),
    ])
    def test_one_level_mode_refused_before_any_solve(
        self, monkeypatch, params, dims, directions, shown
    ):
        monkeypatch.setattr(cli, "_solve_direction", None)
        for strict in (True, False):
            with pytest.raises(ConfigError) as exc:
                run_point(params, dims=dims, directions=directions, strict=strict)
            assert str(exc.value) == (
                f"{shown}, which has one level at mode dims {dims}; "
                "a coupled or driven mode needs at least 2"
            )

    def test_undriven_one_level_side_accepted(self):
        # only the requested side's drive counts: right drives c, not a
        result = run_point(two_cavity_params(j_ac=0.0), dims=(1, 3, 3), directions="right",
                           strict=False)
        assert result.error_bwd is not None and "occupation" in result.error_bwd

    @pytest.mark.parametrize("strict", ["false", "true", 0, 1, None])
    def test_strict_must_be_a_bool(self, monkeypatch, strict):
        # refused before any solve: a string "false" would raise on the first failure
        monkeypatch.setattr(cli, "_solve_direction", None)
        with pytest.raises(ConfigError) as exc:
            run_point(two_cavity_params(), dims=(3, 1, 3), strict=strict)
        assert str(exc.value) == f"strict must be true or false, got {strict!r}"

    def test_integer_dims_apply_to_all_modes(self):
        params = two_cavity_params()
        assert vars(run_point(params, dims=3)) == vars(run_point(params, dims=(3, 3, 3)))

    def test_single_direction(self):
        result = run_point(two_cavity_params(), dims=(3, 1, 3), directions="left")
        assert result.t_fwd is not None
        assert result.t_bwd is None and result.isolation is None

    def test_convergence_check_records_drift(self):
        # four levels on the output modes, the fewest that define g3
        result = run_point(
            two_cavity_params(), dims=(4, 1, 4), convergence_check=True
        )
        assert result.drift_t_fwd is not None and result.drift_t_fwd < 0.02
        assert result.drift_g2_fwd is not None
        assert result.drift_g3_fwd is not None
        # three define g2 but not g3, so g3 has no drift either
        result = run_point(
            two_cavity_params(), dims=(3, 1, 3), convergence_check=True
        )
        assert result.drift_g2_fwd is not None and result.drift_g2_bwd is not None
        assert result.g3_fwd is None and result.drift_g3_fwd is None
        assert result.g3_bwd is None and result.drift_g3_bwd is None

    def test_convergence_check_skips_undefined_correlations(self):
        # so weak a drive leaves the output mode below the population floor
        # (<n_out> ~ 1e-14, round-off): T, g2 and g3 are all undefined
        result = run_point(
            two_cavity_params(omega=1e-7), dims=(3, 1, 3), convergence_check=True,
            strict=False,
        )
        assert result.error_fwd is not None and result.error_bwd is not None
        assert result.t_fwd is None and result.t_bwd is None
        assert result.isolation is None
        for stem in ("t", "g2", "g3"):
            assert getattr(result, f"drift_{stem}_fwd") is None
            assert getattr(result, f"drift_{stem}_bwd") is None

    def test_gmres_failure_in_one_direction_flagged(self, monkeypatch, fig2_point_444):
        gmres = spla.gmres
        calls = []

        def fail_first_call(matrix, rhs, **kwargs):
            calls.append(1)
            if len(calls) == 1:  # the forward solve runs first
                return np.zeros_like(rhs), 1
            return gmres(matrix, rhs, **kwargs)

        monkeypatch.setattr(spla, "gmres", fail_first_call)
        result = run_point(baseline_params(), dims=(4, 4, 4), strict=False)
        assert "NoConvergenceError" in result.error_fwd
        assert "GMRES run (info=1" in result.error_fwd
        assert result.t_fwd is None and result.isolation is None
        for name in ("t", "g2", "g3", "p_m", "n_a", "n_b", "n_c", "residual", "error"):
            assert getattr(result, f"{name}_bwd") == getattr(fig2_point_444, f"{name}_bwd")

    def test_invalid_directions(self):
        with pytest.raises(ConfigError):
            run_point(baseline_params(), directions="sideways")

    # directions, dims and convergence_check: one rule, one message
    @pytest.mark.parametrize("field, value, message", [
        ("directions", "sideways", "directions must be 'both', 'left' or 'right', got 'sideways'"),
        ("directions", ["left"], "directions must be 'both', 'left' or 'right', got ['left']"),
        ("dims", (3.7, 1, 3), "dims[0] must be a whole number >= 1, got 3.7"),
        ("convergence_check", "false", "convergence_check must be true or false, got 'false'"),
    ], ids=["sideways", "directions1", "dims", "convergence_check"])
    def test_invalid_directions_same_message_everywhere(self, field, value, message):
        with pytest.raises(ConfigError) as run_exc:
            run_point(baseline_params(), **{field: value}, strict=False)
        with pytest.raises(ConfigError) as spec_exc:
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(), **{field: value}
            )
        with pytest.raises(ConfigError) as config_exc:
            load_point_config({"params": {}, field: value})
        for exc in (run_exc, spec_exc, config_exc):
            assert str(exc.value) == message


def composed_side(params, side, dims):
    """One drive side composed from the public layers, keyed by field stem."""
    params = dataclasses.replace(params, drive=side)
    space = CompositeSpace(dims)
    rho = steady_state(
        build_liouvillian(build_hamiltonian(params, space), collapse_operators(params, space))
    )
    out_mode = MODE_C if side is DriveSide.LEFT else MODE_A
    # g<n> is defined with more than n levels on the output mode
    levels = dims[out_mode]
    return {
        "t": transmission(rho, params),
        "g2": correlation_g_n(rho, out_mode, 2) if levels > 2 else None,
        "g3": correlation_g_n(rho, out_mode, 3) if levels > 3 else None,
        "p_m": tuple(float(p) for p in photon_distribution(rho, out_mode)[:5]),
        "n_a": mean_occupation(rho, MODE_A),
        "n_b": mean_occupation(rho, MODE_B),
        "n_c": mean_occupation(rho, MODE_C),
        "residual": rho.diagnostics.residual,
    }


def drift(coarse, fine):
    return abs(coarse - fine) / max(abs(fine), 1e-300)


class TestPointRecord:
    """Every field of run_point's result against the same composition."""

    def test_one_direction(self):
        params = baseline_params()
        expected = {
            f"{stem}_bwd": value
            for stem, value in composed_side(params, DriveSide.RIGHT, (3, 3, 3)).items()
        }
        result = run_point(params, dims=(3, 3, 3), directions="right")
        assert vars(result) == vars(PointResult(**expected))

    def test_both_directions_with_convergence_check(self):
        params = baseline_params()
        fields = {}
        for side, suffix in ((DriveSide.LEFT, "fwd"), (DriveSide.RIGHT, "bwd")):
            coarse = composed_side(params, side, (3, 3, 3))
            fine = composed_side(params, side, (4, 4, 4))
            fields.update({f"{stem}_{suffix}": value for stem, value in coarse.items()})
            fields[f"drift_t_{suffix}"] = drift(coarse["t"], fine["t"])
            fields[f"drift_g2_{suffix}"] = drift(coarse["g2"], fine["g2"])
            # three levels define no g3, so there is no g3 drift either
            assert coarse["g3"] is None and fine["g3"] is not None
        fields["isolation"] = isolation(fields["t_fwd"], fields["t_bwd"])
        fields["ratio"] = nonreciprocal_ratio(fields["g2_fwd"], fields["g2_bwd"])
        result = run_point(params, dims=(3, 3, 3), convergence_check=True)
        assert vars(result) == vars(PointResult(**fields))

    @pytest.mark.parametrize("dims, defined", [
        ((2, 2, 2), set()),
        ((3, 3, 3), {"g2_fwd", "g2_bwd"}),
        ((4, 3, 3), {"g2_fwd", "g2_bwd", "g3_bwd"}),
        ((3, 3, 4), {"g2_fwd", "g2_bwd", "g3_fwd"}),
        ((4, 3, 4), {"g2_fwd", "g2_bwd", "g3_fwd", "g3_bwd"}),
    ])
    def test_correlations_follow_the_truncation_rule(self, dims, defined):
        # g<n> reads 0 identically with n or fewer levels on the output mode
        result = run_point(baseline_params(), dims=dims)
        for name in ("g2_fwd", "g2_bwd", "g3_fwd", "g3_bwd"):
            value = getattr(result, name)
            assert (value is not None) == (name in defined), name
            assert value is None or value > 0
        assert (result.ratio is not None) == ({"g2_fwd", "g2_bwd"} <= defined)

    def test_failed_re_solve_note_follows_the_ratio_note(self, monkeypatch):
        # the ratio is made undefined and the backward re-solve at (4, 4, 4)
        # is made to fail
        params = baseline_params()
        build = cli.build_hamiltonian

        def fail_backward_re_solve(p, space):
            if p.drive is DriveSide.RIGHT and space.mode_dims == (4, 4, 4):
                raise NoConvergenceError("forced re-solve failure")
            return build(p, space)

        def undefined_ratio(g2_fwd, g2_bwd):
            raise UndefinedRatioError("forced undefined ratio")

        monkeypatch.setattr(cli, "build_hamiltonian", fail_backward_re_solve)
        monkeypatch.setattr(cli, "nonreciprocal_ratio", undefined_ratio)
        fields = {}
        for side, suffix in ((DriveSide.LEFT, "fwd"), (DriveSide.RIGHT, "bwd")):
            coarse = composed_side(params, side, (3, 3, 3))
            fields.update({f"{stem}_{suffix}": value for stem, value in coarse.items()})
        fine = composed_side(params, DriveSide.LEFT, (4, 4, 4))
        fields["drift_t_fwd"] = drift(fields["t_fwd"], fine["t"])
        fields["drift_g2_fwd"] = drift(fields["g2_fwd"], fine["g2"])
        fields["isolation"] = isolation(fields["t_fwd"], fields["t_bwd"])
        fields["notes"] = (
            "forced undefined ratio; convergence re-solve failed (bwd): forced re-solve failure"
        )
        result = run_point(params, dims=(3, 3, 3), convergence_check=True, strict=False)
        assert vars(result) == vars(PointResult(**fields))


TRUNCATION_RULE = (
    "p<m>_fwd and g<m>_fwd need dims[c] > m, p<m>_bwd and g<m>_bwd need dims[a] > m"
)


class TestSweepSpec:
    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            Axis("delta", 0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            Axis("delta", 1.0, 1.0, 5)
        with pytest.raises(ConfigError):
            Axis("kappa_a", 0.0, 1.0, 5)

    @pytest.mark.parametrize("start, stop", [
        (float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0),
    ])
    def test_axis_bounds_must_be_finite(self, start, stop):
        with pytest.raises(ConfigError, match="must be a finite number"):
            Axis("delta", start, stop, 3)

    def test_axis_bounds_follow_the_number_rule(self):
        axis = Axis("delta", np.int64(0), 1, 3)
        assert type(axis.start) is float and axis.start == 0.0
        assert type(axis.stop) is float and axis.stop == 1.0
        # a number given as a string is refused, as it is for counts and dims
        for start, shown in ((True, "True"), ("x", "'x'"), (None, "None"), ("0", "'0'")):
            with pytest.raises(ConfigError, match=f"^axis 'delta' start must be a number, got {shown}$"):
                Axis("delta", start, 2.0, 3)

    def test_point_cap(self):
        with pytest.raises(SweepCapError):
            SweepSpec(
                axes=(Axis("delta", -1, 1, 300), Axis("kappa_b", 0, 2, 300)),
                fixed=baseline_params(),
            )

    def test_duplicate_axes(self):
        with pytest.raises(ConfigError):
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3), Axis("delta", 0, 1, 3)),
                fixed=baseline_params(),
            )

    def test_unknown_outputs(self):
        with pytest.raises(ConfigError, match="unknown output columns"):
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),),
                fixed=baseline_params(),
                outputs=("t_fwd", "nonsense"),
            )

    # a bare string would be read as its letters
    @pytest.mark.parametrize("outputs", ["t_fwd", ("t_fwd", 3), {"t_fwd": 1}])
    def test_outputs_must_be_a_list_of_names(self, outputs):
        with pytest.raises(ConfigError) as exc:
            SweepSpec(axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(), outputs=outputs)
        assert str(exc.value) == f"outputs must be a list of column names, got {outputs!r}"

    # no value column at all would solve every point for nothing
    def test_outputs_may_not_be_empty(self):
        with pytest.raises(ConfigError) as exc:
            SweepSpec(axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(), outputs=())
        assert str(exc.value) == (
            "outputs must name at least one column; leave it out to get every column"
        )

    def test_outputs_stored_as_tuple(self):
        spec = SweepSpec(
            axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(), outputs=["t_fwd", "t_bwd"],
        )
        assert spec.outputs == ("t_fwd", "t_bwd")

    @pytest.mark.parametrize("dims, missing", [
        ((3, 3, 3), ["p3_fwd", "p3_bwd"]),
        ((4, 3, 3), ["p3_fwd"]),
        ((3, 3, 4), ["p3_bwd"]),
    ])
    def test_truncated_p_columns_name_the_truncation(self, dims, missing):
        with pytest.raises(ConfigError) as exc:
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(),
                dims=dims, outputs=("t_fwd", "p3_fwd", "p3_bwd"),
            )
        assert str(exc.value) == (
            f"output columns {missing} do not exist at dims {dims}: " + TRUNCATION_RULE
        )

    @pytest.mark.parametrize("dims, convergence_check, missing", [
        ((3, 3, 3), False, ["g3_fwd", "g3_bwd"]),
        ((4, 3, 3), False, ["g3_fwd"]),
        ((3, 3, 4), True, ["g3_bwd", "drift_g3_bwd"]),
        ((2, 3, 4), False, ["g2_bwd", "g3_bwd"]),
    ])
    def test_truncated_g_columns_name_the_truncation(self, dims, convergence_check, missing):
        outputs = ("t_fwd", "g2_fwd", "g2_bwd", "g3_fwd", "g3_bwd")
        if convergence_check:
            outputs += ("drift_g3_fwd", "drift_g3_bwd")
        with pytest.raises(ConfigError) as exc:
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(), dims=dims,
                outputs=outputs, convergence_check=convergence_check,
            )
        assert str(exc.value) == (
            f"output columns {missing} do not exist at dims {dims}: " + TRUNCATION_RULE
        )

    def test_axis_count_must_be_integral(self):
        message = "axis 'delta' count must be a whole number >= 2, got 2.5"
        with pytest.raises(ConfigError, match=message):
            Axis("delta", -1, 1, 2.5)
        assert type(Axis("delta", -1, 1, 3.0).count) is int

    def test_convergence_check_must_be_bool(self):
        with pytest.raises(ConfigError, match="convergence_check must be true or false"):
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(),
                convergence_check="false",
            )

    def test_dims_checked_and_normalized(self):
        with pytest.raises(ConfigError, match=r"dims\[0\] must be a whole number >= 1, got 3.7"):
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(),
                dims=(3.7, 1, 3),
            )
        spec = SweepSpec(
            axes=(Axis("delta", -1, 1, 3),), fixed=two_cavity_params(),
            dims=[np.int64(3), 1.0, 3],
        )
        assert spec.dims == (3, 1, 3) and all(type(d) is int for d in spec.dims)

    def test_point_cap_must_be_integral(self):
        with pytest.raises(ConfigError, match="point_cap must be a whole number >= 1, got '100'"):
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(),
                point_cap="100",
            )

    # the grid runs between the two ends, so an end outside a parameter's
    # range is a spec error, found before the first point is solved
    @pytest.mark.parametrize("name, start, stop, bad", [
        ("kappa_b", -0.5, 0.5, "kappa_b must be >= 0, got -0.5"),
        ("omega", 0.1, -0.2, "omega must be >= 0, got -0.2"),
        ("j_ac", -1.0, 1.0, "j_ac is a coupling magnitude and must be >= 0, got -1.0"),
    ])
    def test_axis_ends_outside_the_parameter_range(self, tmp_path, capsys, name, start, stop, bad):
        message = f"axis {name!r} leaves the parameter range: {bad}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SweepSpec(axes=(Axis(name, start, stop, 3),), fixed=baseline_params(), dims=2)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axes": [{"name": name, "start": start, "stop": stop, "count": 3}],
            "fixed": {"omega": 0.1, "j": 0.7, "u": 5, "kappa_b": 1}, "dims": 2,
        }))
        for command in (["validate", str(spec)], ["sweep", str(spec), "--out", str(tmp_path)]):
            assert main(command) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    # a column no solved side fills would be written empty in every row
    @pytest.mark.parametrize("directions, outputs, unfilled", [
        ("left", ["t_bwd", "g2_bwd", "ratio", "isolation"], ["t_bwd", "g2_bwd", "ratio", "isolation"]),
        ("left", ["t_fwd", "n_a_bwd", "drift_t_fwd"], ["n_a_bwd"]),
        ("right", ["t_bwd", "p0_fwd", "isolation"], ["p0_fwd", "isolation"]),
    ])
    def test_outputs_need_the_sides_that_fill_them(
        self, tmp_path, capsys, directions, outputs, unfilled
    ):
        message = (
            f"output columns {unfilled} need a drive side that directions {directions!r} "
            "does not solve: a _fwd column needs the left side, a _bwd column the "
            "right side, isolation and ratio both"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SweepSpec(
                axes=(Axis("delta", -1.0, 1.0, 3),), fixed=two_cavity_params(), dims=(3, 1, 3),
                directions=directions, outputs=outputs, convergence_check=True,
            )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 3}],
            "fixed": {"omega": 0.1, "j_ac": 0.7, "u": 5.0}, "dims": [3, 1, 3],
            "directions": directions, "outputs": outputs, "convergence_check": True,
        }))
        assert main(["validate", str(spec)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("directions, outputs", [
        ("left", ("t_fwd", "g2_fwd", "n_b_fwd")),
        ("right", ("t_bwd", "p1_bwd")),
    ])
    def test_one_sided_outputs_are_filled(self, directions, outputs):
        spec = SweepSpec(
            axes=(Axis("delta", -1.0, 1.0, 2),), fixed=two_cavity_params(), dims=(3, 1, 3),
            directions=directions, outputs=outputs,
        )
        result = run_sweep(spec, jobs=1)
        filled = [result.columns.index(c) for c in outputs]
        assert all(row[i] is not None for row in result.rows for i in filled)

    def test_grid_is_row_major(self):
        spec = SweepSpec(
            axes=(Axis("delta", 0.0, 1.0, 2), Axis("kappa_b", 0.0, 2.0, 3)),
            fixed=baseline_params(),
        )
        grid = spec.grid()
        assert grid == [
            (0.0, 0.0), (0.0, 1.0), (0.0, 2.0),
            (1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
        ]


def tiny_spec(name="tiny"):
    return SweepSpec(
        axes=(Axis("delta", -1.0, 1.0, 3),),
        fixed=two_cavity_params(),
        dims=(3, 1, 3),
        name=name,
    )


class TestSweepExecution:
    def test_serial_parallel_identical(self):
        serial = run_sweep(tiny_spec(), jobs=1)
        parallel = run_sweep(tiny_spec(), jobs=2)
        assert serial.columns == parallel.columns
        assert serial.rows == parallel.rows

    def test_pool_under_python_m_matches_serial(self, tmp_path):
        # as the command line runs it, the pool's worker pickles as
        # __main__._sweep_worker
        (tmp_path / "tiny.json").write_text(json.dumps({
            "name": "tiny", "dims": [3, 1, 3], "fixed": cli.params_to_dict(two_cavity_params()),
            "axes": [{"name": "delta", "start": -1.0, "stop": 1.0, "count": 3}],
        }))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "triring.cli", "sweep", "tiny.json",
                 "--jobs", jobs, "--out", f"jobs{jobs}"],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        serial, pooled = tmp_path / "jobs1", tmp_path / "jobs2"
        for name in ("tiny.csv", "tiny.json"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()
        manifests = [json.loads((out / "tiny_manifest.json").read_text()) for out in (serial, pooled)]
        for manifest in manifests:
            del manifest["wall_time_s"]
        assert manifests[0] == manifests[1]

    def test_pool_spreads_a_small_grid_over_its_workers(self, monkeypatch):
        # each worker takes one point at a time, so even a 3-point grid
        # reaches both workers, and the rows still come back in grid order
        def slow_point(params, dims, directions, convergence_check, strict=True):
            time.sleep(0.5)
            return PointResult(t_fwd=params.delta_a, notes=str(os.getpid()))

        monkeypatch.setattr(cli, "run_point", slow_point)
        result = run_sweep(tiny_spec(), jobs=2)
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        assert [row["t_fwd"] for row in rows] == [-1.0, 0.0, 1.0]
        assert len({row["notes"] for row in rows}) == 2

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match=f"jobs must be a whole number >= 1, got {jobs}"):
            run_sweep(tiny_spec(), jobs=jobs)

    def test_jobs_none_is_one_worker_per_cpu(self, monkeypatch):
        workers = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert run_sweep(tiny_spec(), jobs=None).rows == run_sweep(tiny_spec(), jobs=1).rows
        assert workers == [2]

    def test_repeat_runs_byte_identical(self, tmp_path):
        for sub in ("one", "two"):
            emit_sweep(run_sweep(tiny_spec(), jobs=1), tmp_path / sub)
        first = (tmp_path / "one" / "tiny.csv").read_bytes()
        second = (tmp_path / "two" / "tiny.csv").read_bytes()
        assert first == second

    def test_csv_and_json_mirror_values(self, tmp_path):
        result = run_sweep(tiny_spec(), jobs=1)
        emit_sweep(result, tmp_path)
        with open(tmp_path / "tiny.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            csv_rows = list(reader)
        doc = json.loads((tmp_path / "tiny.json").read_text())
        assert doc["columns"] == header
        for csv_row, json_row in zip(csv_rows, doc["rows"]):
            for text, value in zip(csv_row, json_row):
                if value is None:
                    assert text == ""
                elif isinstance(value, float):
                    assert float(text) == value
                else:
                    assert text == str(value)

    def test_manifest_contents(self, tmp_path):
        result = run_sweep(tiny_spec(), jobs=1)
        emit_sweep(result, tmp_path)
        manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
        assert manifest["n_points"] == 3
        assert manifest["n_errors"] == 0
        assert manifest["dims"] == [3, 1, 3]
        assert manifest["max_residual"] < 1e-10

    def test_failed_points_flagged_sweep_continues(self):
        spec = SweepSpec(
            axes=(Axis("omega", 0.0, 0.1, 2),),  # omega = 0 is undefined
            fixed=two_cavity_params(),
            dims=(3, 1, 3),
        )
        result = run_sweep(spec, jobs=1)
        err_col = result.columns.index("error_fwd")
        t_col = result.columns.index("t_fwd")
        assert result.rows[0][err_col] is not None
        assert result.rows[0][t_col] is None
        assert result.rows[1][err_col] is None
        assert result.rows[1][t_col] is not None
        assert result.n_errors == 1

    def test_output_filtering(self):
        spec = SweepSpec(
            axes=(Axis("delta", -1.0, 1.0, 2),),
            fixed=two_cavity_params(),
            dims=(3, 1, 3),
            outputs=("t_fwd", "t_bwd"),
        )
        result = run_sweep(spec, jobs=1)
        assert result.columns == [
            "delta", "t_fwd", "t_bwd",
            "residual_fwd", "residual_bwd", "error_fwd", "error_bwd", "notes",
        ]


class TestFormatting:
    def test_float_repr_round_trips(self):
        for value in (0.1, 1 / 3, math.pi, 1e-17, -0.0):
            assert float(_format_cell(value)) == value

    def test_none_is_empty(self):
        assert _format_cell(None) == ""

    def test_numpy_scalars_normalized(self):
        assert _format_cell(np.float64(0.5)) == "0.5"


class TestRowTypes:
    """Every emitted cell is None, str, int or float, the types the CSV and
    JSON writers take as they are (a numpy scalar or a bool would not be)."""

    @staticmethod
    def assert_plain(rows):
        assert rows
        kinds = {type(cell) for row in rows for cell in row}
        assert kinds <= {type(None), str, int, float}, kinds

    def test_sweep_rows(self):
        spec = SweepSpec(
            axes=(Axis("kappa_b", 0.0, 1.0, 2),), fixed=baseline_params(omega=0.0),
            dims=(3, 3, 3), convergence_check=True,
        )
        failed = run_sweep(spec, jobs=1)  # zero drive: error flags, no values
        self.assert_plain(failed.rows)
        spec = dataclasses.replace(spec, fixed=baseline_params())
        self.assert_plain(run_sweep(spec, jobs=1).rows)

    @pytest.mark.parametrize("name", ["fig3c", "smatrix_check", "conditions_check"])
    def test_table_rows(self, name):
        # each builder takes its scenario's sweep specs and returns its table
        scenario_name = "fig3" if name == "fig3c" else name.replace("_", "-")
        specs = cli._scenario_specs(scenario_name, (4, 3, 4))
        basename, columns, rows, _ = getattr(cli, f"_{name}_table")(specs)
        assert basename == name
        assert all(len(row) == len(columns) for row in rows)
        self.assert_plain(rows)


class TestScenarios:
    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenario("fig9z")

    def test_conditions_check(self, tmp_path):
        files = scenario("conditions-check", out_dir=tmp_path)
        names = {f.name for f in files}
        assert {"conditions_check.csv", "conditions_check.json",
                "conditions_check_manifest.json"} <= names
        with open(tmp_path / "conditions_check.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 50
        for row in rows:
            assert float(row["err_fwd"]) < 1e-12
            assert float(row["err_bwd"]) < 1e-12
            assert abs(float(row["amp_residual"])) < 1e-12
            assert float(row["phase_residual"]) < 1e-12

    def test_smatrix_check(self, tmp_path):
        scenario("smatrix-check", out_dir=tmp_path)
        with open(tmp_path / "smatrix_check.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        diffs = [float(r["diff_fwd"]) for r in rows]
        gamma_diffs = [float(r["diff_fwd_gamma_variant"]) for r in rows]
        assert max(diffs) < 1e-12
        assert max(gamma_diffs) > 1e-3  # the printed-form variant is wrong

    def test_scenario_determinism(self, tmp_path):
        scenario("smatrix-check", out_dir=tmp_path / "a")
        scenario("smatrix-check", out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "smatrix_check.csv").read_bytes() == (
            tmp_path / "b" / "smatrix_check.csv"
        ).read_bytes()


class TestConfigDocuments:
    def test_point_config(self):
        params, dims, directions, convergence = load_point_config(
            {"params": {"omega": 0.1}, "dims": 4, "directions": "left"}
        )
        assert dims == (4, 4, 4)
        assert directions == "left"
        assert not convergence

    @pytest.mark.parametrize(
        "dims", [0, -1, [0, 0, 0], [3, 0, 3], [4.7, 4, 4], True, [4, True, 4], "444"]
    )
    def test_dims_below_one_rejected(self, dims):
        message = r"^dims(\[\d\])? must be a whole number >= 1, got "
        with pytest.raises(ConfigError, match=message):
            load_point_config({"params": {}, "dims": dims})
        with pytest.raises(ConfigError, match=message):
            scenario("fig2a", dims=dims)

    @pytest.mark.parametrize("dims", [[4.0, 1, 4], np.array([4, 1, 4]), range(4, 1, -1)])
    def test_integral_dims_accepted(self, dims):
        assert load_point_config({"params": {}, "dims": dims})[1] == tuple(
            int(d) for d in dims
        )

    @pytest.mark.parametrize("dims", [np.array(4), np.array(4.0), np.int64(4)])
    def test_zero_dimensional_dims_are_a_scalar(self, dims):
        # a 0-d array is iterable by type but not in fact
        assert load_point_config({"params": {}, "dims": dims})[1] == (4, 4, 4)
        with pytest.raises(ConfigError, match=r"^dims must be a whole number >= 1, got 0$"):
            load_point_config({"params": {}, "dims": np.array(0)})

    def test_point_config_unknown_key(self):
        with pytest.raises(ConfigError):
            load_point_config({"params": {}, "grid": []})

    def test_sweep_spec_document(self):
        spec = load_sweep_spec(
            {
                "name": "demo",
                "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 5}],
                "fixed": {"omega": 0.1, "j_ac": 0.7},
                "dims": [3, 1, 3],
                "outputs": ["t_fwd", "t_bwd"],
            }
        )
        assert spec.name == "demo"
        assert spec.axes[0].count == 5
        assert spec.dims == (3, 1, 3)

    @pytest.mark.parametrize("fixed, axes, directions, shown", [
        ({"omega": 0.1}, ["j_ac"], "right", "j_ac acts on mode a"),
        ({"omega": 0.0}, ["omega"], "left", "omega (drive 'left') acts on mode a"),
        ({"omega": 0.1, "j_ab": 0.5}, ["delta"], "right", "j_ab acts on mode a"),
        ({"omega": 0.1}, ["j_ac", "delta"], "right", "j_ac acts on mode a"),
    ], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
    def test_sweep_spec_one_level_coupled_mode_refused(self, fixed, axes, directions, shown):
        # an axis is nonzero somewhere on its grid, whatever the fixed value
        doc = {
            "axes": [{"name": axis, "start": 0, "stop": 0.2, "count": 3} for axis in axes],
            "fixed": fixed, "dims": [1, 3, 3], "directions": directions,
        }
        with pytest.raises(ConfigError, match="^" + re.escape(shown)):
            load_sweep_spec(doc)
        load_sweep_spec({**doc, "fixed": {"omega": 0.1}, "axes": [
            {"name": "delta", "start": 0, "stop": 0.2, "count": 3}
        ], "directions": "right"})

    def test_sweep_spec_defaults_come_from_sweep_spec(self):
        spec = load_sweep_spec({
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 5}],
            "fixed": {"omega": 0.1},
        })
        assert spec == SweepSpec(
            axes=(Axis("delta", -1, 1, 5),), fixed=params_from_dict({"omega": 0.1})
        )

    def test_sweep_spec_missing_sections(self):
        with pytest.raises(ConfigError):
            load_sweep_spec({"axes": []})


class TestCommandLine:
    def test_point_command_json(self, tmp_path, capsys):
        config = tmp_path / "point.json"
        config.write_text(json.dumps({
            "params": {"omega": 0.1, "j_ac": 0.7, "u": 5.0, "delta": 0.5},
            "dims": [3, 1, 3],
        }))
        assert main(["point", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_fwd"] is not None
        assert doc["error_fwd"] is None

    def test_point_command_csv_out(self, tmp_path):
        config = tmp_path / "point.json"
        config.write_text(json.dumps({
            "params": {"omega": 0.1, "j_ac": 0.7}, "dims": [3, 1, 3],
        }))
        out = tmp_path / "point.csv"
        assert main(["point", str(config), "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["t_fwd"]) >= 0

    def test_sweep_command(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli_demo",
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 2}],
            "fixed": {"omega": 0.1, "j_ac": 0.7, "u": 5.0},
            "dims": [3, 1, 3],
        }))
        assert main(["sweep", str(spec), "--out", str(tmp_path), "--jobs", "1"]) == 0
        assert (tmp_path / "cli_demo.csv").exists()
        assert (tmp_path / "cli_demo_manifest.json").exists()

    @pytest.mark.parametrize("argv", [["sweep", "spec.json"], ["scenario", "fig2a"]])
    def test_jobs_defaults_to_one(self, argv):
        assert cli.build_parser().parse_args(argv).jobs == 1

    def test_sweep_command_runs_serially_by_default(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the sweep built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 3}],
            "fixed": {"omega": 0.1, "j_ac": 0.7, "u": 5.0},
            "dims": [3, 1, 3],
        }))
        assert main(["sweep", str(spec), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["point", "sweep"])
    def test_dims_option_replaces_the_document_dims_before_it_is_read(
        self, tmp_path, capsys, command
    ):
        # refused at its own dims, where mode b has one level; validate
        # still checks the document as written
        doc = {"params": {"omega": 0.1, "j_ab": 0.5}, "dims": [3, 1, 3]}
        if command == "sweep":
            doc = {"axes": [{"name": "delta", "start": -1, "stop": 1, "count": 2}],
                   "fixed": doc["params"], "dims": doc["dims"]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["validate", str(config)]) == 2
        out = tmp_path / "out"
        argv = {
            "point": ["point", str(config), "--format", "csv"],
            "sweep": ["sweep", str(config), "--out", str(out), "--jobs", "1"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--dims", "2"]) == 0, capsys.readouterr().err
        if command == "sweep":
            manifest = json.loads((out / "sweep_manifest.json").read_text())
            assert manifest["dims"] == [2, 2, 2]

    def test_point_command_csv_stdout_matches_file(self, tmp_path, capsys):
        config = tmp_path / "point.json"
        config.write_text(json.dumps({
            "params": {"omega": 0.1, "j_ac": 0.7}, "dims": [3, 1, 3],
        }))
        out = tmp_path / "point.csv"
        assert main(["point", str(config), "--format", "csv", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["point", str(config), "--format", "csv"]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("command, doc", [
        ("point", {"params": {"omega": 0.1}}),
        ("sweep", {
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 2}],
            "fixed": {"omega": 0.1},
        }),
        ("scenario", None),
    ])
    def test_dims_zero_is_config_error(self, tmp_path, capsys, command, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "point": ["point", str(config)],
            "sweep": ["sweep", str(config), "--out", str(out), "--jobs", "1"],
            "scenario": ["scenario", "fig2a", "--out", str(out), "--jobs", "1"],
        }[command]
        assert main(argv + ["--dims", "0"]) == 2
        assert "dims must be a whole number >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, out, message", [
        ("point", "missing/x.csv", "cannot write {out}: not a file in an existing directory"),
        ("point", ".", "cannot write {out}: not a file in an existing directory"),
        ("sweep", "file", "cannot create output directory {out}: File exists"),
        ("scenario", "file", "cannot create output directory {out}: File exists"),
    ], ids=["point-missing-dir", "point-dir", "sweep", "scenario"])
    def test_unusable_out_is_config_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, out, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a point was solved before --out was checked")

        monkeypatch.setattr(cli, "run_point", no_solve)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 2}],
            "fixed": {"omega": 0.1},
        } if command == "sweep" else {"params": {"omega": 0.1}}))
        (tmp_path / "file").write_text("")
        out = tmp_path / out
        argv = {
            "point": ["point", str(config)],
            "sweep": ["sweep", str(config)],
            "scenario": ["scenario", "fig2a"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(out=out)}\n"

    @pytest.mark.parametrize("command", ["sweep", "scenario"])
    def test_jobs_zero_is_config_error(self, tmp_path, capsys, command):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 2}],
            "fixed": {"omega": 0.1},
        }))
        out = tmp_path / "out"
        argv = {
            "sweep": ["sweep", str(config)],
            # smatrix-check runs no sweep, and is still refused before it writes
            "scenario": ["scenario", "smatrix-check", "fig2a"],
        }[command]
        assert main(argv + ["--out", str(out), "--jobs", "0"]) == 2
        assert "jobs must be a whole number >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_fig4_below_its_truncation_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["scenario", "fig4", "--dims", "3", "--out", str(out), "--jobs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "['p3_fwd', 'p3_bwd'] do not exist at dims (3, 3, 3)" in err
        assert TRUNCATION_RULE in err
        assert not out.exists()

    def test_fig3_below_its_truncation_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["scenario", "fig3", "--dims", "3", "--out", str(out), "--jobs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "['g3_fwd', 'g3_bwd'] do not exist at dims (3, 3, 3)" in err
        assert TRUNCATION_RULE in err
        assert not out.exists()

    def test_multi_name_scenario_checks_every_name_first(self, tmp_path, capsys):
        # smatrix-check alone would run; fig4 cannot at dims 3
        out = tmp_path / "out"
        argv = [
            "scenario", "smatrix-check", "fig4", "--dims", "3", "--jobs", "1",
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "['p3_fwd', 'p3_bwd'] do not exist at dims (3, 3, 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_command(self, tmp_path):
        assert main(["scenario", "conditions-check", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "conditions_check.csv").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"params": {"delta": "abc"}}, "parameter 'delta' must be a number, got 'abc'"),
        ({"params": {"omega": None}}, "parameter 'omega' must be a number, got None"),
        ({"params": {"delta": True}}, "parameter 'delta' must be a number, got True"),
        ({"axes": [{"name": "delta", "start": False, "stop": 1, "count": 3}], "fixed": {}},
         "axis 'delta' start must be a number, got False"),
        ({"axes": [{"name": "delta", "start": "x", "stop": 1, "count": 3}], "fixed": {}},
         "axis 'delta' start must be a number, got 'x'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2.5}], "fixed": {}},
         "axis 'delta' count must be a whole number >= 2, got 2.5"),
        ({"axes": [3], "fixed": {}}, "axis entries must be objects, got 3"),
        ({"axes": 3, "fixed": {}}, "axes must be a list of axis objects, got 3"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "outputs": "t_fwd"},
         "outputs must be a list of column names, got 't_fwd'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "point_cap": "many"},
         "point_cap must be a whole number >= 1, got 'many'"),
        ({"params": {"omega": 0.1}, "convergence_check": "false"},
         "convergence_check must be true or false, got 'false'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "convergence_check": 0},
         "convergence_check must be true or false, got 0"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "name": ["a"]},
         "name must be a string, got ['a']"),
        ({"params": {"omega": 0.1, "kappa_a": float("nan")}},
         "parameter 'kappa_a' must be a finite number, got nan"),
        ({"axes": [{"name": "delta", "start": 0, "stop": float("inf"), "count": 2}],
          "fixed": {}},
         "axis 'delta' stop must be a finite number, got inf"),
        # numbers given as JSON strings, at each place a document holds one
        ({"params": {"omega": "0.1"}}, "parameter 'omega' must be a number, got '0.1'"),
        ({"params": {"u": "5"}}, "parameter 'u' must be a number, got '5'"),
        ({"axes": [{"name": "delta", "start": "0", "stop": 1, "count": 2}], "fixed": {}},
         "axis 'delta' start must be a number, got '0'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}],
          "fixed": {"omega": "0.1"}},
         "parameter 'omega' must be a number, got '0.1'"),
        ({"params": {"omega": 0.1}, "dims": "3"},
         "dims must be a whole number >= 1, got '3'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "dims": "3"},
         "dims must be a whole number >= 1, got '3'"),
        # a field given directly and through its shorthand
        ({"params": {"delta": 0.5, "delta_a": 1.0}},
         "parameters 'delta' and 'delta_a' both set 'delta_a'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}],
          "fixed": {"u_a": 5.0, "u": 4.0}},
         "parameters 'u_a' and 'u' both set 'u_a'"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "outputs": []},
         "outputs must name at least one column; leave it out to get every column"),
        ({"params": 3}, "params must be an object, got int"),
        ({"params": {}, "dims": [3, 3]}, "dims must have 3 entries (a, b, c), got (3, 3)"),
        ({"axes": [], "fixed": {}}, "a sweep needs 1 or 2 axes, got 0"),
        ({"axes": [{"name": name, "start": 0, "stop": 1, "count": 2}
                   for name in ("delta", "theta", "kappa_b")], "fixed": {}},
         "a sweep needs 1 or 2 axes, got 3"),
        ({"dims": 3}, "point config needs a 'params' object"),
    ])
    def test_malformed_values_are_config_errors(self, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["validate", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("name", ["../escaped", "sub/name", "..", ".", ""])
    def test_sweep_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": name,
            "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 2}],
            "fixed": {"omega": 0.1, "j_ac": 0.7, "u": 5.0},
            "dims": [3, 1, 3],
        }))
        message = "name must be a plain file name"
        assert main(["validate", str(spec)]) == 2
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["sweep", str(spec), "--out", str(out), "--jobs", "1"]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.json"]

    @pytest.mark.parametrize("entry, keys", [
        ({"name": "delta", "start": -1, "stop": 1, "count": 2, "step": 1},
         "['count', 'name', 'start', 'step', 'stop']"),
        ({"name": "delta", "start": -1, "count": 2}, "['count', 'name', 'start']"),
    ])
    def test_axis_entry_keys_are_exact(self, tmp_path, capsys, entry, keys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axes": [entry], "fixed": {"omega": 0.1, "j_ac": 0.7, "u": 5.0}, "dims": [3, 1, 3],
        }))
        message = f"axis entry keys must be ['count', 'name', 'start', 'stop'], got {keys}"
        assert main(["validate", str(spec)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        out = tmp_path / "out"
        assert main(["sweep", str(spec), "--out", str(out), "--jobs", "1"]) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.json"]

    def test_readme_configs_validate(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            config = tmp_path / f"readme_{i}.json"
            config.write_text(block)
            assert main(["validate", str(config)]) == 0, block

    def test_validate_command(self, tmp_path, capsys):
        config = tmp_path / "ok.json"
        config.write_text(json.dumps({"params": {"omega": 0.1}}))
        assert main(["validate", str(config)]) == 0
        assert "valid point config" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"params": {"width": 3}}))
        assert main(["validate", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "point"])
    def test_one_level_coupled_bridge_is_a_config_error(self, tmp_path, capsys, command):
        config = tmp_path / "point.json"
        config.write_text(json.dumps({"params": {"omega": 0.1, "j_ab": 0.5}, "dims": [3, 1, 3]}))
        assert main([command, str(config)]) == 2
        assert capsys.readouterr().err == (
            "config error: j_ab acts on mode b, which has one level at mode dims "
            "(3, 1, 3); a coupled or driven mode needs at least 2\n"
        )

    @pytest.mark.parametrize("text", ["3", "null", '"axes"', "[]"])
    def test_validate_rejects_a_document_that_is_not_an_object(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["validate", str(config)]) == 2
        assert capsys.readouterr().err == "config error: point config must be a JSON object\n"

    # validate reads a document without "axes" as a point config, so these
    # two reach the sweep-spec reader only through sweep
    @pytest.mark.parametrize("doc, message", [
        (3, "sweep spec must be a JSON object"),
        ({"axes": [{"name": "delta", "start": 0, "stop": 1, "count": 2}], "fixed": {},
          "grid": 1},
         "unknown sweep-spec keys: ['grid']"),
    ])
    def test_malformed_sweep_spec_is_a_config_error(self, tmp_path, capsys, doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2

    def test_file_that_is_not_json(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"params": ')
        assert main(["validate", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config file {config} is not valid JSON: "
        )

    def test_sweep_notes_flagged_points(self, tmp_path, capsys):
        # no transmission is defined at zero drive
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axes": [{"name": "omega", "start": 0, "stop": 0.1, "count": 2}],
            "fixed": {"j_ac": 0.7, "j_ab": 0, "j_bc": 0, "kappa_b": 0}, "dims": [2, 1, 2],
        }))
        assert main(["sweep", str(spec), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("note: 1 grid point(s) carry error flags\n")

    @pytest.mark.parametrize("argv, lines", [
        (["validate", "omega.json"], 1),
        (["sweep", "omega.json", "--dims", "2", "--out", "out"], 3),
    ])
    def test_weak_drive_warning_names_the_config_file(self, tmp_path, argv, lines):
        # run as `python -m`, where the first frame outside the package is
        # runpy's; each distinct message is printed once (omega 0.6, 0.7 and
        # 0.8 on the swept axis)
        (tmp_path / "omega.json").write_text(json.dumps({
            "axes": [{"name": "omega", "start": 0.1, "stop": 0.8, "count": 8}], "fixed": {},
        }))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "triring.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "warning: omega.json: omega = 0.8 exceeds 0.5" in proc.stderr
        assert "runpy" not in proc.stderr
        assert len(proc.stderr.splitlines()) == lines

    def test_zero_drive_exit_code(self, tmp_path, capsys):
        config = tmp_path / "point.json"
        config.write_text(json.dumps({
            "params": {"omega": 0.0, "j_ac": 0.7}, "dims": [3, 1, 3],
        }))
        assert main(["point", str(config)]) == 1
        assert "undefined at zero drive" in capsys.readouterr().err


def counting_run_point(monkeypatch, offset=0.0):
    """Replace ``cli.run_point`` with a fake that records each call it gets.

    Its fields are fixed functions of ``(params, dims)`` plus ``offset``, so
    two fakes with different offsets write different files.
    """
    calls = []

    def fake(params, dims=cli.DEFAULT_DIMS, directions="both",
             convergence_check=False, strict=True):
        calls.append((params, tuple(dims)))
        x = offset + params.delta_a + 2.0 * params.kappa_b + 3.0 * params.theta
        t = 1.0 / (1.0 + x * x)
        return PointResult(
            t_fwd=t, t_bwd=t / 2, isolation=t / 2,
            g2_fwd=1.0 + x, g2_bwd=1.0 - x, g3_fwd=x, g3_bwd=-x, ratio=abs(x),
            p_m_fwd=tuple(t ** m for m in range(dims[2])),
            p_m_bwd=tuple(t ** m / 2 for m in range(dims[0])),
            n_a_bwd=t, n_c_fwd=t,
        )

    monkeypatch.setattr(cli, "run_point", fake)
    return calls


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPointMemo:
    @pytest.mark.parametrize("first, second, dims, first_calls", [
        ("fig2a", "fig2d", 3, 101),
        ("fig3", "fig4", 4, 81),  # fig3c reads its two points from the fig3ab grid
    ])
    def test_shared_grid_solved_once(self, tmp_path, monkeypatch,
                                     first, second, dims, first_calls):
        calls = counting_run_point(monkeypatch)
        scenario(first, tmp_path, dims=dims, jobs=1)
        assert len(calls) == first_calls
        scenario(second, tmp_path, dims=dims, jobs=1)
        assert len(calls) == first_calls

    def test_reused_points_write_the_same_files(self, tmp_path, monkeypatch):
        counting_run_point(monkeypatch)
        scenario("fig3", tmp_path / "fresh", dims=4, jobs=1)
        calls = counting_run_point(monkeypatch)  # a new fake: a new, empty memo
        scenario("fig4", tmp_path / "memo", dims=4, jobs=1)
        scenario("fig3", tmp_path / "memo", dims=4, jobs=1)
        assert len(calls) == 81
        for stem in ("fig3ab", "fig3c"):
            assert (tmp_path / "memo" / f"{stem}.csv").read_bytes() == (
                tmp_path / "fresh" / f"{stem}.csv"
            ).read_bytes()

    def test_flagged_fig3c_point_is_solved_again_and_raises(self, tmp_path, monkeypatch):
        calls = counting_run_point(monkeypatch)
        fake = cli.run_point

        def flag_kappa_b_1(params, dims, directions, convergence_check, strict=True):
            if params.kappa_b == 1.0:
                if strict:
                    raise PointEvaluationError("forward (drive left) evaluation failed: x")
                return PointResult(error_fwd="NoConvergenceError: x")
            return fake(params, dims, directions, convergence_check, strict)

        monkeypatch.setattr(cli, "run_point", flag_kappa_b_1)
        with pytest.raises(PointEvaluationError, match="forward"):
            scenario("fig3", tmp_path, dims=4, jobs=1)
        assert len(calls) == 80

    def test_other_dims_are_kept_apart(self, tmp_path, monkeypatch):
        calls = counting_run_point(monkeypatch)
        scenario("fig2a", tmp_path, dims=3, jobs=1)
        scenario("fig2d", tmp_path, dims=4, jobs=1)
        assert len(calls) == 202
        assert {dims for _, dims in calls[101:]} == {(4, 1, 4)}
        scenario("fig2a", tmp_path, dims=4, jobs=1)
        scenario("fig2d", tmp_path, dims=3, jobs=1)
        assert len(calls) == 202

    def test_other_run_point_starts_empty(self, tmp_path, monkeypatch):
        counting_run_point(monkeypatch)
        scenario("fig2a", tmp_path / "one", dims=3, jobs=1)
        calls = counting_run_point(monkeypatch, offset=0.5)
        scenario("fig2a", tmp_path / "two", dims=3, jobs=1)
        assert len(calls) == 101
        rows = read_rows(tmp_path / "two" / "fig2a.csv")
        t_fwd = rows[0].index("t_fwd")
        for row in rows[1:]:
            x = 0.5 + float(row[0]) + 3.0 * (-math.pi / 4)
            assert float(row[t_fwd]) == 1.0 / (1.0 + x * x)
        scenario("fig2d", tmp_path / "two", dims=3, jobs=1)
        assert len(calls) == 101

    def test_no_memo_evaluates_every_point(self, monkeypatch):
        calls = counting_run_point(monkeypatch)
        run_sweep(tiny_spec(), jobs=1)
        run_sweep(tiny_spec(), jobs=1)
        assert len(calls) == 6

    def test_pool_gets_only_the_missing_points(self, monkeypatch):
        spec = SweepSpec(
            axes=(Axis("delta", -1.0, 1.0, 4),), fixed=two_cavity_params(),
            dims=(3, 1, 3),
        )
        full = {}
        serial = run_sweep(spec, jobs=1, memo=full)
        keys = list(full)
        assert len(keys) == 4
        memo = {key: full[key] for key in keys[:2]}
        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                submitted.extend(iterables[0])
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        parallel = run_sweep(spec, jobs=2, memo=memo)
        assert submitted == keys[2:]
        assert parallel.rows == serial.rows == run_sweep(spec, jobs=1).rows
        assert list(memo) == keys

    def test_several_scenarios_in_one_command(self, tmp_path, monkeypatch):
        calls = counting_run_point(monkeypatch)
        names = ["fig2a", "fig2d", "fig3", "fig4"]
        options = ["--dims", "4", "--jobs", "1", "--out"]
        assert main(["scenario", *names, *options, str(tmp_path / "together")]) == 0
        assert len(calls) == 101 + 81
        for name in names:
            counting_run_point(monkeypatch)
            assert main(["scenario", name, *options, str(tmp_path / "apart")]) == 0
        together = sorted(p.name for p in (tmp_path / "together").iterdir())
        assert together == sorted(p.name for p in (tmp_path / "apart").iterdir())
        assert len(together) == 5 * 3
        for name in together:
            if not name.endswith("_manifest.json"):
                assert (tmp_path / "together" / name).read_bytes() == (
                    tmp_path / "apart" / name
                ).read_bytes()
