import csv
import json
import math

import numpy as np
import pytest

from triring import DriveSide, PointEvaluationError, SystemParams
from triring.errors import ConfigError, SweepCapError
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
        with pytest.raises(ConfigError, match="unknown parameter"):
            params_from_dict({"delta_q": 1.0})

    def test_bad_drive(self):
        with pytest.raises(ConfigError, match="drive"):
            params_from_dict({"drive": "up"})

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
        # nothing couples into mode c, so its correlations are undefined but
        # the transmission is still a perfectly good (zero) number
        params = SystemParams(omega=0.1, kappa_a=1.0, kappa_c=1.0)
        result = run_point(params, dims=(3, 1, 3), strict=False)
        assert result.t_fwd == pytest.approx(0.0, abs=1e-12)
        assert result.g2_fwd is None
        assert "occupation" in result.error_fwd

    def test_single_direction(self):
        result = run_point(two_cavity_params(), dims=(3, 1, 3), directions="left")
        assert result.t_fwd is not None
        assert result.t_bwd is None and result.isolation is None

    def test_convergence_check_records_drift(self):
        result = run_point(
            two_cavity_params(), dims=(3, 1, 3), convergence_check=True
        )
        assert result.drift_t_fwd is not None and result.drift_t_fwd < 0.02
        assert result.drift_g2_fwd is not None

    def test_invalid_directions(self):
        with pytest.raises(ConfigError):
            run_point(baseline_params(), directions="sideways")

    @pytest.mark.parametrize("directions", ["sideways", ["left"]])
    def test_invalid_directions_same_message_everywhere(self, directions):
        message = (
            "directions must be 'both', 'left' or 'right', got "
            + repr(directions)
        )
        with pytest.raises(ConfigError) as run_exc:
            run_point(baseline_params(), directions=directions)
        with pytest.raises(ConfigError) as spec_exc:
            SweepSpec(
                axes=(Axis("delta", -1, 1, 3),), fixed=baseline_params(),
                directions=directions,
            )
        with pytest.raises(ConfigError) as config_exc:
            load_point_config({"params": {}, "directions": directions})
        for exc in (run_exc, spec_exc, config_exc):
            assert str(exc.value) == message


class TestSweepSpec:
    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            Axis("delta", 0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            Axis("delta", 1.0, 1.0, 5)
        with pytest.raises(ConfigError):
            Axis("kappa_a", 0.0, 1.0, 5)

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

    @pytest.mark.parametrize("dims", [0, -1, [0, 0, 0], [3, 0, 3]])
    def test_dims_below_one_rejected(self, dims):
        with pytest.raises(ConfigError, match="dims must be >= 1"):
            load_point_config({"params": {}, "dims": dims})
        with pytest.raises(ConfigError, match="dims must be >= 1"):
            scenario("fig2a", dims=dims)

    def test_point_config_unknown_key(self):
        with pytest.raises(ConfigError):
            load_point_config({"params": {}, "grid": []})

    def test_sweep_spec_document(self):
        spec = load_sweep_spec(
            {
                "name": "demo",
                "axes": [{"name": "delta", "start": -1, "stop": 1, "count": 5}],
                "fixed": {"omega": 0.1, "j": 0.7},
                "dims": [3, 1, 3],
                "outputs": ["t_fwd", "t_bwd"],
            }
        )
        assert spec.name == "demo"
        assert spec.axes[0].count == 5
        assert spec.dims == (3, 1, 3)

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
            "fixed": {"omega": 0.1, "j": 0.7, "u": 5.0},
            "dims": [3, 1, 3],
        }))
        assert main(["sweep", str(spec), "--out", str(tmp_path), "--jobs", "1"]) == 0
        assert (tmp_path / "cli_demo.csv").exists()
        assert (tmp_path / "cli_demo_manifest.json").exists()

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
        assert "dims must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_command(self, tmp_path):
        assert main(["scenario", "conditions-check", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "conditions_check.csv").exists()

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

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2

    def test_zero_drive_exit_code(self, tmp_path, capsys):
        config = tmp_path / "point.json"
        config.write_text(json.dumps({
            "params": {"omega": 0.0, "j_ac": 0.7}, "dims": [3, 1, 3],
        }))
        assert main(["point", str(config)]) == 1
        assert "undefined at zero drive" in capsys.readouterr().err
