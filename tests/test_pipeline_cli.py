import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qsurfloss
from qsurfloss import (
    DEFAULT_SM_SPEC,
    InvalidInputError,
    NumericalFailureError,
    PipelineConfig,
    SweepConfig,
    cutoff_sensitivity,
    interdigital_unit_cell,
    run_pipeline,
    solve_cross_section,
)
from qsurfloss.cli import main
from qsurfloss.dataio import COLUMNS

EXPECTED_FIT_CSVS = {"q_vs_psm.csv", "q_vs_normalized_pr.csv", "q_model_surface.csv"}


def make_degenerate_table(path):
    """All rows share one p_sm value: the Q0 fit design is collinear."""
    rows = [
        f"X{i}-1,dumbbell_2d,4.0,6.0,40,{100 + 10 * i},5.0,10.0,"
        f"{2.0 + 0.1 * i},0.2,1.0,0.5"
        for i in range(4)
    ]
    path.write_text(",".join(COLUMNS) + "\n" + "\n".join(rows) + "\n")


def make_rising_q_table(path, n_rows=5):
    """Q rises with p_sm: the sm+j fit clamps tan_d_sm to zero."""
    rows = [
        f"X{i}-1,dumbbell_2d,4.0,6.0,40,100,5.0,10.0,{1.0 + 0.5 * i},0.1,"
        f"{5.0 + 5 * i},{1.0 + 0.3 * (i % 2)}"
        for i in range(n_rows)
    ]
    path.write_text(",".join(COLUMNS) + "\n" + "\n".join(rows) + "\n")


class TestRunPipeline:
    def test_default_run_produces_fits_in_range(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"))
        report = run_pipeline(config)
        assert report["status"] == "ok"
        assert report["n_devices"] == 32
        assert report["n_fit_points"] == 24
        sm_j = report["fits"]["sm+j"]["parameters"]
        assert 7.1e-4 <= sm_j["tan_d_sm"] <= 1.07e-3
        assert 2.8e-3 <= sm_j["tan_d_j"] <= 4.2e-3
        sm_q0 = report["fits"]["sm+q0"]["parameters"]
        assert 6.6e-4 <= sm_q0["tan_d_sm"] <= 1.0e-3
        assert 5.7e6 <= sm_q0["q0"] <= 8.5e6
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert EXPECTED_FIT_CSVS | {"report.json"} <= names

    def test_reports_are_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_pipeline(PipelineConfig(output_dir=str(out)))
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_empty_dataset_writes_nothing(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(COLUMNS) + "\n")
        out = tmp_path / "out"
        config = PipelineConfig(dataset=str(empty), output_dir=str(out))
        with pytest.raises(InvalidInputError, match="no device records"):
            run_pipeline(config)
        assert not out.exists()

    def test_sweep_only_emits_only_the_sweep(self, tmp_path):
        out = tmp_path / "out"
        config = PipelineConfig(
            models=(),
            output_dir=str(out),
            sweep=SweepConfig(width_min_um=2.0, width_max_um=4.0, points=2,
                              elements_per_strip=64),
        )
        report = run_pipeline(config)
        assert report["status"] == "ok"
        names = {p.name for p in out.iterdir()}
        assert names == {"psm_width_sweep.csv", "report.json"}
        widths = [p["width_um"] for p in report["sweep"]["points"]]
        assert widths == [2.0, 4.0]
        sensitivity = report["sweep"]["cutoff_sensitivity"]["values"]
        assert [v["cutoff_um"] for v in sensitivity] == [0.05, 0.1, 0.2]
        p_sms = [v["p_sm"] for v in sensitivity]
        assert p_sms[0] > p_sms[1] > p_sms[2] > 0

    def test_cutoff_block_matches_a_direct_solve(self, tmp_path):
        """The block is scaled from the sweep's reference solution at 2 um;
        a direct solve at the block's 10 um width must agree."""
        config = PipelineConfig(
            models=(),
            output_dir=str(tmp_path / "out"),
            sweep=SweepConfig(width_min_um=2.0, width_max_um=12.0, points=2,
                              elements_per_strip=64),
        )
        block = run_pipeline(config)["sweep"]["cutoff_sensitivity"]
        assert block["width_um"] == 10.0
        sol = solve_cross_section(
            interdigital_unit_cell(10.0, 7, discretization=64)
        )
        direct = cutoff_sensitivity(sol, DEFAULT_SM_SPEC)
        for entry, (c, p) in zip(block["values"], direct):
            assert entry["cutoff_um"] == c
            assert entry["p_sm"] == pytest.approx(p, rel=1e-9)

    def test_failed_sweep_solve_still_writes_report(self, tmp_path,
                                                    monkeypatch):
        import qsurfloss.participation as participation_module

        def failing(geom, *args, **kwargs):
            raise NumericalFailureError("synthetic failure")

        monkeypatch.setattr(participation_module, "solve_cross_section", failing)
        out = tmp_path / "out"
        config = PipelineConfig(
            models=(),
            output_dir=str(out),
            sweep=SweepConfig(width_min_um=2.0, width_max_um=4.0, points=2,
                              elements_per_strip=64),
        )
        report = run_pipeline(config)
        assert report["status"] == "partial"
        assert report["errors"] == [
            {"stage": "sweep", "error": "failed at width 2, 4 um"},
            {"stage": "sweep.cutoff_sensitivity", "error": "synthetic failure"},
        ]
        assert all(p["error"] == "synthetic failure"
                   for p in report["sweep"]["points"])
        assert "cutoff_sensitivity" not in report["sweep"]
        assert report["outputs"][0] == {"path": "psm_width_sweep.csv",
                                        "kind": "psm_width_sweep",
                                        "status": "partial"}
        written = json.loads((out / "report.json").read_text())
        assert written["status"] == "partial"

    def test_writer_failure_is_a_stage_error(self, tmp_path):
        """A clamped tan_d_sm makes the normalized-participation writer fail;
        the run still writes report.json and lists no half-written file."""
        table = tmp_path / "devices.csv"
        make_rising_q_table(table)
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(
            dataset=str(table), models=("sm+j",), grouping="per_device",
            output_dir=str(out),
        ))
        assert report["fits"]["sm+j"]["parameters"]["tan_d_sm"] == 0.0
        assert report["status"] == "partial"
        assert report["errors"] == [{"stage": "write[q_vs_normalized_pr]",
                                     "error": "tan_d_sm must be > 0 to normalize"}]
        listed = {entry["path"] for entry in report["outputs"]}
        assert listed == {"q_vs_psm.csv", "q_model_surface.csv", "report.json"}
        assert {p.name for p in out.iterdir()} == listed

    def test_degenerate_fit_marks_report_partial(self, tmp_path):
        table = tmp_path / "devices.csv"
        make_degenerate_table(table)
        config = PipelineConfig(
            dataset=str(table),
            models=("sm+q0",),
            output_dir=str(tmp_path / "out"),
        )
        report = run_pipeline(config)
        assert report["status"] == "partial"
        assert report["errors"][0]["stage"] == "fit[sm+q0]"

    def test_config_from_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "models": ["sm+j"],
            "weighting": "none",
            "grouping": "per_device",
            "output_dir": str(tmp_path / "out"),
        }))
        config = PipelineConfig.from_json(cfg_path)
        assert config.models == ("sm+j",)
        report = run_pipeline(config)
        assert report["n_fit_points"] == 32

    def test_bad_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"models": ["sm+cubic"]}))
        with pytest.raises(ValueError):
            PipelineConfig.from_json(cfg_path)

    @pytest.mark.parametrize("kwargs, message", [
        ({"models": ("sm+cubic",)}, "unknown LossModel 'sm+cubic'"),
        ({"weighting": "uniform"}, "unknown Weighting 'uniform'"),
    ])
    def test_unknown_enum_value_is_invalid_input(self, tmp_path, kwargs, message):
        out = tmp_path / "out"
        with pytest.raises(InvalidInputError) as info:
            run_pipeline(PipelineConfig(output_dir=str(out), **kwargs))
        assert str(info.value) == message
        assert not out.exists()

    def test_failed_sweep_point_fails_the_run(self, tmp_path):
        """A 300 nm layer breaks the thin-layer bound only at 0.5 um."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": [],
            "output_dir": str(out),
            "sweep": {"width_min_um": 0.5, "width_max_um": 20.0, "points": 4,
                      "t_sm_nm": 300.0, "elements_per_strip": 64},
        }))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["errors"] == [{"stage": "sweep",
                                     "error": "failed at width 0.5 um"}]
        errors = [p["error"] is not None for p in report["sweep"]["points"]]
        assert errors == [True, False, False, False]
        assert "cutoff_sensitivity" in report["sweep"]

    def test_one_row_table_fails_every_fit(self, tmp_path):
        """Too few points is an input error of the fit, not of the run: each
        model becomes a fit stage error and report.json is still written."""
        table = tmp_path / "devices.csv"
        make_rising_q_table(table, n_rows=1)
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "dataset": str(table), "models": ["sm+j", "sm+q0"],
            "output_dir": str(out),
        }))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["fits"] == {}
        message = "need at least 2 points for a 2-parameter fit"
        assert report["errors"] == [{"stage": "fit[sm+j]", "error": message},
                                    {"stage": "fit[sm+q0]", "error": message}]
        assert {p.name for p in out.iterdir()} == {"report.json"}

    def test_invvar_without_spread_fails_the_fit(self, tmp_path):
        """Per device, the ten bundled D8/D9 devices publish no q_std, so an
        inverse-variance fit has no weight for them."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": ["sm+j"], "grouping": "per_device", "output_dir": str(out),
        }))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["n_fit_points"] == 32
        assert report["fits"] == {}
        assert report["errors"] == [{
            "stage": "fit[sm+j]",
            "error": "inverse-variance weighting needs a q_std > 0 on every "
                     "point; 10 of 32 have none ('D8-1', 'D8-2', 'D8-3', ...); "
                     "use weighting 'none'",
        }]


def _run_report(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return CliRunner().invoke(main, ["report", "--config", str(cfg)])


def _assert_one_line_error(result, match):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert match in lines[0]


class TestConfigErrors:
    def test_malformed_json(self, tmp_path):
        result = _run_report(tmp_path, '{"models": ["sm+j",]')
        _assert_one_line_error(result, "Expecting value")

    def test_unknown_sweep_key(self, tmp_path):
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"),
            "sweep": {"width_min_um": 1.0, "pionts": 3},
        }))
        _assert_one_line_error(result, "unexpected keyword argument 'pionts'")

    def test_unknown_top_level_key(self, tmp_path):
        result = _run_report(tmp_path, json.dumps({
            "modles": ["sm+j"],
            "output_dir": str(tmp_path / "out"),
        }))
        _assert_one_line_error(result, "unexpected keyword argument 'modles'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"points": "3"}, "sweep points must be an integer, got '3'"),
        ({"points": 3.0}, "sweep points must be an integer, got 3.0"),
        ({"n_fingers": True}, "sweep n_fingers must be an integer, got True"),
        ({"elements_per_strip": [64]}, "sweep elements_per_strip must be an integer"),
        ({"width_min_um": "1"}, "sweep width_min_um must be a number, got '1'"),
        ({"t_sm_nm": False}, "sweep t_sm_nm must be a number, got False"),
        ({"cutoff_um": "0.1"}, "sweep cutoff_um must be a number, got '0.1'"),
    ])
    def test_wrongly_typed_sweep_field(self, tmp_path, sweep, message):
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"), "sweep": sweep,
        }))
        _assert_one_line_error(result, "bad config")
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_typed_sweep_fields_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "width_min_um": 1, "width_max_um": 2.5, "points": 2,
            "cutoff_um": None, "elements_per_strip": 64,
        }}))
        assert PipelineConfig.from_json(cfg).sweep.widths() == [1.0, 2.5]


class TestCli:
    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(qsurfloss.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        probe = ("import sys, qsurfloss.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_fit_loss_bundled(self):
        runner = CliRunner()
        result = runner.invoke(main, ["fit-loss", "--model", "sm+j"])
        assert result.exit_code == 0, result.output
        assert "tan_d_sm" in result.output
        assert "24 points" in result.output

    def test_fit_loss_report_file(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "fit.json"
        result = runner.invoke(
            main, ["fit-loss", "--model", "sm+q0", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["model"] == "sm+q0"
        assert payload["grouping"] == "per_die_design"

    def test_fit_loss_per_device_needs_weights_none(self):
        result = CliRunner().invoke(main, ["fit-loss", "--group", "per-device"])
        _assert_one_line_error(result, "10 of 32 have none")
        result = CliRunner().invoke(
            main, ["fit-loss", "--group", "per-device", "--weights", "none"])
        assert result.exit_code == 0, result.output
        assert "on 32 points (per-device, weights=none)" in result.output

    def test_fit_loss_sm_only(self):
        result = CliRunner().invoke(
            main, ["fit-loss", "--model", "sm", "--weights", "none"])
        assert result.exit_code == 0, result.output
        assert "model sm on 24 points" in result.output
        assert "tan_d_sm" in result.output

    def test_fit_loss_degenerate_exits_nonzero(self, tmp_path):
        table = tmp_path / "devices.csv"
        make_degenerate_table(table)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["fit-loss", "--input", str(table), "--model", "sm+q0",
             "--group", "per-device"],
        )
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_purcell_from_chi(self):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["purcell", "--chi", "0.685", "--delta", "2.03", "--kappa", "52.4"],
        )
        assert result.exit_code == 0, result.output
        assert "g = 37.29 MHz" in result.output
        assert "T_Purcell = 9.00" in result.output

    def test_fit_t1_on_trace(self, tmp_path):
        t = np.linspace(0.0, 900.0, 40)
        y = 0.95 * np.exp(-t / 316.8) + 0.02
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "delay_us,population\n"
            + "\n".join(f"{a:.6f},{b:.8f}" for a, b in zip(t, y))
        )
        runner = CliRunner()
        out = tmp_path / "t1.json"
        result = runner.invoke(
            main, ["fit-t1", "--trace", str(trace), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "T1 = 316.8 us" in result.output
        assert json.loads(out.read_text())["t1_us"] == pytest.approx(316.8, rel=1e-6)

    def test_sweep_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep", "--width-min", "2", "--width-max", "6", "--points", "3",
             "--elements", "64", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_sweep_command_reaches_the_cell_width_range(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--width-min", "0.3", "--width-max", "2",
                   "--points", "4", "--elements", "64", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "(4 widths, 0 failed)" in result.output

    def test_sweep_command_rejects_zero_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--points", "0", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "bad sweep range" in result.output
        assert not out.exists()

    def test_report_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "models": ["sm+j", "sm+q0"],
            "output_dir": str(tmp_path / "out"),
        }))
        runner = CliRunner()
        result = runner.invoke(main, ["report", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "report.json").exists()
