"""Tests for CSV export and the command-line interface."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments import SweepSeries
from repro.experiments.export import sweep_to_rows, write_sweep_csv


def make_panels():
    return [
        SweepSeries(
            region="Testville",
            x_label="TxRange",
            xs=[10.0, 20.0],
            series={"SBNN": [30.0, 60.0], "Broadcast": [70.0, 40.0]},
        )
    ]


class TestExport:
    def test_sweep_rows_flattening(self):
        rows = sweep_to_rows(make_panels())
        assert len(rows) == 4
        assert rows[0]["region"] == "Testville"
        assert {r["series"] for r in rows} == {"SBNN", "Broadcast"}

    def test_sweep_roundtrip(self, tmp_path):
        path = write_sweep_csv(make_panels(), tmp_path / "sweep.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert float(rows[0]["x"]) == 10.0
        assert any(float(r["percent"]) == 60.0 for r in rows)

    def test_empty_sweep_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            write_sweep_csv([], tmp_path / "nope.csv")


class TestCLI:
    def test_parser_rejects_unknown_figure(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "fig99"])

    def test_params_command(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "Los Angeles City" in out
        assert "Riverside County" in out
        # The full Table 3, derived densities included.
        assert out.startswith("Table 3 parameter sets\n")
        assert "E[peers@200m] | 11.3" in out

    def test_repro_error_is_one_line(self, capsys):
        assert main(["figure", "fig10", "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: error: max_workers must be >= 1, got 0\n"

    def test_lockstep_process_backend_is_one_error_line(self, capsys):
        argv = ["figure", "fig10", "--shards", "4", "--exchange", "event",
                "--shard-backend", "process"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: exchange='event'")
        assert captured.err.count("\n") == 1

    def test_query_command(self, capsys):
        code = main(
            [
                "query",
                "--region",
                "riverside",
                "--k",
                "2",
                "--scale",
                "0.02",
                "--warmup",
                "30",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "host" in out
        assert "#1" in out

    def test_figure_command_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "fig10.csv"
        code = main(
            [
                "figure",
                "fig10",
                "--scale",
                "0.015",
                "--warmup",
                "50",
                "--measure",
                "40",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert {r["region"] for r in rows} == {
            "Los Angeles City",
            "Synthetic Suburbia",
            "Riverside County",
        }
        out = capsys.readouterr().out
        assert "Transmission Range" in out

    def test_every_subcommand_answers_help(self, capsys):
        commands = next(
            action.choices
            for action in build_parser()._actions
            if action.dest == "command"
        )
        assert {"figure", "check", "serve", "load"} <= set(commands)
        for name in commands:
            with pytest.raises(SystemExit) as exit_info:
                main([name, "--help"])
            assert exit_info.value.code == 0, name
            assert name in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile"],
            ["load", "--spawn", "--baseline", "X"],
            ["load", "--spawn", "--max-regression", "0.5"],
            ["load", "--spawn", "--out-section", "serve"],
        ],
    )
    def test_retired_perf_gate_surface_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_load_spawn_prints_parseable_report(self, capsys):
        code = main(
            [
                "load",
                "--spawn",
                "--count",
                "20",
                "--lockstep",
                "--expect-clean",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["count"] == 20
        assert report["answered"] == 20
        assert report["shed"] == report["errors"] == 0
        assert "baseline" not in report
