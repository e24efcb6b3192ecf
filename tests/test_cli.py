"""Tests for the command-line interface."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.cli import build_parser, main


def _project_scripts(text: str) -> dict[str, str]:
    """The ``[project.scripts]`` table of a ``pyproject.toml`` document."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the flat table as text
        scripts, inside = {}, False
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                name, _, value = line.partition("=")
                scripts[name.strip().strip('"')] = value.strip().strip('"')
        return scripts
    return tomllib.loads(text).get("project", {}).get("scripts", {})


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_experiment(self):
        args = build_parser().parse_args(["run", "E2"])
        assert args.command == "run" and args.experiment == "E2"

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E99"])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route", "--d", "2", "--g", "3"])
        assert args.family == "vector_reversal"
        assert args.backend == "konig"
        assert args.sim_backend == "reference"

    def test_route_rejects_unknown_sim_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["route", "--d", "2", "--g", "3", "--sim-backend", "quantum"]
            )

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.sim_backend == "batched"
        assert args.workers is None
        assert args.configs is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.backend == "euler-array"
        assert args.sim_backend == "batched"
        assert args.batch_window_ms == 2.0
        assert args.max_batch == 64
        assert args.max_queue == 1024
        assert args.port_file is None

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "quantum"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "vector_reversal" in output

    def test_route_command_success(self, capsys):
        assert main(["route", "--d", "4", "--g", "4", "--family", "vector_reversal"]) == 0
        output = capsys.readouterr().out
        assert "slots used       : 2" in output

    def test_route_command_euler_backend(self, capsys):
        assert main(["route", "--d", "2", "--g", "4", "--backend", "euler"]) == 0
        assert "theorem 2 bound" in capsys.readouterr().out

    def test_route_command_batched_backend(self, capsys):
        assert main(
            ["route", "--d", "4", "--g", "4", "--sim-backend", "batched"]
        ) == 0
        output = capsys.readouterr().out
        assert "simulator        : batched" in output
        assert "slots used       : 2" in output

    def test_sweep_command_serial(self, capsys):
        assert main(
            ["sweep", "--configs", "2:2,3:2", "--trials", "1", "--workers", "0"]
        ) == 0
        output = capsys.readouterr().out
        assert "worker processes" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "E2"]) == 0
        output = capsys.readouterr().out
        assert "Figure 3" in output

    def test_console_script_declared_in_pyproject(self):
        """``[project.scripts]`` maps ``pops-repro`` to ``repro.cli:main``.

        Checked in process against the source tree, so it holds from a clean
        checkout; that an installed package exposes the script is a CI step
        after ``pip install -e .``.
        """
        import importlib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = _project_scripts(pyproject.read_text(encoding="utf-8"))
        assert scripts.get("pops-repro") == "repro.cli:main"
        module, _, attr = scripts["pops-repro"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main


class TestJsonFormat:
    def test_route_json(self, capsys):
        assert main(
            ["route", "--d", "4", "--g", "4", "--sim-backend", "batched",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == {"d": 4, "g": 4, "n": 16}
        assert payload["family"] == "vector_reversal"
        assert payload["config"]["sim_backend"] == "batched"
        assert payload["metrics"]["slots"] == 2
        assert payload["metrics"]["meets_theorem2_bound"] is True

    def test_route_json_encodes_infinite_ratio_as_null(self, capsys):
        # The identity permutation has no applicable lower bound (deterministic
        # 0), so the ratio is infinite and must encode as JSON null.
        assert main(
            ["route", "--d", "2", "--g", "2", "--family", "identity",
             "--format", "json"]
        ) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["lower_bound"] == 0
        assert payload["metrics"]["optimality_ratio"] is None

    def test_sweep_json(self, capsys):
        assert main(
            ["sweep", "--configs", "2:2,3:2", "--trials", "1", "--workers", "0",
             "--cache-stats", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "E1p"
        assert payload["headers"][0] == "d"
        assert payload["rows"][0][:2] == [2, 2]
        assert payload["all_pass"] is True
        assert "schedule cache" in payload["notes"]

    def test_sweep_json_matches_text_rows(self, capsys):
        args = ["sweep", "--configs", "2:2", "--trials", "1", "--workers", "0"]
        assert main(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        text = capsys.readouterr().out
        assert f"| {payload['rows'][0][0]} " in text  # same d column rendered

    def test_run_json(self, capsys):
        assert main(["run", "E2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "E2"
        assert payload["all_pass"] is True

    def test_cache_stats_json(self, tmp_path, capsys):
        # Machine-readable store statistics (ISSUE 8 satellite): warm a tiny
        # store, then `cache stats --format json` must emit one JSON document
        # with the full counter set.
        store = str(tmp_path / "plans")
        assert main(
            ["cache", "warm", "--plan-store", store, "--configs", "2:2",
             "--trials", "1", "--workers", "0", "--format", "json"]
        ) == 0
        warm_payload = json.loads(capsys.readouterr().out)
        assert warm_payload["written"] >= 1
        assert main(["cache", "stats", "--plan-store", store, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("path", "entries", "total_bytes", "disk_hits",
                    "disk_misses", "writes", "quarantined"):
            assert key in payload, key
        assert payload["entries"] == warm_payload["entries"] >= 1
        assert payload["writes"] >= 1


class TestCliUsesOnlyTheSessionLayer:
    def test_cli_commands_emit_no_deprecation_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["run", "E2"]) == 0
            assert main(["route", "--d", "2", "--g", "2"]) == 0
            assert main(
                ["sweep", "--configs", "2:2", "--trials", "1", "--workers", "0"]
            ) == 0
            assert main(["list"]) == 0
        capsys.readouterr()
