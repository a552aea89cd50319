"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig4", "table1", "jct"):
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_fig4_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.beta == 4.0
        assert args.time_scale == 0.2

    def test_fig7_options(self):
        args = build_parser().parse_args(
            ["fig7", "--beta", "5", "--threshold", "15"]
        )
        assert args.beta == 5.0
        assert args.marking_threshold == 15

    def test_table1_patterns(self):
        args = build_parser().parse_args(
            ["table1", "--patterns", "permutation"]
        )
        assert args.patterns == ["permutation"]

    def test_telemetry_flag_on_every_experiment(self):
        args = build_parser().parse_args(["table1", "--telemetry", "t/"])
        assert args.telemetry == "t/"
        assert build_parser().parse_args(["fig1"]).telemetry is None

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "fattree"])
        assert args.experiment == "fattree"
        # Not given: the kind's own config default (xmp) applies.
        assert args.scheme is None
        assert args.top == 12
        assert args.telemetry == "telemetry"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "table1"])


class TestExecution:
    """Each runner executes end-to-end at a tiny scale."""

    def test_fig1(self, capsys):
        assert main(["fig1", "--interval", "0.1", "--scheme", "bos"]) == 0
        out = capsys.readouterr().out
        assert "Jain" in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--time-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "subflow 1" in out

    def test_fig6(self, capsys):
        assert main(["fig6", "--time-scale", "0.05"]) == 0
        assert "Jain index" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7", "--time-scale", "0.01"]) == 0
        assert "flow3-1" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main([
            "table1", "--duration", "0.05", "--patterns", "permutation",
        ]) == 0
        assert "XMP-2" in capsys.readouterr().out

    def test_jct(self, capsys):
        assert main(["jct", "--duration", "0.2"]) == 0
        assert "Job Completion Time" in capsys.readouterr().out

    def test_rtt(self, capsys):
        assert main(["rtt", "--duration", "0.05"]) == 0
        assert "RTT by category" in capsys.readouterr().out

    def test_utilization(self, capsys):
        assert main(["utilization", "--duration", "0.05"]) == 0
        assert "utilization by layer" in capsys.readouterr().out

    def test_profile(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out_dir = tmp_path / "telem"
        assert main([
            "profile", "fattree", "--duration", "0.02",
            "--telemetry", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "profile: fattree/XMP-2/permutation" in out
        assert "events" in out and "heap:" in out
        assert "x real time" in out
        lines = (out_dir / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "fattree"
        assert record["profile"]["hotspots"]

    def test_profile_applies_flags_to_any_kind(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert main([
            "profile", "workload", "--duration", "0.004", "--scheme", "dctcp",
            "--subflows", "1", "--telemetry", str(tmp_path / "telem"),
        ]) == 0
        out = capsys.readouterr().out
        assert "profile: workload/DCTCP/" in out
        assert "for 0.004s simulated" in out

    def test_experiment_with_telemetry(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        # --telemetry exports $REPRO_TELEMETRY (like --validate's
        # $REPRO_VALIDATE); setenv first so teardown restores this state.
        monkeypatch.setenv("REPRO_TELEMETRY", "")
        out_dir = tmp_path / "telem"
        assert main([
            "fig4", "--time-scale", "0.02", "--no-cache",
            "--telemetry", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "[telemetry] appended to" in out
        [record] = [json.loads(line) for line in
                    (out_dir / "runs.jsonl").read_text().splitlines()]
        assert record["kind"] == "fig4"
        assert record["profile"] is not None


def _tiny_runs():
    """name -> (base config, axes): every row shrunk to about a second."""
    from repro.experiments.fattree_eval import FatTreeScenario
    from repro.experiments.fig1_convergence import Fig1Config
    from repro.experiments.fig4_traffic_shifting import Fig4Config
    from repro.experiments.fig6_fairness import Fig6Config
    from repro.experiments.fig7_rate_compensation import Fig7Config
    from repro.experiments.workload_matrix import (
        IncastSweepScenario,
        WorkloadScenario,
    )
    from repro.fluid.backend import FluidScenario

    fattree = FatTreeScenario(duration=0.01)
    one = {"schemes": (("xmp", 2),)}
    return {
        "fig1": (Fig1Config(interval=0.01), {}),
        "fig4": (Fig4Config(time_scale=0.005), {}),
        "fig6": (Fig6Config(time_scale=0.005), {}),
        "fig7": (Fig7Config(time_scale=0.002), {}),
        "table1": (fattree, {**one, "patterns": ("permutation",)}),
        "table2": (fattree, {"schemes": (("dctcp", 1),), "queue_sizes": (100,)}),
        "fig8": (fattree, one),
        "jct": (fattree, one),
        "rtt": (fattree, one),
        "utilization": (fattree, one),
        "workload": (WorkloadScenario(duration=0.004), {**one, "loads": (0.3,)}),
        "incast": (IncastSweepScenario(duration=0.004), {**one, "fan_ins": (2,)}),
        "fluid": (FluidScenario(duration=0.005), {}),
    }


class TestExperimentTable:
    """Every row of repro.experiments.catalog conforms to the one contract."""

    def rows(self):
        from repro.experiments.catalog import EXPERIMENTS

        return EXPERIMENTS

    def test_every_row_has_a_tiny_run(self):
        assert set(_tiny_runs()) == set(self.rows())

    def test_help_parses(self, capsys):
        for name in self.rows():
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([name, "--help"])
            assert exit_info.value.code == 0
            assert name in capsys.readouterr().out

    def test_flag_dests_are_config_fields_or_cells_keywords(self):
        import dataclasses
        import inspect

        from repro.experiments.catalog import dest_of

        for name, row in self.rows().items():
            fields = {field.name for field in dataclasses.fields(row.config)}
            axes = set(inspect.signature(row.cells).parameters)
            for flag in row.flags:
                assert dest_of(flag) in fields | axes, (name, flag[0])
            args = build_parser().parse_args([name])
            base, given_axes = row.parse(vars(args))
            assert isinstance(base, row.config)
            assert set(given_axes) <= axes

    def test_list_counts_are_the_default_grids(self, capsys):
        assert main(["list"]) == 0
        listed = {
            line.split()[0]: int(line.split()[1])
            for line in capsys.readouterr().out.splitlines()[1:]
        }
        for name, row in self.rows().items():
            assert listed[name] == len(row.grid(row.config())), name

    def test_every_view_formats(self):
        from repro.experiments.catalog import run

        for name, (base, axes) in _tiny_runs().items():
            text = run(name, base, **axes).format()
            assert isinstance(text, str) and text, name


class TestInputValidation:
    """Bad values exit 2 with a usage line instead of dying inside a cell."""

    @pytest.mark.parametrize("argv", [
        ["rtt", "--pattern", "bogus"],
        ["table1", "--patterns", "bogus"],
        ["workload", "--schemes", "bogus-2"],
    ], ids=["pattern", "patterns", "scheme"])
    def test_bogus_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, complaint", [
        (["workload", "--schemes", "xmp-0"], "xmp-0"),
        (["fluid", "--subflows", "0"], "at least one subflow"),
        (["fluid", "--flows", "0"], "at least one flow"),
        (["fluid", "--scheme", "olia"], "invalid choice"),
        (["profile", "workload", "--pattern", "random"], "--pattern"),
        (["profile", "fig4", "--duration", "0.01"], "--duration"),
        (["fluid", "--duration", "0"], "must be positive"),
        (["fluid", "--topology", "fattree", "--k", "3"], "got 3"),
        (["fluid", "--beta", "0"], "beta must be >= 2"),
    ], ids=["zero-subflows-spec", "fluid-subflows", "fluid-flows",
            "fluid-scheme", "profile-pattern", "profile-duration",
            "fluid-duration", "fluid-odd-k", "fluid-beta"])
    def test_bad_value_fails_at_parse_time_not_inside_a_cell(
        self, argv, complaint, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert complaint in err.splitlines()[-1]
        assert "Traceback" not in err


class TestEnvironment:
    def test_validate_and_telemetry_leave_environ_untouched(self, capsys, tmp_path):
        import os

        before = dict(os.environ)
        assert main([
            "fig4", "--time-scale", "0.01", "--validate",
            "--telemetry", str(tmp_path / "telem"),
        ]) == 0
        out = capsys.readouterr().out
        assert "[validate] 1 cells passed" in out
        assert (tmp_path / "telem" / "runs.jsonl").exists()
        assert dict(os.environ) == before
