"""CLI smoke tests (the cheap subcommands end to end)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        names = set(subparsers.choices)
        assert {"table1", "table2", "table4", "figure7", "figure8", "figure9",
                "figure10", "figure11", "ablation", "export", "all"} <= names

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure7_app_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure7", "--app", "nope"])


class TestFaultFlags:
    def test_study_and_sweep_take_fault_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "study", "--retries", "5", "--run-timeout", "30",
            "--inject-faults", "crash:0.2", "--fault-seed", "7",
            "--resume", "ck.jsonl",
        ])
        assert args.retries == 5
        assert args.run_timeout == 30.0
        assert args.inject_faults == "crash:0.2"
        assert args.fault_seed == 7
        assert args.resume == "ck.jsonl"
        args = parser.parse_args(["sweep", "--inject-faults", "timeout:0.1"])
        assert args.inject_faults == "timeout:0.1"

    def test_characterize_has_no_resume(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--resume", "x"])

    def test_sweep_under_transient_injection_exits_zero(self, capsys):
        code = main([
            "sweep", "--app", "read-benchmark",
            "--inject-faults", "crash:0.5", "--fault-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "retries" in out

    def test_sweep_quarantine_exits_nonzero_with_table(self, capsys):
        code = main([
            "sweep", "--app", "read-benchmark",
            "--inject-faults", "poison:0.3", "--fault-seed", "2",
            "--retries", "2",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "Quarantined runs" in out
        assert "poisoned" in out

    def test_malformed_fault_spec_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            main(["sweep", "--app", "read-benchmark", "--inject-faults", "crash"])


class TestExecution:
    def test_figure11(self, capsys):
        assert main(["figure11"]) == 0
        out = capsys.readouterr().out
        assert "OpenACC" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "258 GB/s" in out
        assert "PGI v14.10" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "read-benchmark" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "--app", "read-benchmark"]) == 0
        out = capsys.readouterr().out
        assert "Transfer decomposition" in out
        assert "OpenCL" in out


class TestServeCommands:
    def test_serve_and_loadtest_registered_with_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.port == 8351
        assert args.max_queue == 64
        args = parser.parse_args(["loadtest", "--spawn", "--mode", "open",
                                  "--rate", "200"])
        assert args.rate == 200.0
        # Cold requests dispatch when the engine is idle: no batch window.
        for argv in (["serve", "--window-ms", "2"],
                     ["loadtest", "--window-ms", "2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_loadtest_url_and_spawn_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--url", "http://x", "--spawn"])

    def test_help_groups_every_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for section in ("paper artifacts:", "studies & data:",
                        "performance & telemetry:"):
            assert section in out
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        # Every registered command appears in the grouped epilog.
        for name in subparsers.choices:
            assert f"\n    {name} " in out or f"    {name:<13}" in out

    def test_loadtest_end_to_end(self, capsys):
        code = main([
            "loadtest", "--spawn", "--duration", "0.3", "--concurrency", "2",
            "--model", "OpenCL", "--platform", "apu", "--precision", "single",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out and "p99" in out

    def test_loadtest_fails_when_every_answer_is_shed(self, capsys):
        """A zero-capacity queue answers only 429s: nothing was served,
        so the run must not pass."""
        code = main([
            "loadtest", "--spawn", "--max-queue", "0", "--duration", "0.3",
            "--concurrency", "2",
        ])
        out = capsys.readouterr().out
        assert "429" in out and "200" not in out.split("statuses:")[1]
        assert code == 1
