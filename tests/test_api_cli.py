"""The ``python -m repro`` CLI: parsing, timing runs, report round trip."""

import pytest

from repro.api import TimingReport, TimingSession
from repro.api.cli import build_parser, main


class TestParser:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "usage" in capsys.readouterr().err

    def test_help_mentions_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("time", "characterize", "report", "serve"):
            assert command in out

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--case", "chain3", "--case", "bench",
             "--nets", "32", "--clock", "900"])
        assert args.port == 0 and args.socket is None
        assert args.case == ["chain3", "bench"]
        assert args.clock == 900.0
        assert not hasattr(args, "jobs")  # timing never fans out

    def test_serve_port_and_socket_conflict(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "1", "--socket", "/tmp/s"])
        assert "not allowed" in capsys.readouterr().err

    def test_serve_hold_margin_requires_clock(self, capsys):
        assert main(["serve", "--hold-margin", "30"]) == 2
        assert "--clock" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro.api import cli

        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_time", interrupt)
        assert main(["time", "--case", "chain3"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_characterize_flags_parse(self):
        args = build_parser().parse_args(
            ["characterize", "--sizes", "30", "60", "--coarse", "--jobs", "2",
             "--no-cache", "--output", "cells"])
        assert args.sizes == [30.0, 60.0]
        assert args.coarse and args.no_cache
        assert args.jobs == 2

    def test_bad_chain_reports_error(self, capsys):
        assert main(["time", "--chain", "75,abc"]) == 2
        assert "driver sizes" in capsys.readouterr().err


class TestTimeCommand:
    def test_diamond_run_writes_loadable_report(self, library, tmp_path,
                                                capsys):
        out = tmp_path / "diamond.json"
        assert main(["time", "--case", "diamond", "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "critical path" in stdout
        report = TimingReport.load(out)
        assert report.kind == "graph"
        assert set(report.events["sink"]) == {"rise", "fall"}

    def test_soc_case_times_through_the_registry(self, library, capsys):
        assert main(["time", "--case", "soc", "--nets", "250"]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_chain3_stays_a_path(self, library, tmp_path):
        out = tmp_path / "chain3.json"
        assert main(["time", "--case", "chain3", "--json", str(out)]) == 0
        assert TimingReport.load(out).kind == "path"

    def test_custom_chain(self, library, capsys):
        assert main(["time", "--chain", "75,100"]) == 0
        stdout = capsys.readouterr().out
        assert "chain_s0" in stdout and "chain_s1" in stdout

    def test_report_command_round_trips(self, library, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["time", "--case", "diamond", "--json", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--events"]) == 0
        stdout = capsys.readouterr().out
        assert "all events" in stdout
        assert "produced by repro" in stdout

    def test_slack_requires_clock(self, capsys):
        assert main(["time", "--case", "diamond", "--slack"]) == 2
        assert "--clock" in capsys.readouterr().err

    def test_clock_enables_slack_table(self, library, tmp_path, capsys):
        out = tmp_path / "slack.json"
        assert main(["time", "--case", "diamond", "--clock", "900", "--slack",
                     "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "endpoint slacks" in stdout
        assert "WNS" in stdout
        report = TimingReport.load(out)
        assert report.wns == 0.0  # 900 ps is comfortably met
        assert report.worst_slack_event().net == "sink"

    def test_hold_requires_clock(self, capsys):
        assert main(["time", "--case", "diamond", "--hold"]) == 2
        assert "--clock" in capsys.readouterr().err
        assert main(["time", "--case", "diamond", "--hold-margin", "30"]) == 2
        assert "--clock" in capsys.readouterr().err

    def test_hold_flag_enables_hold_table(self, library, tmp_path, capsys):
        out = tmp_path / "hold.json"
        assert main(["time", "--case", "diamond", "--clock", "900",
                     "--hold-margin", "120", "--hold", "--slack",
                     "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "endpoint hold slacks" in stdout
        assert "WHS" in stdout and "WNS" in stdout
        report = TimingReport.load(out)
        assert report.hold_constrained
        assert report.worst_slack_event(mode="hold").hold_required is not None
        # --hold alone implies a zero margin: the race check is still seeded.
        assert main(["time", "--case", "diamond", "--clock", "900",
                     "--hold"]) == 0
        assert "WHS" in capsys.readouterr().out

    def test_report_hold_flag_reads_saved_reports(self, library, tmp_path,
                                                  capsys):
        out = tmp_path / "hold.json"
        assert main(["time", "--case", "diamond", "--clock", "900",
                     "--hold-margin", "120", "--json", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--hold"]) == 0
        assert "endpoint hold slacks" in capsys.readouterr().out

    def test_clock_keeps_the_design_name(self, library, tmp_path):
        # Materializing a builder/path into a constrained graph must not
        # relabel the report: diffs key on the design field.
        out = tmp_path / "named.json"
        assert main(["time", "--chain", "75,100", "--clock", "900",
                     "--json", str(out)]) == 0
        assert TimingReport.load(out).design == "cli_chain"
        assert main(["time", "--case", "chain3", "--clock", "900",
                     "--json", str(out)]) == 0
        assert TimingReport.load(out).design == "global_route"


class TestReportDiffCommand:
    @pytest.fixture(scope="class")
    def saved(self, library, tmp_path_factory):
        root = tmp_path_factory.mktemp("diffs")
        paths = {}
        for label, clock in (("loose", "900"), ("tight", "150"),
                             ("tighter", "140")):
            paths[label] = root / f"{label}.json"
            assert main(["time", "--case", "diamond", "--clock", clock,
                         "--json", str(paths[label])]) == 0
        return paths

    def test_diff_without_regression_exits_zero(self, saved, capsys):
        assert main(["report", "--diff", str(saved["tight"]),
                     str(saved["loose"])]) == 0
        stdout = capsys.readouterr().out
        assert "report diff" in stdout
        assert "no slack regression" in stdout

    def test_wns_regression_exits_nonzero(self, saved, capsys):
        assert main(["report", "--diff", str(saved["tight"]),
                     str(saved["tighter"])]) == 1
        assert "WNS regression" in capsys.readouterr().out

    def test_whs_regression_exits_nonzero(self, library, tmp_path_factory,
                                          capsys):
        root = tmp_path_factory.mktemp("hold_diffs")
        paths = {}
        for label, margin in (("loose", "250"), ("tight", "280")):
            paths[label] = root / f"{label}.json"
            assert main(["time", "--case", "diamond", "--clock", "900",
                         "--hold-margin", margin,
                         "--json", str(paths[label])]) == 0
        capsys.readouterr()
        assert main(["report", "--diff", str(paths["loose"]),
                     str(paths["tight"])]) == 1
        assert "WHS regression" in capsys.readouterr().out
        assert main(["report", "--diff", str(paths["tight"]),
                     str(paths["loose"])]) == 0

    def test_diff_and_path_are_exclusive(self, saved, capsys):
        assert main(["report", str(saved["loose"]), "--diff",
                     str(saved["loose"]), str(saved["tight"])]) == 2
        assert "either" in capsys.readouterr().err
        assert main(["report"]) == 2  # neither mode given
        assert "report file" in capsys.readouterr().err


class TestCharacterizeCommand:
    def test_wires_session_characterize_and_output(self, library, tmp_path,
                                                   monkeypatch, capsys):
        calls = {}

        def fake_characterize(self, size, *, grid=None, progress=None):
            calls.setdefault("sizes", []).append(size)
            calls["grid"] = grid
            return [library.get(75)]

        monkeypatch.setattr(TimingSession, "characterize", fake_characterize)
        out = tmp_path / "cells"
        assert main(["characterize", "--sizes", "30", "60", "--coarse",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output", str(out)]) == 0
        assert calls["sizes"] == [30.0, 60.0]
        assert len(calls["grid"].input_slews) == 3  # the coarse grid
        written = sorted(p.name for p in out.glob("*.json"))
        assert written == ["inv_75x.json"]  # one fake cell, saved once per size
        assert "characterizing 2 cells" in capsys.readouterr().out
