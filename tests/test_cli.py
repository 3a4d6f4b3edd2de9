"""The command-line experiment runner."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_figure2(self, capsys):
        assert main(["figure2", "--capacities", "1", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "EC(5,8)/R0" in out

    def test_figure3(self, capsys):
        assert main(["figure3", "--capacity", "256"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "replication/R0" in out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "4", "--m", "2", "--block-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "read-stripe/fast" in out

    def test_demo(self, capsys):
        assert main(["demo", "--n", "4", "--m", "2", "--block-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "read still matches: True" in out

    def test_scrub(self, capsys):
        assert main(["scrub", "--stripes", "3"]) == 0
        out = capsys.readouterr().out
        assert "stale after rebuild: 0" in out

    def test_pipeline(self, capsys, tmp_path):
        out_file = tmp_path / "pipeline.txt"
        assert main([
            "pipeline", "--inflights", "1", "8", "--ops", "30",
            "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "throughput vs max_inflight" in out
        assert "scripted coordinator crash" in out
        assert "throughput vs max_inflight" in out_file.read_text()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "figure2", "figure3", "table1", "demo", "scrub", "pipeline",
        ):
            assert command in help_text
