"""The command-line experiment runner."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import _parse_partition, build_parser, main


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

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "figure2", "figure3", "table1", "demo", "scrub", "placement",
            "campaign", "serve",
        ):
            assert command in help_text
        assert "pipeline" not in help_text
        with pytest.raises(SystemExit):
            main(["pipeline"])

    def test_default_run_writes_no_artifact(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "--seeds", "1", "--duration", "100",
                     "--ops", "3"]) == 0
        assert not (tmp_path / "benchmarks").exists()

    def test_json_is_written_where_asked(self, capsys, tmp_path):
        path = tmp_path / "nested" / "campaign.json"
        assert main(["campaign", "--seeds", "1", "--duration", "100",
                     "--ops", "3", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "campaign" and payload["ok"] is True
        assert f"written to {path}" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_campaign_refuses_an_empty_sweep(self, capsys, seeds):
        # No seed run means nothing checked: not a pass.
        with pytest.raises(SystemExit, match="--seeds") as exit_info:
            main(["campaign", "--seeds", seeds])
        assert exit_info.value.code != 0
        assert "no invariant violations" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, complaint", [
    (["serve", "--clients", "0", "--ops", "4", "--json", "r.json"],
     "clients must be >= 1"),
    (["serve", "--clients", "2", "--ops", "2", "--drop-rate", "1.5"],
     "drop must be in"),
    (["scrub", "--ops", "10", "--trials", "0", "--sample-registers", "20",
      "--out", "r.txt", "--json", "r.json"], "trials must be >= 1"),
    (["scrub", "--ops", "10", "--sample-registers", "0"],
     "registers must be >= 1"),
    (["serve", "--clients", "2", "--ops", "2", "--block-size", "0"],
     "block_size must be >= 1"),
    (["table1", "--block-size", "-4"], "block_size must be >= 1"),
    (["table1", "--m", "0"], "n >= m >= 1"),
    (["demo", "--m", "0"], "n >= m >= 1"),
    (["campaign", "--clients", "0", "--json", "r.json"],
     "clients must be >= 1"),
    (["campaign", "--ops", "0"], "ops_per_client must be >= 1"),
    (["campaign", "--registers", "0"], "registers must be >= 1"),
])
def test_bad_domain_arguments_exit_with_one_line(
    capsys, monkeypatch, tmp_path, argv, complaint
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"repro {argv[0]}: ") and complaint in err
    assert list(tmp_path.iterdir()) == []


def test_demo_refuses_f_zero_instead_of_hanging():
    """With f = 0 the demo's read after crashing brick n would wait for
    all n bricks forever; it must be refused before anything runs."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "demo", "--n", "3", "--m", "3"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("repro demo: ")


@pytest.mark.parametrize("spec", [
    "400:50:2",    # heals before it starts
    "50:50:2",     # empty window
    "10:50:",      # no pids
    "10:50:,",     # no pids, only separators
    "-5:50:2",     # starts before the run
    "10:50",       # missing field
    "a:50:2",      # not a number
    "10:50:x",     # not a pid
])
def test_partition_rejects_malformed_windows(spec):
    with pytest.raises(SystemExit, match="--partition wants"):
        _parse_partition(spec)


def test_partition_parses_a_window():
    assert _parse_partition("50:400:2,3") == (50.0, 400.0, (2, 3))
    assert _parse_partition(None) is None
