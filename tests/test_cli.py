"""The command-line experiment runner."""

import json

import pytest

from repro.cli import _parse_partition, build_parser, main


class TestCli:
    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "EC(5,8)/R0" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "replication/R0" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "read-stripe/fast" in out

    def test_scrub(self, capsys):
        # The verdict holds only if every corrupting run ends repaired.
        assert main(["scrub", "--ops", "40"]) == 0
        out = capsys.readouterr().out
        assert "client reads returning wrong data across all runs: 0" in out

    def test_scrub_json_reports_runs_only(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["scrub", "--ops", "40", "--json", "r.json"]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert "sampling" not in payload
        assert payload["runs"]
        for run in payload["runs"]:
            assert run["clean_after"] and run["read_mismatches"] == 0

    def test_scrub_refuses_the_trials_flag(self, capsys):
        # The sampling sweep it sized is gone; argparse rejects it.
        with pytest.raises(SystemExit) as exit_info:
            main(["scrub", "--ops", "10", "--trials", "8"])
        assert exit_info.value.code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("min_ratio, code, verdict", [
        ("1.5", 0, "OK"), ("100", 1, "FAIL"),
    ])
    def test_placement_min_ratio_sets_the_verdict(
        self, capsys, min_ratio, code, verdict
    ):
        assert main(["placement", "--min-ratio", min_ratio]) == code
        assert capsys.readouterr().out.rstrip().endswith(verdict)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        assert "{figure2,figure3,table1,scrub,placement,campaign,serve}" \
            in help_text
        for gone in ("pipeline", "demo"):
            assert gone not in help_text
            with pytest.raises(SystemExit):
                main([gone])

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
    (["scrub", "--ops", "10", "--corrupt-rate", "-0.1",
      "--out", "r.txt", "--json", "r.json"], "corrupt rate must be in"),
    (["campaign", "--ops", "0"], "ops_per_client must be >= 1"),
    (["serve", "--clients", "2", "--ops", "0"],
     "ops per client must be >= 1"),
    (["serve", "--clients", "2", "--ops", "2", "--duplicate-rate", "1.5",
      "--json", "r.json"], "duplicate must be in"),
    (["serve", "--clients", "2", "--ops", "2", "--corrupt-rate", "1"],
     "corrupt must be in"),
    (["serve", "--clients", "2", "--ops", "2", "--corrupt-rate", "-0.1"],
     "corrupt must be in"),
    (["scrub", "--ops", "0"], "ops must be >= 1"),
    (["scrub", "--ops", "10", "--corrupt-rate", "1.5"],
     "corrupt rate must be in"),
    (["campaign", "--corrupt-weight", "-1"], "corrupt_weight must be >= 0"),
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


def test_only_the_flags_given_reach_the_entry_point(monkeypatch, capsys):
    """An unset flag is not passed on, so the entry point's own default
    applies; each flag's dest is the parameter it sets."""
    import repro.analysis.serve as serve

    seen = {}
    run_serve = serve.run_serve

    def fake_run_serve(**kwargs):
        seen.update(kwargs)
        return run_serve(clients=2, ops_per_client=2)

    monkeypatch.setattr(serve, "run_serve", fake_run_serve)
    assert main(["serve", "--ops", "2", "--chaos-seed", "5"]) == 0
    assert seen == {"ops_per_client": 2, "chaos_seed": 5}
    assert "failed sessions: 0" in capsys.readouterr().out


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
