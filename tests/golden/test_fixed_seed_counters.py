"""Fixed-seed counters against the checked-in golden.

This is the bit-identity gate for behaviour-preserving changes: every
case in :mod:`tests.golden.record` is re-run and compared with ``==``
against ``fixed_seed_counters.json``, which was recorded from the
commit it names.  It stands in for the runtime A-vs-B equivalence
harnesses (seed store vs copy-on-write, full-log vs journal,
per-message vs swept delivery) that needed both forks alive.
"""

import json
import re

import pytest

from tests.golden import record
from tests.golden.record import CASES, GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_names_its_source_and_covers_every_case():
    # A commit sha, marked ``-dirty`` when recorded from a tree with
    # uncommitted changes to tracked files.
    assert re.fullmatch(r"[0-9a-f]{40}(-dirty)?", GOLDEN["recorded_from"])
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("porcelain, stamp", [
    ("", "ab" * 20),
    (" M src/repro/cli.py", "ab" * 20 + "-dirty"),
])
def test_record_stamps_an_uncommitted_tree_dirty(
    monkeypatch, tmp_path, porcelain, stamp
):
    answers = {"rev-parse": "ab" * 20, "status": porcelain}
    monkeypatch.setattr(record, "_git", lambda *args: answers[args[0]])
    monkeypatch.setattr(record, "CASES", {"one": lambda: {"x": 1}})
    monkeypatch.setattr(record, "GOLDEN_PATH", tmp_path / "golden.json")
    record.main()
    payload = json.loads((tmp_path / "golden.json").read_text())
    assert payload["recorded_from"] == stamp
    assert payload["cases"] == {"one": {"x": 1}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    assert run_case(name) == GOLDEN["cases"][name]
