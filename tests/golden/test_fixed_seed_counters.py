"""Fixed-seed counters against the checked-in golden.

This is the bit-identity gate for behaviour-preserving changes: every
case in :mod:`tests.golden.record` is re-run and compared with ``==``
against ``fixed_seed_counters.json``, which was recorded from the
commit it names.  It stands in for the runtime A-vs-B equivalence
harnesses (seed store vs copy-on-write, full-log vs journal,
per-message vs swept delivery) that needed both forks alive.
"""

import json

import pytest

from tests.golden.record import CASES, GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_names_its_source_and_covers_every_case():
    assert len(GOLDEN["recorded_from"]) == 40
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    assert run_case(name) == GOLDEN["cases"][name]
