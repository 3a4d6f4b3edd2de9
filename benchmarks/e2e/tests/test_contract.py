"""``BENCHMARK.json`` says what the harness does, within the contract."""

import json
import pathlib
import re

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import GATED, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * 21 <= 3420  # a run is ~10-14 s here; see the README


def test_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == GATED
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 2 <= len(SPEC["workloads"]) <= 8


def test_metrics_match_the_harness():
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    setup = SPEC["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == (
        "setup_s", "s", "lower"
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
