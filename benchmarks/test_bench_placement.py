"""Placement-group rebuild bench.

Sweeps placement-group counts over the same sharded topology with an
LRC and a Reed-Solomon group code, kills one data brick per point,
promotes a hot spare, rebuilds it, and asserts the headline of the
placement layer: LRC group-local repair reads at least 2x fewer
fragments *and* bytes than Reed-Solomon global repair for a single
failed brick — at every sweep point, including fleets of >= 4 groups.

Artifacts: ``benchmarks/out/placement_rebuild.txt`` (sweep report) and
``benchmarks/out/BENCH_placement.json`` (machine-readable results).
"""

import json

from repro.analysis.placement import render_report, run_placement_bench, to_json

from .conftest import OUT_DIR, write_artifact

GROUPS = (2, 4, 8)


def run_sweep():
    return run_placement_bench()


def test_bench_placement(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    write_artifact("placement_rebuild", render_report(result))
    json_path = OUT_DIR / "BENCH_placement.json"
    json_path.write_text(to_json(result) + "\n")

    assert [p.groups for p in result.points] == list(GROUPS)
    for point in result.points:
        # Every register on the failed brick repaired via the fast
        # fragment path — the protocol fallback never fired.
        assert point.lrc.local_repairs == point.lrc.registers > 0
        assert point.fragment_ratio >= 2.0
        assert point.byte_ratio >= 2.0

    payload = json.loads(json_path.read_text())
    assert payload["benchmark"] == "placement"
    assert payload["min_fragment_ratio"] >= 2.0
    assert len(payload["points"]) == len(GROUPS)
