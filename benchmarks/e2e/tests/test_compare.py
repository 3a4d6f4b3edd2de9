"""The compare tool's three verdicts."""

from benchmarks.e2e.compare import compare, verdict
from benchmarks.e2e.metrics import END_TO_END

OPS = next(metric for metric in END_TO_END if metric.name == "ops_per_s")


def row(median, q1=None, q3=None):
    return {"median": median, "q1": q1 or median, "q3": q3 or median}


def test_verdicts():
    assert verdict(OPS, row(100, 98, 102), row(80)) == "ok"
    assert verdict(OPS, row(100, 98, 102), row(70)) == "worse"
    # A's own quartiles are 30% apart: a 25% bound cannot be resolved.
    assert verdict(OPS, row(100, 85, 115), row(70)) == "unresolved"


def test_compare_walks_shared_workloads_and_exact_counters():
    def artifact(ops, phases):
        return {"workloads": {"sim-small-rw": {
            "untraced": {"e2e": {"ops_per_s": row(ops)}},
            "traced": {"exact_counters": True, "layers": {
                **{m: 0.0 for m in _exact_names()},
                "core.coordinator.phases_per_op": phases,
            }},
        }}}

    rows = compare(artifact(100, 1.5), artifact(70, 1.5))
    assert ("sim-small-rw", "ops_per_s", 100, 70, OPS.bound, "worse") in rows
    assert rows[-1][1] == "exact counters" and rows[-1][-1] == "ok"
    rows = compare(artifact(100, 1.5), artifact(100, 1.75))
    assert rows[-1][-1] == "differ: core.coordinator.phases_per_op"


def _exact_names():
    from benchmarks.e2e.metrics import PER_LAYER

    return [metric.name for metric in PER_LAYER if metric.exact]
