"""Compare two ``--json`` artifacts: ``python -m benchmarks.e2e.compare A B``.

Per workload and end-to-end metric it prints both medians, the ratio
B/A with its base, the metric's bound, and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — A's own interquartile spread exceeds the bound, so
  the run cannot tell a regression of that size from noise.

Where both artifacts hold a traced pass, the exact (†) counters of the
sim workloads and the campaign must be identical.  Exit status is 1 if
anything is worse, unresolved or differing.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from .metrics import END_TO_END, PER_LAYER, REPORTED, is_worse

__all__ = ["compare", "verdict", "main"]


def verdict(metric, base: Dict[str, float], new: Dict[str, float]) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    if base["median"] and metric.bound is not None:
        spread = (base["q3"] - base["q1"]) / abs(base["median"])
        if spread > metric.bound:
            return "unresolved"
    return "worse" if is_worse(metric, base["median"], new["median"]) else "ok"


def compare(base: Dict, new: Dict) -> List[tuple]:
    """Rows ``(workload, metric, base median, new median, bound, verdict)``.

    The metric is ``"exact counters"`` for the traced comparison, with
    the number of differing counters in place of the medians.
    """
    rows = []
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name, {})
        if "untraced" in entry and "untraced" in other:
            for metric in END_TO_END + REPORTED:
                a = entry["untraced"]["e2e"].get(metric.name)
                b = other["untraced"]["e2e"].get(metric.name)
                if a is None or b is None:
                    continue
                rows.append((
                    name, metric.name, a["median"], b["median"],
                    metric.bound, verdict(metric, a, b),
                ))
        if ("traced" in entry and "traced" in other
                and entry["traced"]["exact_counters"]):
            a, b = entry["traced"]["layers"], other["traced"]["layers"]
            differing = [
                metric.name for metric in PER_LAYER
                if metric.exact and a[metric.name] != b[metric.name]
            ]
            rows.append((
                name, "exact counters", len(differing), len(differing),
                None, "differ: " + ",".join(differing) if differing else "ok",
            ))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = argv if argv is not None else sys.argv[1:]
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in paths)
    for label, artifact in zip("AB", (base, new)):
        meta = artifact["meta"]
        print(f"{label}: commit {meta['commit'][:12]}"
              f"{' (dirty)' if meta['dirty'] else ''}  host {meta['host']}  "
              f"nproc {meta['nproc']}  seed {meta['seed']}  {meta['time']}")
    status = 0
    for name, metric, a, b, bound, result in compare(base, new):
        if metric == "exact counters":
            print(f"{name:<18}{metric:<16} {result}")
        else:
            ratio = f"{b / a:.3f}x of {a:.4g}" if a else "n/a"
            print(f"{name:<18}{metric:<16} A {a:>11.4f}  B {b:>11.4f}  "
                  f"{ratio:<22} bound {bound:<5} {result}")
        status |= result != "ok"
    return status


if __name__ == "__main__":
    sys.exit(main())
