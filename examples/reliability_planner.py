#!/usr/bin/env python3
"""Reliability planning with the Figure 2 / Figure 3 models.

Answers the question the paper's Section 1.2 answers: *how should I buy
reliability?*  Prints MTTDL-versus-capacity curves for the five system
designs of Figure 2, then the overhead-versus-requirement table of
Figure 3, and finally a small planner: the cheapest configuration for a
capacity and MTTDL you choose.  It asserts the shape of each: MTTDL
never rises with capacity, erasure coding needs less overhead than
replication on the same bricks once replication needs a second copy,
and every planned configuration meets its target.

Run:  python examples/reliability_planner.py [capacity_tb] [target_years]
"""

import sys

from repro.reliability import (
    BrickParams,
    ErasureCodedSystem,
    ReplicationSystem,
    StripingSystem,
    cheapest_erasure_code,
    cheapest_replication,
)

R0 = BrickParams(internal_raid="r0")
R5 = BrickParams(internal_raid="r5")
RELIABLE = BrickParams(internal_raid="r5", reliable_array=True)


def figure2() -> None:
    print("=== Figure 2: MTTDL (years) vs logical capacity ===")
    systems = [
        ("striping / reliable R5 bricks", StripingSystem(brick=RELIABLE)),
        ("4-way replication / R0 bricks", ReplicationSystem(brick=R0, replicas=4)),
        ("4-way replication / R5 bricks", ReplicationSystem(brick=R5, replicas=4)),
        ("E.C.(5,8) / R0 bricks", ErasureCodedSystem(brick=R0, m=5, n=8)),
        ("E.C.(5,8) / R5 bricks", ErasureCodedSystem(brick=R5, m=5, n=8)),
    ]
    capacities = [1, 3, 10, 30, 100, 300, 1000]
    header = "capacity TB".ljust(32) + "".join(f"{c:>10}" for c in capacities)
    print(header)
    for name, system in systems:
        years = [system.mttdl_years(c) for c in capacities]
        print(name.ljust(32) + "".join(f"{y:>10.2e}" for y in years))
        assert all(a >= b for a, b in zip(years, years[1:])), name
    print()


def figure3(capacity_tb: float = 256.0) -> None:
    print(f"=== Figure 3: storage overhead vs required MTTDL "
          f"({capacity_tb:.0f} TB) ===")
    targets = [1e0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12]
    series = [
        ("replication / R0", lambda t: cheapest_replication(t, capacity_tb, R0)),
        ("replication / R5", lambda t: cheapest_replication(t, capacity_tb, R5)),
        ("E.C.(5,n) / R0", lambda t: cheapest_erasure_code(t, capacity_tb, R0)),
        ("E.C.(5,n) / R5", lambda t: cheapest_erasure_code(t, capacity_tb, R5)),
    ]
    print("required years".ljust(20) + "".join(f"{t:>12.0e}" for t in targets))
    overheads = {}
    for name, solver in series:
        points = [solver(target) for target in targets]
        overheads[name] = [p.overhead if p else None for p in points]
        print(name.ljust(20) + "".join(
            f"{p.overhead:>12.2f}" if p else f"{'—':>12}" for p in points
        ))
    for brick in ("R0", "R5"):
        pairs = zip(overheads[f"E.C.(5,n) / {brick}"],
                    overheads[f"replication / {brick}"])
        # Once replication needs a second copy, coding is cheaper.
        assert all(e < r for e, r in pairs if e and r and r >= 2), brick
    print()


def planner(capacity_tb: float, target_years: float) -> None:
    print(f"=== Planner: {capacity_tb:.0f} TB at >= {target_years:.0e} years ===")
    candidates = []
    for name, brick in [("R0", R0), ("R5", R5)]:
        replication = cheapest_replication(target_years, capacity_tb, brick)
        if replication:
            candidates.append((replication.overhead, replication.config, replication))
        erasure = cheapest_erasure_code(target_years, capacity_tb, brick)
        if erasure:
            candidates.append((erasure.overhead, erasure.config, erasure))
    if not candidates:
        print("no configuration meets the target")
        return
    candidates.sort()
    for overhead, config, point in candidates:
        assert point.achieved_mttdl_years >= target_years, config
        raw_tb = capacity_tb * overhead
        print(
            f"  {config:16s} overhead={overhead:.2f} "
            f"raw={raw_tb:8.1f} TB  achieves {point.achieved_mttdl_years:.2e} y"
        )
    best = candidates[0]
    print(f"cheapest: {best[1]} at overhead {best[0]:.2f}")


def main() -> None:
    capacity = float(sys.argv[1]) if len(sys.argv) > 1 else 256.0
    target = float(sys.argv[2]) if len(sys.argv) > 2 else 1e6
    figure2()
    figure3(capacity)
    planner(capacity, target)


if __name__ == "__main__":
    main()
