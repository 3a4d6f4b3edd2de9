"""Fleet-scale placement: groups, sharding, and hot-spare rebuild.

ROADMAP open item 1: shard registers across placement groups (each an
independent m-quorum over a subset of bricks), run a local-
reconstruction code inside each group, and close the reliability loop
with hot-spare promotion and group-local rebuild.

* :class:`~repro.placement.groups.PlacementMap` — deterministic
  brick-to-group and register-to-group assignment (balanced, seeded,
  failure-domain aware).
* :class:`~repro.placement.sharded.ShardedCluster` — one FAB cluster
  per group, a spare pool, ``promote_spare``, and ``rebuild_brick``
  whose LRC fragment path reads only the failed brick's local parity
  group.

A group is its own :class:`~repro.core.cluster.FabCluster` with its own
transport, so no protocol message crosses a group boundary: the fleet's
correctness is each group's.  ``tests/placement/test_sharded.py`` checks
that containment, and the plain campaign engine
(:mod:`repro.campaign`) checks each group's geometry.
"""

from .groups import PlacementMap
from .sharded import BrickRebuildReport, ShardedCluster, ShardedConfig

__all__ = [
    "PlacementMap",
    "ShardedCluster",
    "ShardedConfig",
    "BrickRebuildReport",
]
