"""Logical volumes: a virtual disk over many storage registers.

FAB presents clients with logical volumes accessed like disks
(Section 1.1).  A :class:`LogicalVolume` maps a flat array of
fixed-size logical blocks onto stripes, one storage register per
stripe.  It is only the address map: all I/O goes through
:meth:`LogicalVolume.session`, which opens a
:class:`~repro.core.session.VolumeSession` — the one client, with
pipelining, full-stripe coalescing, retry and coordinator failover.

Layout follows the paper's anti-conflict advice (Section 3): "lay out
data so that consecutive blocks in a logical volume are mapped to
different stripes".  With ``stripe_shuffle=True`` (default) logical
block ``b`` maps to stripe ``b mod num_stripes``, unit ``b //
num_stripes`` — consecutive logical blocks land on consecutive stripes.
With it off, the mapping is the naive ``b // m`` grouping, which the
conflict ablation uses as its worst case.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .cluster import FabCluster

__all__ = ["LogicalVolume"]


class LogicalVolume:
    """A virtual disk of ``num_stripes * m`` logical blocks.

    Args:
        cluster: the FAB cluster storing the volume.
        num_stripes: stripes (registers) in the volume.
        base_register_id: register-id offset, letting several volumes
            share one cluster without colliding.
        stripe_shuffle: map consecutive logical blocks to different
            stripes (reduces stripe-level conflicts).
    """

    def __init__(
        self,
        cluster: FabCluster,
        num_stripes: int,
        base_register_id: int = 0,
        stripe_shuffle: bool = True,
    ) -> None:
        if num_stripes < 1:
            raise ConfigurationError(f"num_stripes must be >= 1, got {num_stripes}")
        self.cluster = cluster
        self.num_stripes = num_stripes
        self.base_register_id = base_register_id
        self.stripe_shuffle = stripe_shuffle
        self.m = cluster.config.m
        self.block_size = cluster.config.block_size

    @property
    def num_blocks(self) -> int:
        """Total logical blocks in the volume."""
        return self.num_stripes * self.m

    @property
    def capacity_bytes(self) -> int:
        """Logical capacity in bytes."""
        return self.num_blocks * self.block_size

    def session(self, max_inflight: int = 8, **kwargs):
        """Open a pipelined :class:`~repro.core.session.VolumeSession`.

        Keyword arguments (``retry=``, ``route=``, ``seed=``) are
        forwarded to the session constructor.
        """
        from .session import VolumeSession

        return VolumeSession(self, max_inflight=max_inflight, **kwargs)

    def locate(self, logical_block: int) -> tuple:
        """Map a logical block to ``(register_id, unit_index)``.

        ``unit_index`` is the 1-based position within the stripe (the
        protocol's ``j``).
        """
        if not 0 <= logical_block < self.num_blocks:
            raise ConfigurationError(
                f"logical block {logical_block} out of range "
                f"0..{self.num_blocks - 1}"
            )
        if self.stripe_shuffle:
            stripe = logical_block % self.num_stripes
            unit = logical_block // self.num_stripes
        else:
            stripe = logical_block // self.m
            unit = logical_block % self.m
        return self.base_register_id + stripe, unit + 1

    def __repr__(self) -> str:
        return (
            f"LogicalVolume({self.num_blocks} blocks x {self.block_size}B = "
            f"{self.capacity_bytes} bytes over {self.num_stripes} stripes)"
        )
