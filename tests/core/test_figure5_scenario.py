"""The paper's Figure 5 scenario, reproduced exactly.

Three processes a=1, b=2, c=3 implement a storage register with
replication as a 1-out-of-3 erasure code (quorum size 2).  A write of
v' crashes after storing v' on only process a (isolated by a partition
at just the right moment).  A subsequent read2, served by b and c,
returns the old value v.  Then a recovers.

Strict linearizability demands read3 also return v: the partial write
was rolled back by read2 and must stay rolled back — even though a now
holds v' with the highest timestamp.  The paper's two-phase write makes
this work (ord-ts reveals the unfulfilled intention); the LS97 baseline,
which simply completes partial writes, returns v' — the exact anomaly
the paper argues is unacceptable for storage systems.
"""

import pytest

from repro.baselines.ls97 import Ls97Cluster, Ls97Config, StoreReq
from repro.sim.network import NetworkConfig
from tests.conftest import fault, make_cluster

V_OLD = [b"v" * 32]
V_NEW = [b"w" * 32]


def run_figure5_on_our_protocol():
    """Drive the scenario; returns (read2_value, read3_value)."""
    cluster = make_cluster(m=1, n=3, block_size=32)
    env = cluster.env

    # Initial state: v committed everywhere (coordinator b).
    assert cluster.register(0, route=2).write_stripe(V_OLD) == "OK"

    # write1(v') from coordinator a.  Let the Order phase complete
    # (one round trip = 2 time units), then cut a off from b and c so
    # only a's own replica receives the Write.
    writer = cluster.coordinators[1]
    process = cluster.nodes[1].spawn(writer.write_stripe(0, V_NEW))
    env.run(until=env.now + 2.5)  # Order done, Write messages in flight
    fault(cluster, "partition", 1)
    env.run(until=env.now + 2.0)  # a's self-Write lands; others dropped
    cluster.nodes[1].crash()      # write1 dies: partial write
    env.run(until=env.now + 1.0)
    assert not process.ok
    fault(cluster, "heal")

    # Verify the partial state is as in the figure.
    assert cluster.replicas[1].state(0).log.max_block()[1] == V_NEW[0]
    assert cluster.replicas[2].state(0).log.max_block()[1] == V_OLD[0]
    assert cluster.replicas[3].state(0).log.max_block()[1] == V_OLD[0]

    read2 = cluster.register(0, route=3).read_stripe()

    cluster.nodes[1].recover()
    read3 = cluster.register(0, route=2).read_stripe()
    read3_again = cluster.register(0, route=3).read_stripe()
    return read2, read3, read3_again


class TestFigure5OurProtocol:
    def test_partial_write_rolled_back_and_stays_rolled_back(self):
        read2, read3, read3_again = run_figure5_on_our_protocol()
        assert read2 == V_OLD
        assert read3 == V_OLD, "v' resurfaced after recovery: not strict"
        assert read3_again == V_OLD


class TestFigure5Ls97Anomaly:
    def test_ls97_resurrects_the_partial_write(self):
        """The baseline *does* exhibit the Figure 5 anomaly, confirming
        our protocol's extra machinery is what prevents it."""
        cluster = Ls97Cluster(Ls97Config(n=3))
        env = cluster.env

        assert cluster.write(0, V_OLD[0], route=2) == "OK"

        writer = cluster.coordinators[1]
        process = cluster.nodes[1].spawn(writer.write(0, V_NEW[0]))
        env.run(until=env.now + 2.5)  # query phase done, stores in flight
        fault(cluster, "partition", 1)
        env.run(until=env.now + 2.0)  # self-store lands on a only
        cluster.nodes[1].crash()
        env.run(until=env.now + 1.0)
        assert not process.ok
        fault(cluster, "heal")

        assert cluster.nodes[1].stable.load("reg:0")[1] == V_NEW[0]
        assert cluster.nodes[2].stable.load("reg:0")[1] == V_OLD[0]

        read2 = cluster.read(0, route=3)
        assert read2 == V_OLD[0]

        cluster.nodes[1].recover()
        read3 = cluster.read(0, route=3)
        # LS97 write-back completes the partial write arbitrarily late:
        # the anomaly strict linearizability forbids.
        assert read3 == V_NEW[0]
