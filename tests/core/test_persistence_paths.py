"""The copy-on-write store + journal persistence path, pinned.

The copy-on-write stable store and the journal log persistence replaced
the seed's ``deepcopy`` store and full-log re-store as pure performance
work.  That they changed no operation history, metric total or
recovered replica state — including under crashes, GC and message
drops — is pinned by the ``crash-gc-drop/*`` cases of the fixed-seed
golden (:mod:`tests.golden.record`, recorded while both paths still
existed and agreed).  This module keeps what a recorded value cannot
say: the path reproduces itself, and journal compaction loses nothing.
"""

from tests.golden.record import (
    make_cluster,
    metric_totals,
    recovered_states,
    run_workload,
    stripe_for,
)


class TestJournalPath:
    def test_same_seed_reproduces_itself(self):
        first = make_cluster(drop=0.05, gc=True)
        second = make_cluster(drop=0.05, gc=True)
        assert run_workload(first, crash_pid=2) == run_workload(
            second, crash_pid=2
        )
        assert metric_totals(first) == metric_totals(second)
        assert recovered_states(first) == recovered_states(second)

    def test_journal_compaction_preserves_state(self):
        """GC-heavy runs compact the journal; recovered state must match
        the live log exactly afterwards."""
        cluster = make_cluster(gc=True)
        handle = cluster.register(0)
        for version in range(60):
            handle.write_stripe(stripe_for(0, version))
        replica = cluster.replicas[1]
        live = replica.state(0)
        expected = (live.ord_ts, live.log.to_state())
        cluster.crash(1)
        cluster.recover(1)
        state = replica.state(0)
        assert (state.ord_ts, state.log.to_state()) == expected
        # Compaction actually happened: the journal is bounded well
        # below one record per historical mutation.
        journal = cluster.nodes[1].stable
        assert journal.journal_len(replica.log_key(0)) < 60
