"""Trace synthesis and replay."""

from collections import Counter

import pytest

from repro import LogicalVolume, VolumeSession
from repro.errors import ConfigurationError
from repro.types import ABORT
from repro.workloads.generators import ZipfPattern
from repro.workloads.traces import TraceOp, TraceReplayer, synthesize_trace
from tests.conftest import make_cluster


class TestSynthesis:
    def test_length_and_monotonic_times(self):
        trace = synthesize_trace(50, num_blocks=20, seed=1)
        assert len(trace) == 50
        times = [op.time for op in trace]
        assert times == sorted(times)

    def test_blocks_in_range(self):
        trace = synthesize_trace(100, num_blocks=10, seed=2)
        assert all(0 <= op.block < 10 for op in trace)

    def test_read_fraction(self):
        trace = synthesize_trace(500, 10, read_fraction=0.9, seed=3)
        reads = sum(1 for op in trace if op.op == "read")
        assert reads > 400

    def test_write_tags_unique(self):
        trace = synthesize_trace(200, 10, read_fraction=0.0, seed=4)
        tags = [op.tag for op in trace]
        assert len(set(tags)) == len(tags)

    def test_deterministic_by_seed(self):
        first = synthesize_trace(100, 16, seed=9)
        assert synthesize_trace(100, 16, seed=9) == first
        assert synthesize_trace(100, 16, seed=10) != first

    def test_reads_have_no_tag(self):
        trace = synthesize_trace(300, 10, read_fraction=0.5, seed=5)
        assert {op.tag for op in trace if op.op == "read"} == {0}
        assert all(op.tag > 0 for op in trace if op.op == "write")

    def test_read_fraction_extremes(self):
        assert {op.op for op in synthesize_trace(100, 8, read_fraction=1.0)} == {
            "read"
        }
        assert {op.op for op in synthesize_trace(100, 8, read_fraction=0.0)} == {
            "write"
        }

    def test_pattern_shapes_the_blocks(self):
        """The access pattern is the only source of skew: a Zipf trace
        concentrates on fewer blocks than the default uniform one."""
        def top_share(trace):
            counts = Counter(op.block for op in trace)
            return sum(c for _b, c in counts.most_common(5)) / len(trace)

        uniform = synthesize_trace(2000, 50, seed=6)
        zipf = synthesize_trace(
            2000, 50, pattern=ZipfPattern(exponent=1.2, seed=0), seed=6
        )
        assert top_share(zipf) > 2 * top_share(uniform)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            synthesize_trace(-1, 10)
        with pytest.raises(ConfigurationError):
            TraceOp(time=0.0, op="erase", block=0)


class TestReplay:
    def test_replay_statistics(self):
        cluster = make_cluster(m=2, n=4, block_size=16)
        volume = LogicalVolume(cluster, num_stripes=5)
        trace = synthesize_trace(30, volume.num_blocks, seed=5)
        stats = TraceReplayer(volume).replay(trace)
        assert stats.operations == 30
        assert stats.reads + stats.writes == 30
        assert stats.duration > 0
        assert stats.throughput > 0

    def test_sequential_replay_never_aborts(self):
        """No concurrency => no conflicts => zero aborts (the paper's
        trace observation)."""
        cluster = make_cluster(m=2, n=4, block_size=16)
        volume = LogicalVolume(cluster, num_stripes=5)
        trace = synthesize_trace(40, volume.num_blocks, seed=6)
        stats = TraceReplayer(volume).replay(trace)
        assert stats.aborts == 0
        assert stats.abort_rate == 0.0

    def test_replay_data_integrity(self):
        cluster = make_cluster(m=2, n=4, block_size=16)
        volume = LogicalVolume(cluster, num_stripes=5)
        replayer = TraceReplayer(volume)
        trace = [
            TraceOp(time=1.0, op="write", block=3, tag=42),
            TraceOp(time=2.0, op="read", block=3),
        ]
        replayer.replay(trace)
        assert volume.session().read(3) == replayer._payload(trace[0])

    def test_empty_trace(self):
        cluster = make_cluster(m=2, n=4, block_size=16)
        volume = LogicalVolume(cluster, num_stripes=2)
        stats = TraceReplayer(volume).replay([])
        assert stats.operations == 0
        assert stats.throughput == 0

    def test_abort_is_counted_not_retried(self, monkeypatch):
        cluster = make_cluster(m=2, n=4, block_size=16)
        replayer = TraceReplayer(LogicalVolume(cluster, num_stripes=2))
        attempts = []

        def always_abort(self, op, pid):
            attempts.append(op)

            def aborter():
                yield self.env.timeout(1.0)
                return ABORT

            return self.env.process(aborter())

        monkeypatch.setattr(VolumeSession, "_spawn_attempt", always_abort)
        trace = [
            TraceOp(time=1.0, op="write", block=0, tag=1),
            TraceOp(time=2.0, op="read", block=1),
        ]
        stats = replayer.replay(trace)
        assert stats.aborts == 2
        assert len(attempts) == 2  # one attempt per op: ⊥ is final
        assert replayer.session.stats.retries == 0
