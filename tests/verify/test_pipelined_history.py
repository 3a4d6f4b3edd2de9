"""Strict linearizability of pipelined multi-client session histories.

Two :class:`~repro.core.session.VolumeSession` clients hammer a
single-stripe volume concurrently; their merged, per-block-projected
histories must pass both the graph-based strict checker and the
Wing-Gong brute-force search (kept tiny so the exponential search is
feasible).  This is the Appendix-B check applied to the pipelined
client path rather than hand-built register calls.
"""

from dataclasses import replace

from repro import open_volume
from repro.types import OpKind
from repro.verify.history import OpRecord
from repro.verify.linearizability import check_strict_linearizability
from tests.verify.wing_gong import brute_force_linearizable


def merged_history(*sessions):
    """Merge session histories, re-keying op ids so they stay unique."""
    merged = []
    for session in sessions:
        for record in session.history():
            merged.append(replace(record, op_id=len(merged) + 1))
    return merged


def per_block(history, index):
    """Project a single-register history onto block ``index`` (1-based)."""
    projected = []
    for record in history:
        if record.kind in (OpKind.READ_BLOCK, OpKind.WRITE_BLOCK):
            if record.block_index == index:
                projected.append(record)
        else:  # stripe ops project via their index-th value
            projected.append(OpRecord(
                op_id=record.op_id,
                kind=OpKind.READ_BLOCK if record.is_read else OpKind.WRITE_BLOCK,
                block_index=index,
                value=record.block_value(index),
                t_inv=record.t_inv,
                t_resp=record.t_resp,
                status=record.status,
                coordinator=record.coordinator,
            ))
    return projected


def run_two_client_workload(seed):
    volume = open_volume(m=2, n=4, stripes=1, block_size=16, seed=seed)
    a = volume.session(max_inflight=2, seed=seed + 1)
    b = volume.session(max_inflight=2, seed=seed + 2)
    # Unique write values (checker precondition); both clients touch
    # both blocks so the projections contain genuine interleavings.
    a.submit_write(0, b"\x01" * 16)
    b.submit_write(1, b"\x02" * 16)
    a.submit_write(1, b"\x03" * 16)
    b.submit_read(0)
    a.submit_read(1)
    b.submit_write(0, b"\x04" * 16)
    a.drain()
    b.drain()
    return a, b


def test_pipelined_two_client_history_is_strictly_linearizable():
    a, b = run_two_client_workload(seed=21)
    history = merged_history(a, b)
    assert len(history) == 6
    for index in (1, 2):
        projection = per_block(history, index)
        graph = check_strict_linearizability(projection)
        brute = brute_force_linearizable(projection, max_ops=12)
        assert graph.ok, graph.violations
        assert brute is True
        # Two independent checkers, one verdict.
        assert bool(graph) == brute


def test_pipelined_history_checkers_agree_across_seeds():
    for seed in (31, 41, 51, 61):
        a, b = run_two_client_workload(seed)
        history = merged_history(a, b)
        for index in (1, 2):
            projection = per_block(history, index)
            graph = check_strict_linearizability(projection)
            brute = brute_force_linearizable(projection, max_ops=12)
            assert brute is not None
            assert graph.ok == brute, (seed, index, graph.violations)
            assert graph.ok


def test_session_history_expands_coalesced_ops_per_unit():
    volume = open_volume(m=2, n=4, stripes=1, block_size=16, seed=71)
    volume.stripe_shuffle = False
    with volume.session() as session:
        session.submit_write_range(0, [b"\x05" * 16, b"\x06" * 16])
        session.submit_read_range(0, 2)
    history = session.history()
    # One full-stripe write record plus one read record per unit.
    kinds = [record.kind for record in history]
    assert kinds.count(OpKind.WRITE_STRIPE) == 1
    assert kinds.count(OpKind.READ_BLOCK) == 2
    reads = [r for r in history if r.kind is OpKind.READ_BLOCK]
    assert {r.block_index for r in reads} == {1, 2}
    assert [r.value for r in sorted(reads, key=lambda r: r.block_index)] == [
        b"\x05" * 16, b"\x06" * 16,
    ]
