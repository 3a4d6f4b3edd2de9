"""Crash-recovery nodes and stable storage."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionDetected, StorageError
from repro.sim.kernel import Environment, Interrupt
from repro.sim.node import StableStore
from repro.timestamps import LOW_TS, Timestamp
from repro.transport.base import Node
from repro.transport.sim import SimTransport
from repro.types import ABORT, BOTTOM

TS = Timestamp(5, 2)


def make_node(pid=1):
    env = Environment()
    transport = SimTransport(env=env)
    return env, transport, Node(transport=transport, process_id=pid)


class TestStableStore:
    def test_roundtrip(self):
        store = StableStore()
        store.store("k", ("a", 1, b"x"))
        assert store.load("k") == ("a", 1, b"x")

    def test_default(self):
        assert StableStore().load("missing", "fallback") == "fallback"

    def test_contains_and_keys(self):
        store = StableStore()
        store.store("a", 1)
        assert "a" in store
        assert "b" not in store
        assert store.keys() == ["a"]

    def test_size_bytes_grows(self):
        store = StableStore()
        store.store("a", b"x" * 10)
        small = store.size_bytes()
        store.store("b", b"y" * 1000)
        assert store.size_bytes() > small

    def test_size_bytes_tracks_overwrites(self):
        store = StableStore()
        store.store("a", b"x" * 1000)
        big = store.size_bytes()
        store.store("a", b"x" * 10)
        assert store.size_bytes() < big


#: Every value shape the protocol persists, with its pinned size_of —
#: its encoded length: 5 per tuple head, 5 + len per str/bytes, 18 per
#: Timestamp, 1 for None and for ⊥.
CENSUS = [
    ("ord-ts", TS, 18),
    ("append", ("a", TS, b"x" * 1024), 5 + 6 + 18 + 1029),
    ("append nil", ("a", TS, None), 5 + 6 + 18 + 1),
    ("append ⊥", ("a", TS, BOTTOM), 5 + 6 + 18 + 1),
    # Every journal's first record, until a GC trim drops [LowTS, nil]
    # (a trim writes only the survivors' own append records).
    ("initial", ("a", LOW_TS, None), 5 + 6 + 18 + 1),
    ("ls97", (TS, b"v" * 8), 5 + 18 + 13),
]


class TestRecordContract:
    """Values are immutable records, kept as is and refused otherwise."""

    @pytest.mark.parametrize("name, record, size", CENSUS)
    def test_census_shapes_roundtrip_by_reference(self, name, record, size):
        store = StableStore()
        store.store("k", record)
        store.append("j", record)
        assert store.size_of("k") == store.size_of("j") == size
        assert store.load("k") is record
        assert store.load_journal("j")[0] is record
        assert store.verify("k") and store.verify("j")

    @pytest.mark.parametrize("method", ["store", "append", "reset_journal"])
    @pytest.mark.parametrize("bad, type_name", [
        ([1, 2], "list"),
        ({"k": 1}, "dict"),
        ({1}, "set"),
        (bytearray(b"block"), "bytearray"),
        (("a", TS, bytearray(b"block")), "bytearray"),
        # The wire carries a frozenset; the store must not.
        (frozenset({1}), "frozenset"),
        (("a", TS, ABORT), "_AbortType"),
    ])
    def test_refuses_non_records(self, method, bad, type_name):
        store = StableStore()
        store.store("k", b"old")
        store.append("j", ("a", TS, b"old"))
        keys, size = store.keys(), store.size_bytes()
        key = "k" if method == "store" else "j"
        arg = (bad,) if method == "reset_journal" else bad
        with pytest.raises(TypeError, match=f"not {type_name}$"):
            getattr(store, method)(key, arg)
        assert store.keys() == keys
        assert store.size_bytes() == size
        assert store.load("k") == b"old"
        assert store.load_journal("j") == [("a", TS, b"old")]


class TestStableStoreAliasing:
    """Live memory can never reach "disk": records are immutable."""

    def test_mutating_after_store_does_not_change_disk(self):
        store = StableStore()
        block = bytearray(b"v1" * 16)
        store.store("log:0", ((1, bytes(block)), (2, None)))
        block[:2] = b"XX"
        assert store.load("log:0") == ((1, b"v1" * 16), (2, None))
        with pytest.raises(TypeError, match="bytearray"):
            store.store("log:0", ((1, block),))
        assert store.load("log:0") == ((1, b"v1" * 16), (2, None))

    def test_mutating_after_load_does_not_change_disk(self):
        store = StableStore()
        store.append("logj:0", ("a", 1, b"abc"))
        loaded = store.load_journal("logj:0")
        loaded.append(("a", 9, b"junk"))
        loaded[0] = ("a", 1, b"Zbc")
        assert store.load_journal("logj:0") == [("a", 1, b"abc")]

    def test_post_crash_recovery_observes_stored_snapshot(self):
        """Mutating the caller's buffer after store() must not change
        what a post-crash recover() observes."""
        _env, _transport, node = make_node()
        block = bytearray(b"durable!")
        node.stable.store("log:7", ((5, bytes(block)),))
        block[:] = b"mutated!"
        node.crash()
        node.recover()
        assert node.stable.load("log:7") == ((5, b"durable!"),)

    def test_journal_records_are_detached(self):
        store = StableStore()
        record = ["a", 1, bytearray(b"block")]
        with pytest.raises(TypeError, match="list"):
            store.append("logj:0", record)
        store.append("logj:0", ("a", 1, bytes(record[2])))
        record[2][:] = b"XXXXX"
        assert store.load_journal("logj:0") == [("a", 1, b"block")]
        assert store.load_journal("logj:0") is not store.load_journal("logj:0")


class TestStableStoreCounters:
    def test_counters_count(self):
        store = StableStore()
        store.store("a", b"x")
        store.load("a")
        store.load("a")
        assert store.store_count == 1
        assert store.load_count == 2

    def test_cow_shares_immutable_payloads(self):
        """Records are kept by reference: no copy on store or load."""
        store = StableStore()
        block = b"x" * 4096
        state = ((TS, b"y" * 4096), (TS, None))
        store.store("block", block)
        store.append("state", state)
        assert store.load("block") is block
        assert store.load_journal("state")[0] is state

    def test_journal_append_is_incremental(self):
        """Appending to a journal accounts only the new record's size."""
        store = StableStore()
        store.append("logj:0", ("a", 1, b"x" * 1024))
        one = store.size_bytes()
        store.append("logj:0", ("a", 2, b"x" * 1024))
        two = store.size_bytes()
        assert one < two <= 2 * one + 64
        store.reset_journal("logj:0", [("a", 3, b"x" * 1024)])
        assert store.size_bytes() < two
        assert store.journal_len("logj:0") == 1


def payloads(min_size=1):
    return st.binary(min_size=min_size, max_size=48)


timestamps = st.builds(
    Timestamp, st.integers(0, 10**6), st.integers(1, 9)
)

#: Census-shaped records that carry at least one non-empty byte payload.
records_with_payload = st.one_of(
    st.tuples(st.just("a"), timestamps, payloads()),
    st.tuples(timestamps, payloads()),
    st.tuples(
        st.just("s"),
        st.tuples(
            st.tuples(timestamps, payloads()),
            st.tuples(timestamps, st.one_of(st.none(), payloads(0))),
        ),
    ),
)


def bit_distance(a, b):
    """Number of differing bits between two same-shaped records."""
    if type(a) is tuple:
        assert type(b) is tuple and len(a) == len(b)
        return sum(bit_distance(x, y) for x, y in zip(a, b))
    if type(a) is bytes:
        assert len(a) == len(b)
        return sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert a == b
    return 0


class TestCorruptionProperty:
    @given(record=records_with_payload, seed=st.integers(0, 2**32))
    def test_corrupt_flips_one_bit_and_is_detected(self, record, seed):
        store = StableStore(verify_checksums=False)
        store.store("k", record)
        store.append("j", record)
        assert store.corrupt("k", seed) and store.corrupt("j", seed)
        assert bit_distance(record, store.load("k")) == 1
        assert bit_distance(record, store.load_journal("j")[0]) == 1
        assert not store.verify("k") and not store.verify("j")
        store.verify_checksums = True
        with pytest.raises(CorruptionDetected):
            store.load("k")
        with pytest.raises(CorruptionDetected):
            store.load_journal("j")


class TestNodeLifecycle:
    def test_starts_up(self):
        _env, _transport, node = make_node()
        assert node.is_up
        assert node.crash_count == 0

    def test_crash_and_recover(self):
        _env, _transport, node = make_node()
        node.crash()
        assert not node.is_up
        assert node.crash_count == 1
        node.recover()
        assert node.is_up

    def test_crash_idempotent(self):
        _env, _transport, node = make_node()
        node.crash()
        node.crash()
        assert node.crash_count == 1

    def test_recover_when_up_is_noop(self):
        _env, _transport, node = make_node()
        node.recover()
        assert node.crash_count == 0

    def test_stable_storage_survives_crash(self):
        _env, _transport, node = make_node()
        node.stable.store("data", b"persisted")
        node.crash()
        node.recover()
        assert node.stable.load("data") == b"persisted"

    def test_recovery_hooks_run(self):
        _env, _transport, node = make_node()
        calls = []
        node.on_recovery(lambda: calls.append("hook"))
        node.crash()
        assert calls == []
        node.recover()
        assert calls == ["hook"]


class TestNodeMessaging:
    def test_handler_dispatch_by_type(self):
        env, transport, node = make_node(pid=1)
        other = Node(transport=transport, process_id=2)
        seen = []
        other.register_handler(str, lambda src, payload: seen.append((src, payload)))
        other.register_handler(int, lambda src, payload: seen.append("int"))
        node.send(2, "text")
        env.run()
        assert seen == [(1, "text")]

    def test_down_node_ignores_messages(self):
        env, transport, node = make_node(pid=1)
        other = Node(transport=transport, process_id=2)
        seen = []
        other.register_handler(str, lambda src, payload: seen.append(payload))
        other.crash()
        node.send(2, "lost")
        env.run()
        assert seen == []

    def test_down_node_cannot_send(self):
        env, transport, node = make_node(pid=1)
        other = Node(transport=transport, process_id=2)
        seen = []
        other.register_handler(str, lambda src, payload: seen.append(payload))
        node.crash()
        node.send(2, "x")
        env.run()
        assert seen == []

    def test_unhandled_type_ignored(self):
        env, transport, node = make_node(pid=1)
        other = Node(transport=transport, process_id=2)
        node.send(2, 3.14)  # no float handler registered
        env.run()  # must not raise


class TestProcessOwnership:
    def test_spawn_runs(self):
        env, _transport, node = make_node()

        def task():
            yield env.timeout(1)
            return "done"

        process = node.spawn(task())
        assert env.run_until_complete(process) == "done"

    def test_crash_interrupts_owned_processes(self):
        env, _transport, node = make_node()
        outcomes = []

        def task():
            try:
                yield env.timeout(100)
                outcomes.append("finished")
            except Interrupt as interrupt:
                outcomes.append(f"killed:{interrupt.cause}")

        node.spawn(task())
        env.run(until=2)
        node.crash()
        env.run()
        assert outcomes == ["killed:crash"]

    def test_crash_spares_finished_processes(self):
        env, _transport, node = make_node()

        def quick():
            yield env.timeout(1)
            return "ok"

        process = node.spawn(quick())
        env.run()
        node.crash()
        assert process.value == "ok"

    def test_spawn_on_down_node_rejected(self):
        env, _transport, node = make_node()
        node.crash()

        def task():
            yield env.timeout(1)

        with pytest.raises(StorageError):
            node.spawn(task())

    def test_owned_processes_stay_bounded(self):
        """The satellite regression: a 10k-op run must not accumulate
        finished processes — each is reaped on completion, so the table
        stays bounded by genuine concurrency, not run length."""
        env, _transport, node = make_node()

        def task():
            yield env.timeout(1)

        for _batch in range(100):
            for _ in range(100):
                node.spawn(task())
            assert len(node._owned_processes) == 100  # only this batch
            env.run()
            assert node._owned_processes == {}  # reaped on completion

    def test_recovery_does_not_revive_processes(self):
        env, _transport, node = make_node()
        outcomes = []

        def task():
            yield env.timeout(100)
            outcomes.append("finished")

        node.spawn(task())
        env.run(until=1)
        node.crash()
        node.recover()
        env.run()
        assert outcomes == []
