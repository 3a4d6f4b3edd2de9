"""Crash-recovery nodes and stable storage."""

import pytest

from repro.errors import StorageError
from repro.sim.kernel import Environment, Interrupt
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node, StableStore


def make_node(pid=1):
    env = Environment()
    network = Network(env, NetworkConfig())
    return env, network, Node(env, network, pid)


class TestStableStore:
    def test_roundtrip(self):
        store = StableStore()
        store.store("k", [1, 2, 3])
        assert store.load("k") == [1, 2, 3]

    def test_default(self):
        assert StableStore().load("missing", "fallback") == "fallback"

    def test_deep_copy_on_store(self):
        store = StableStore()
        value = {"nested": [1]}
        store.store("k", value)
        value["nested"].append(2)
        assert store.load("k") == {"nested": [1]}

    def test_deep_copy_on_load(self):
        store = StableStore()
        store.store("k", [1])
        loaded = store.load("k")
        loaded.append(2)
        assert store.load("k") == [1]

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


class TestStableStoreAliasing:
    """Stored values must be detached from live memory."""

    def test_mutating_after_store_does_not_change_disk(self):
        store = StableStore()
        block = bytearray(b"v1" * 16)
        state = [(1, block), (2, None)]
        store.store("log:0", state)
        block[:2] = b"XX"
        state.append((3, b"late"))
        assert store.load("log:0") == [(1, bytearray(b"v1" * 16)), (2, None)]

    def test_mutating_after_load_does_not_change_disk(self):
        store = StableStore()
        store.store("log:0", [(1, bytearray(b"abc"))])
        loaded = store.load("log:0")
        loaded[0][1][0:1] = b"Z"
        loaded.append((9, b"junk"))
        assert store.load("log:0") == [(1, bytearray(b"abc"))]

    def test_post_crash_recovery_observes_stored_snapshot(self):
        """The satellite regression: mutation after store()/load() must
        not change what a post-crash recover() observes."""
        env = Environment()
        network = Network(env, NetworkConfig())
        node = Node(env, network, 1)
        block = bytearray(b"durable!")
        node.stable.store("log:7", [(5, block)])
        leaked = node.stable.load("log:7")
        block[:] = b"mutated!"          # after store()
        leaked[0][1][:] = b"mutated!"   # after load()
        node.crash()
        node.recover()
        assert node.stable.load("log:7") == [(5, bytearray(b"durable!"))]

    def test_journal_records_are_detached(self):
        store = StableStore()
        record = ["a", 1, bytearray(b"block")]
        store.append("logj:0", record)
        record[2][:] = b"XXXXX"
        record.append("extra")
        replayed = store.load_journal("logj:0")
        assert replayed == [["a", 1, bytearray(b"block")]]
        replayed[0][2][:] = b"YYYYY"
        assert store.load_journal("logj:0") == [["a", 1, bytearray(b"block")]]


class TestStableStoreCounters:
    def test_counters_count(self):
        store = StableStore()
        store.store("a", b"x")
        store.load("a")
        store.load("a")
        assert store.store_count == 1
        assert store.load_count == 2

    def test_cow_shares_immutable_payloads(self):
        """bytes blocks and atom tuples are snapshotted without copying."""
        store = StableStore()
        store.store("block", b"x" * 4096)
        store.store("state", [(1, b"y" * 4096), (2, None)])
        store.load("block")
        store.load("state")
        assert store.bytes_copied == 0

    def test_journal_append_is_incremental(self):
        """Appending to a journal accounts only the new record's size."""
        store = StableStore()
        store.append("logj:0", ("a", 1, b"x" * 1024))
        one = store.size_bytes()
        store.append("logj:0", ("a", 2, b"x" * 1024))
        two = store.size_bytes()
        assert one < two <= 2 * one + 64
        store.reset_journal("logj:0", [("s", (1, b"x" * 1024))])
        assert store.size_bytes() < two
        assert store.journal_len("logj:0") == 1


class TestNodeLifecycle:
    def test_starts_up(self):
        _env, _network, node = make_node()
        assert node.is_up
        assert node.crash_count == 0

    def test_crash_and_recover(self):
        _env, network, node = make_node()
        node.crash()
        assert not node.is_up
        assert node.crash_count == 1
        node.recover()
        assert node.is_up

    def test_crash_idempotent(self):
        _env, _network, node = make_node()
        node.crash()
        node.crash()
        assert node.crash_count == 1

    def test_recover_when_up_is_noop(self):
        _env, _network, node = make_node()
        node.recover()
        assert node.crash_count == 0

    def test_stable_storage_survives_crash(self):
        _env, _network, node = make_node()
        node.stable.store("data", b"persisted")
        node.crash()
        node.recover()
        assert node.stable.load("data") == b"persisted"

    def test_recovery_hooks_run(self):
        _env, _network, node = make_node()
        calls = []
        node.on_recovery(lambda: calls.append("hook"))
        node.crash()
        assert calls == []
        node.recover()
        assert calls == ["hook"]


class TestNodeMessaging:
    def test_handler_dispatch_by_type(self):
        env, network, node = make_node(pid=1)
        other = Node(env, network, 2)
        seen = []
        other.register_handler(str, lambda src, payload: seen.append((src, payload)))
        other.register_handler(int, lambda src, payload: seen.append("int"))
        node.send(2, "text")
        env.run()
        assert seen == [(1, "text")]

    def test_down_node_ignores_messages(self):
        env, network, node = make_node(pid=1)
        other = Node(env, network, 2)
        seen = []
        other.register_handler(str, lambda src, payload: seen.append(payload))
        other.crash()
        node.send(2, "lost")
        env.run()
        assert seen == []

    def test_down_node_cannot_send(self):
        env, network, node = make_node(pid=1)
        other = Node(env, network, 2)
        seen = []
        other.register_handler(str, lambda src, payload: seen.append(payload))
        node.crash()
        node.send(2, "x")
        env.run()
        assert seen == []

    def test_unhandled_type_ignored(self):
        env, network, node = make_node(pid=1)
        other = Node(env, network, 2)
        node.send(2, 3.14)  # no float handler registered
        env.run()  # must not raise


class TestProcessOwnership:
    def test_spawn_runs(self):
        env, _network, node = make_node()

        def task():
            yield env.timeout(1)
            return "done"

        process = node.spawn(task())
        assert env.run_until_complete(process) == "done"

    def test_crash_interrupts_owned_processes(self):
        env, _network, node = make_node()
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
        env, _network, node = make_node()

        def quick():
            yield env.timeout(1)
            return "ok"

        process = node.spawn(quick())
        env.run()
        node.crash()
        assert process.value == "ok"

    def test_spawn_on_down_node_rejected(self):
        env, _network, node = make_node()
        node.crash()

        def task():
            yield env.timeout(1)

        with pytest.raises(StorageError):
            node.spawn(task())

    def test_owned_processes_stay_bounded(self):
        """The satellite regression: a 10k-op run must not accumulate
        finished processes — each is reaped on completion, so the list
        stays bounded by genuine concurrency, not run length."""
        env, _network, node = make_node()

        def task():
            yield env.timeout(1)

        for _batch in range(100):
            for _ in range(100):
                node.spawn(task())
            assert len(node._owned_processes) == 100  # only this batch
            env.run()
            assert node._owned_processes == []  # reaped on completion

    def test_recovery_does_not_revive_processes(self):
        env, _network, node = make_node()
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
