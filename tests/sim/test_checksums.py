"""Checksummed persistence: CRC envelopes, quarantine, torn tails."""

import pytest

from repro.errors import CorruptionDetected
from repro.sim.node import StableStore


def records_for(count):
    return [("w", i, bytes([i + 1]) * 16) for i in range(count)]


class TestPlainValues:
    def test_clean_roundtrip_verifies(self):
        store = StableStore()
        store.store("k", b"\x01" * 32)
        assert store.verify("k")
        assert store.load("k") == b"\x01" * 32
        assert store.checksum_failures == 0

    def test_corrupt_is_detected_and_quarantined(self):
        store = StableStore()
        store.store("k", b"\x01" * 32)
        assert store.corrupt("k", seed=7)
        assert not store.verify("k")
        with pytest.raises(CorruptionDetected):
            store.load("k")
        assert "k" in store.quarantined
        assert store.checksum_failures == 1

    def test_verify_is_side_effect_free(self):
        store = StableStore()
        store.store("k", b"\x01" * 32)
        store.corrupt("k", seed=7)
        assert not store.verify("k")
        # verify() never quarantines or counts — only load does.
        assert "k" not in store.quarantined
        assert store.checksum_failures == 0

    def test_overwrite_repairs_a_quarantined_cell(self):
        store = StableStore()
        store.store("k", b"\x01" * 32)
        store.corrupt("k", seed=7)
        with pytest.raises(CorruptionDetected):
            store.load("k")
        store.store("k", b"\x02" * 32)
        assert "k" not in store.quarantined
        assert store.verify("k")
        assert store.load("k") == b"\x02" * 32

    def test_corrupt_absent_key_is_noop(self):
        store = StableStore()
        assert not store.corrupt("missing")

    def test_deterministic_by_seed(self):
        def flipped(seed):
            store = StableStore(verify_checksums=False)
            store.store("k", b"\x01" * 32)
            store.corrupt("k", seed=seed)
            return store.load("k")

        assert flipped(3) == flipped(3)
        assert flipped(3) != flipped(4)


class TestJournals:
    def test_corrupt_journal_record_detected(self):
        store = StableStore()
        for record in records_for(4):
            store.append("j", record)
        assert store.corrupt("j", seed=1)
        assert not store.verify("j")
        with pytest.raises(CorruptionDetected):
            store.load_journal("j")
        assert "j" in store.quarantined
        assert store.checksum_failures == 1

    def test_reset_journal_repairs(self):
        store = StableStore()
        for record in records_for(4):
            store.append("j", record)
        store.corrupt("j", seed=1)
        store.reset_journal("j", records_for(2))
        assert "j" not in store.quarantined
        assert store.load_journal("j") == records_for(2)

    def test_reset_journal_keeps_envelopes_of_identical_records(self):
        """Records already in the journal are not sealed again; the
        size and verification come out as if they were."""
        store = StableStore()
        records = records_for(4)
        for record in records:
            store.append("j", record)
        sealed = StableStore()
        sealed.reset_journal("j", records[2:])
        stores = store.store_count
        store.reset_journal("j", records[2:])
        assert store.store_count == stores
        assert store.size_of("j") == sealed.size_of("j")
        assert store.verify("j")
        assert store.load_journal("j") == records[2:]

    def test_reset_journal_reseals_a_rotted_record(self):
        """Bit rot replaced the stored object, so the caller's pristine
        copy is not identical to it: it is sealed afresh and heals."""
        store = StableStore()
        records = records_for(4)
        for record in records:
            store.append("j", record)
        assert store.corrupt("j", seed=1)  # rots the newest record
        stores = store.store_count
        store.reset_journal("j", records[2:])
        assert store.store_count == stores + 1
        assert store.verify("j")
        assert store.load_journal("j") == records[2:]

    def test_torn_tail_is_dropped_not_corruption(self):
        store = StableStore()
        for record in records_for(3):
            store.append("j", record)
        assert store.tear_journal("j")
        # A torn tail is a framing failure, not rot: verify stays
        # clean and the read self-truncates without raising.
        assert store.verify("j")
        assert store.load_journal("j") == records_for(3)
        assert store.torn_dropped == 1
        assert store.checksum_failures == 0

    def test_append_overwrites_torn_tail(self):
        store = StableStore()
        for record in records_for(2):
            store.append("j", record)
        store.tear_journal("j")
        store.append("j", ("w", 9, b"\xaa" * 16))
        assert store.journal_len("j") == 3
        assert store.load_journal("j")[-1] == ("w", 9, b"\xaa" * 16)
        assert store.torn_dropped == 0  # never hit a read

    def test_tear_twice_is_noop(self):
        store = StableStore()
        store.append("j", records_for(1)[0])
        assert store.tear_journal("j")
        assert not store.tear_journal("j")


class TestEscapeHatch:
    def test_disabled_verification_serves_garbage_silently(self):
        store = StableStore(verify_checksums=False)
        store.store("k", b"\x01" * 32)
        store.corrupt("k", seed=7)
        value = store.load("k")  # no raise: this is the danger mode
        assert value != b"\x01" * 32
        assert "k" not in store.quarantined
        assert store.checksum_failures == 0

    def test_disabled_verification_still_drops_torn_tails(self):
        # Torn tails are caught by framing, not checksums: truncation
        # must survive the escape hatch.
        store = StableStore(verify_checksums=False)
        for record in records_for(3):
            store.append("j", record)
        store.tear_journal("j")
        assert store.load_journal("j") == records_for(3)
        assert store.torn_dropped == 1
