"""Erasure-code factory."""

import pytest

from repro.erasure import (
    ReedSolomonCode,
    ReplicationCode,
    SingleParityCode,
    available_codes,
    make_code,
)
from repro.erasure.interface import ErasureCode
from repro.erasure.registry import register_code
from repro.errors import ConfigurationError


class TestMakeCode:
    def test_auto_picks_replication_for_m1(self):
        assert isinstance(make_code(1, 3), ReplicationCode)

    def test_auto_picks_parity_for_single_parity(self):
        assert isinstance(make_code(4, 5), SingleParityCode)

    def test_auto_picks_reed_solomon_otherwise(self):
        assert isinstance(make_code(3, 6), ReedSolomonCode)

    def test_explicit_kind(self):
        assert isinstance(make_code(3, 6, "reed-solomon"), ReedSolomonCode)
        assert isinstance(make_code(2, 3, "parity"), SingleParityCode)
        assert isinstance(make_code(1, 2, "replication"), ReplicationCode)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            make_code(2, 4, "fountain")

    def test_one_mds_construction(self):
        """Reed-Solomon is the one systematic MDS code; the Cauchy
        variant is gone and naming it lists what is available."""
        with pytest.raises(ConfigurationError, match="reed-solomon"):
            make_code(3, 5, "cauchy")

    def test_available_codes(self):
        names = available_codes()
        assert "auto" in names
        assert "reed-solomon" in names

    def test_register_custom_code(self):
        class MyCode(ReedSolomonCode):
            pass

        register_code("my-code", MyCode)
        assert isinstance(make_code(2, 4, "my-code"), MyCode)
        assert "my-code" in available_codes()

    def test_register_rejects_non_code(self):
        with pytest.raises(ConfigurationError):
            register_code("bogus", dict)


class TestInterfaceContract:
    """All codes honour the shared ErasureCode contract."""

    @pytest.mark.parametrize(
        "code",
        [make_code(1, 3), make_code(3, 4), make_code(3, 6)],
        ids=["replication", "parity", "reed-solomon"],
    )
    def test_encode_decode_roundtrip(self, code: ErasureCode):
        stripe = [bytes([i]) * 8 for i in range(code.m)]
        encoded = code.encode(stripe)
        assert len(encoded) == code.n
        assert encoded[: code.m] == stripe  # systematic
        blocks = {i: encoded[i - 1] for i in range(code.n - code.m + 1, code.n + 1)}
        assert code.decode(blocks) == stripe

    @pytest.mark.parametrize(
        "code",
        [make_code(1, 3), make_code(3, 4), make_code(3, 6)],
        ids=["replication", "parity", "reed-solomon"],
    )
    def test_modify_consistency(self, code: ErasureCode):
        stripe = [bytes([10 + i]) * 8 for i in range(code.m)]
        encoded = code.encode(stripe)
        new_block = b"\x99" * 8
        new_stripe = [new_block] + stripe[1:]
        reencoded = code.encode(new_stripe)
        delta = code.encode_delta(1, stripe[0], new_block)
        for j in range(code.m + 1, code.n + 1):
            assert (
                code.modify(1, j, stripe[0], new_block, encoded[j - 1])
                == reencoded[j - 1]
            )
            assert code.apply_delta(1, j, delta, encoded[j - 1]) == reencoded[j - 1]
