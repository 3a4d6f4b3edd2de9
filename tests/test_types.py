"""Shared types: the ABORT sentinel."""

import pickle

from repro.types import ABORT, NIL
from repro.types import _AbortType


class TestAbortSentinel:
    def test_singleton(self):
        assert _AbortType() is ABORT

    def test_falsy(self):
        assert not ABORT

    def test_repr(self):
        assert repr(ABORT) == "ABORT"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(ABORT)) is ABORT

    def test_distinct_from_none(self):
        assert ABORT is not None
        assert NIL is None

