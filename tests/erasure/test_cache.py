"""BoundedLRU and the shared decode-matrix cache bound.

The regression of record: every matrix coder's decode cache must stay
bounded under survivor-set churn (fault campaigns produce a new
frozenset per crash pattern).  PR 7 bounded only the Reed-Solomon
cache inline; the bound now lives in one helper
(:class:`repro.erasure.cache.BoundedLRU`) shared by Reed-Solomon
and LRC, and these tests drive >64 distinct survivor sets
through each coder to prove the bound holds everywhere.
"""

import itertools
import random

import pytest

from repro.erasure import LRCCode, make_code
from repro.erasure.cache import BoundedLRU


class TestBoundedLRU:
    def test_get_or_compute_caches(self):
        cache = BoundedLRU(4)
        calls = []

        def factory():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", factory) == "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert len(calls) == 1
        assert "k" in cache and len(cache) == 1

    def test_evicts_least_recently_used(self):
        cache = BoundedLRU(2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        assert set(cache) == {"a", "c"}

    def test_failed_factory_caches_nothing(self):
        cache = BoundedLRU(2)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", self._boom)
        assert "k" not in cache and len(cache) == 0

    @staticmethod
    def _boom():
        raise RuntimeError("factory failed")

    def test_dynamic_bound_shrinks_on_insert(self):
        bound = [8]
        cache = BoundedLRU(lambda: bound[0])
        for key in range(8):
            cache.get_or_compute(key, lambda: key)
        bound[0] = 2
        cache.get_or_compute("new", lambda: "v")
        assert len(cache) <= 2
        assert "new" in cache

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)

    def test_clear(self):
        cache = BoundedLRU(4)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0


class TestCoderCacheBound:
    """All matrix coders stay bounded under >64 distinct survivor sets."""

    def _churn_mds(self, code, m, n):
        stripe = [bytes([17 * (i + 1) % 256]) * 24 for i in range(m)]
        encoded = code.encode(stripe)
        distinct = 0
        for survivors in itertools.combinations(range(1, n + 1), m):
            if list(survivors) == list(range(1, m + 1)):
                continue  # fast path, never touches the cache
            blocks = {i: encoded[i - 1] for i in survivors}
            assert code.decode(blocks) == stripe
            distinct += 1
        return distinct

    @pytest.mark.parametrize("kind", ["reed-solomon"])
    def test_mds_decode_cache_stays_bounded(self, kind):
        m, n = 3, 10
        code = make_code(m, n, kind)
        distinct = self._churn_mds(code, m, n)
        assert distinct > 64
        assert len(code._decode_cache) <= code.DECODE_CACHE_SIZE

    def test_lrc_decode_cache_stays_bounded(self):
        code = LRCCode(4, 12)
        rng = random.Random(5)
        stripe = [bytes([i + 1]) * 16 for i in range(code.m)]
        encoded = code.encode(stripe)
        seen = set()
        while len(seen) <= 64:
            survivors = frozenset(rng.sample(range(1, code.n + 1), 8))
            if survivors in seen or 1 in survivors:
                continue  # keep block 1 missing: skip the fast path
            try:
                decoded = code.decode({i: encoded[i - 1] for i in survivors})
            except Exception:
                continue  # undecodable pattern for this non-MDS layout
            assert decoded == stripe
            seen.add(survivors)
        assert len(seen) > 64
        assert len(code._decode_cache) <= code.DECODE_CACHE_SIZE
