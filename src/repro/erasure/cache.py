"""A small bounded LRU cache for decode matrices.

Every matrix coder caches one inverted decode matrix per survivor set.
Steady-state workloads decode from a handful of patterns, but fault
campaigns churn through survivor sets (every crash pattern is a new
frozenset), so an unbounded cache grows without limit.  PR 7 bounded
the Reed-Solomon coder's cache inline; this module factors that policy
into one helper so *every* coder (Reed-Solomon, LRC, and any
future registrant) shares the same bounded behaviour instead of
re-implementing — or forgetting — the eviction logic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, TypeVar, Union

__all__ = ["BoundedLRU"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """An LRU-evicting mapping with a hard size bound.

    ``get_or_compute(key, factory)`` is the whole API surface the coders
    need: a hit refreshes the entry's recency; a miss computes, inserts,
    and evicts least-recently-used entries down to the bound.

    Args:
        maxsize: maximum retained entries — an int, or a zero-argument
            callable re-read on every insert (the coders pass
            ``lambda: self.DECODE_CACHE_SIZE`` so tests and tuning can
            adjust the class attribute after construction).
    """

    __slots__ = ("_maxsize", "_data")

    def __init__(self, maxsize: Union[int, Callable[[], int]]) -> None:
        if isinstance(maxsize, int) and maxsize < 1:
            raise ValueError(f"BoundedLRU needs maxsize >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._data: "OrderedDict[K, V]" = OrderedDict()

    @property
    def maxsize(self) -> int:
        """The current bound (re-evaluated when dynamic)."""
        bound = self._maxsize
        return bound() if callable(bound) else bound

    def get_or_compute(self, key: K, factory: Callable[[], V]) -> V:
        """Return the cached value for ``key``, computing it on a miss."""
        found = self._data.get(key)
        if found is not None:
            self._data.move_to_end(key)
            return found
        value = factory()
        self._data[key] = value
        bound = self.maxsize
        while len(self._data) > bound:
            self._data.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
