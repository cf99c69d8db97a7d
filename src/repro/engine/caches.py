"""The LRU cache behind the serving engine's decision cache.

:class:`LRUCache` is ordered-dict based, with O(1) get/put and typed
hit/miss/eviction counters.

Admission is *budget-aware*: a result computed while the governing
:class:`~repro.runtime.budget.Budget` (explicit or ambient) is already
exhausted or cancelled is never admitted — a later uncached call could
legitimately produce more (a resource error instead of a truncated
search), so such results are not safe to replay.  Callers additionally
refuse to admit explicitly degraded results (e.g. fallback PDP
decisions) — see :class:`~repro.engine.engine.PolicyEngine`.

Counters flow into the ambient telemetry tracer (when installed) under
``cache.<name>.{hits,misses,evictions}``, so serving benchmarks and the
``repro.telemetry.report`` CLI show cache behaviour next to solver
counters without extra wiring.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Hashable, Optional, TypeVar

from repro.runtime.budget import Budget, current_budget
from repro.telemetry import incr as _tele_incr

__all__ = ["CacheStats", "LRUCache", "admissible"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "rejected")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0  # admissions refused (budget-exhausted results)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} rejected={self.rejected})"
        )


def admissible(budget: Optional[Budget] = None) -> bool:
    """Whether a just-computed result may be cached.

    False when the governing budget (explicit, else ambient) is already
    exhausted or cancelled: the computation completed, but only just —
    replaying its result would mask the resource pressure a fresh call
    would surface, and a degraded/partial variant must never be served
    as the canonical answer.
    """
    active = budget if budget is not None else current_budget()
    return active is None or not active.exhausted


class LRUCache(Generic[K, V]):
    """A bounded least-recently-used mapping with telemetry counters."""

    def __init__(self, max_entries: int, name: str = "lru"):
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (refreshing recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            _tele_incr(f"cache.{self.name}.misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        _tele_incr(f"cache.{self.name}.hits")
        return entry

    def put(self, key: K, value: V, budget: Optional[Budget] = None) -> bool:
        """Admit ``value`` unless the budget disallows it.

        Returns True iff the value was stored.
        """
        if not admissible(budget):
            self.stats.rejected += 1
            _tele_incr(f"cache.{self.name}.rejected")
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            _tele_incr(f"cache.{self.name}.evictions")
        return True

    def clear(self) -> int:
        """Drop every entry; return how many were evicted."""
        dropped = len(self._entries)
        if dropped:
            self._entries.clear()
            self.stats.evictions += dropped
            _tele_incr(f"cache.{self.name}.evictions", dropped)
        return dropped
