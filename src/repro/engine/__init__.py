"""The high-throughput serving engine (decision cache + batching front door).

:class:`PolicyEngine` serves PDP decisions through an LRU decision cache
with generation-based invalidation and batched decision serving.  See
:mod:`repro.engine.engine` for the serving semantics and
:mod:`repro.engine.caches` for admission rules.
"""

from repro.engine.caches import CacheStats, LRUCache, admissible
from repro.engine.engine import EngineStats, PolicyEngine

__all__ = ["PolicyEngine", "EngineStats", "CacheStats", "LRUCache", "admissible"]
