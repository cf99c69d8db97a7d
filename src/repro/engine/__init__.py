"""The serving engine: a decision cache in front of the PDP.

:class:`PolicyEngine` serves PDP decisions through an LRU decision cache
keyed by the request and cleared when the policy generation moves.  See
:mod:`repro.engine.engine` for the serving semantics and
:mod:`repro.engine.caches` for admission rules.
"""

from repro.engine.caches import CacheStats, LRUCache, admissible
from repro.engine.engine import PolicyEngine

__all__ = ["PolicyEngine", "CacheStats", "LRUCache", "admissible"]
