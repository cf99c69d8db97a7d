"""The serving engine: a decision cache in front of the PDP.

A decision depends only on the compiled policy set (the PDP's strategy
never sees the context), so :class:`PolicyEngine` caches
``(decision, policy text)`` by ``request.key()`` alone and clears the
cache when ``PolicyRepository.generation`` moves, which is exactly when
the PDP recompiles.  A context switch that leaves the policies alone
keeps the cache.  A miss, and a request with an unhashable attribute
value (it has no cache key), goes through
:meth:`~repro.agenp.pdp.PolicyDecisionPoint.decide`, with its budget,
breaker and degradation.  ``decide_many`` is a loop over ``decide``.

The cache reports ``cache.decision.{hits,misses,evictions}`` counters
through the ambient :mod:`repro.telemetry` tracer, and an
``engine.decide`` span wraps each decision.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.pdp import PolicyDecisionPoint
from repro.agenp.repositories import ContextRepository, PolicyRepository
from repro.core.contexts import Context
from repro.engine.caches import LRUCache
from repro.policy.model import Request
from repro.telemetry import span as _tele_span

__all__ = ["PolicyEngine"]

DECISION_CACHE_SIZE = 4096


class PolicyEngine:
    """Cached decision serving over a PDP.

    Construction takes the same collaborators as
    :class:`~repro.agenp.pdp.PolicyDecisionPoint`, or an existing PDP via
    ``pdp=``::

        engine = PolicyEngine(repository, interp)
        engine = PolicyEngine(pdp=ams.pdp, contexts=ams.contexts)

    ``contexts`` supplies the context logged with a decision when the
    caller gives none.
    """

    def __init__(
        self,
        repository: Optional[PolicyRepository] = None,
        interpreter=None,
        *,
        pdp: Optional[PolicyDecisionPoint] = None,
        contexts: Optional[ContextRepository] = None,
        log: Optional[MonitoringLog] = None,
        **pdp_kwargs: Any,
    ):
        if pdp is None:
            if repository is None or interpreter is None:
                raise ValueError(
                    "a PolicyEngine needs a decision path: construct it with a "
                    "policy repository and interpreter, or pdp=..."
                )
            pdp = PolicyDecisionPoint(repository, interpreter, log=log, **pdp_kwargs)
        self.pdp: PolicyDecisionPoint = pdp
        self.contexts = contexts
        self.decision_cache: LRUCache = LRUCache(DECISION_CACHE_SIZE, name="decision")
        # the policy generation the cached decisions were made under
        self._generation = pdp.repository.generation

    def decide(self, request: Request, context: Optional[Context] = None) -> DecisionRecord:
        """One cached PDP decision.

        A cache hit still appends a fresh :class:`DecisionRecord` to the
        monitoring log, so the AGENP feedback loop sees every served
        decision.  Degraded decisions, and those computed under an
        exhausted budget (:func:`repro.engine.caches.admissible`), are
        never cached.
        """
        pdp = self.pdp
        if context is None:
            context = self.contexts.current() if self.contexts is not None else Context.empty()
        generation = pdp.repository.generation
        if generation != self._generation:
            self.decision_cache.clear()
            self._generation = generation
        key = request.key()
        with _tele_span("engine.decide") as sp:
            try:
                cached = self.decision_cache.get(key)
            except TypeError:  # an unhashable attribute value: no cache key
                sp.set(cache="uncacheable")
                return pdp.decide(request, context)
            if cached is not None:
                decision, policy_text = cached
                sp.set(cache="hit", decision=decision.value)
                record = DecisionRecord(
                    request, decision, policy_text, context, trace_id=sp.trace_id
                )
                return pdp.log.append(record)
            sp.set(cache="miss")
            record = pdp.decide(request, context)
            if not record.degraded:
                self.decision_cache.put(key, (record.decision, record.policy_text))
            return record

    def decide_many(
        self, requests: Iterable[Request], context: Optional[Context] = None
    ) -> List[DecisionRecord]:
        """``decide`` for each request, in order: one record per request."""
        return [self.decide(request, context) for request in requests]

    def invalidate(self) -> None:
        """Manually purge the decision cache."""
        self.decision_cache.clear()
