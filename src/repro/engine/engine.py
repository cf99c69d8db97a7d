"""The serving engine: cached, batched PDP decisions.

:class:`PolicyEngine` is the serving front door of the PDP.  It puts a
decision cache in front of the PDP's compiled policy set:

* **Decision path** — ``engine.decide(request)`` serves PDP decisions
  from a decision cache keyed by (``Context.key()``, policy generation,
  context generation, request), so contexts that compare equal share
  entries; ``engine.decide_many(requests)`` groups duplicate requests
  so each distinct decision is computed once, with an optional
  ``workers=N`` process-pool fan-out for cold batches.  A
  request with an unhashable attribute value has no cache key: the PDP
  answers it uncached.
* **Invalidation** — PAdaP policy updates bump
  ``PolicyRepository.generation`` and context changes bump
  ``ContextRepository.generation``; the engine folds both counters into
  its decision keys and purges the decision cache when either moves, so
  a stale entry can never be served.
* **Admission** — decisions computed under an exhausted budget and
  degraded (fallback) decisions are never cached; see
  :func:`repro.engine.caches.admissible`.

The cache reports ``cache.decision.{hits,misses,evictions}`` counters
through the ambient :mod:`repro.telemetry` tracer, and ``engine.*``
spans wrap the serving operations.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.pdp import CompiledPolicySet, PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import ContextRepository, PolicyRepository
from repro.core.contexts import Context
from repro.engine.caches import LRUCache
from repro.policy.model import Decision, Request
from repro.telemetry import incr as _tele_incr
from repro.telemetry import span as _tele_span

__all__ = ["PolicyEngine", "EngineStats"]


class EngineStats:
    """A point-in-time snapshot of the decision cache's counters, plus
    the process-pool fan-outs that failed and were served serially."""

    __slots__ = ("caches", "decisions", "batches", "pool_failures")

    def __init__(
        self,
        caches: Dict[str, Dict[str, float]],
        decisions: int,
        batches: int,
        pool_failures: int = 0,
    ):
        self.caches = caches
        self.decisions = decisions
        self.batches = batches
        self.pool_failures = pool_failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "caches": self.caches,
            "decisions": self.decisions,
            "batches": self.batches,
            "pool_failures": self.pool_failures,
        }

    def __repr__(self) -> str:
        inner = " ".join(
            f"{name}[h={c['hits']} m={c['misses']}]" for name, c in self.caches.items()
        )
        return (
            f"EngineStats({inner} decisions={self.decisions} batches={self.batches} "
            f"pool_failures={self.pool_failures})"
        )


def _pickles(*objects: Any) -> bool:
    """Can ``objects`` be sent to a worker process?"""
    try:
        pickle.dumps(objects)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def _decide_group_worker(
    payload: Tuple[CompiledPolicySet, Any, Decision, List[Request]],
) -> List[Tuple[Decision, str]]:
    """Process-pool worker: resolve a chunk of requests against one
    compiled policy set.  Module-level so it pickles by reference."""
    compiled, strategy, default_decision, requests = payload
    return [
        evaluate_compiled(compiled, request, strategy, default_decision)
        for request in requests
    ]


class PolicyEngine:
    """High-throughput decision serving over a PDP.

    Construction takes the same collaborators as
    :class:`~repro.agenp.pdp.PolicyDecisionPoint` (or an existing PDP via
    ``pdp=``) plus the decision cache's size::

        engine = PolicyEngine(repository, interp)
        engine = PolicyEngine(pdp=ams.pdp, contexts=ams.contexts)

    ``decision_cache_size=0`` disables the cache (the serial leg of
    benchmark E15).
    """

    def __init__(
        self,
        repository: Optional[PolicyRepository] = None,
        interpreter=None,
        *,
        pdp: Optional[PolicyDecisionPoint] = None,
        contexts: Optional[ContextRepository] = None,
        log: Optional[MonitoringLog] = None,
        decision_cache_size: int = 4096,
        workers: Optional[int] = None,
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
        self.workers = workers
        self.decision_cache: LRUCache = LRUCache(decision_cache_size, name="decision")
        self._decisions_served = 0
        self._batches_served = 0
        self._pool_failures = 0
        # generations the decision cache was built against
        self._seen_generations: Optional[Tuple[int, int]] = None

    # -- decision path ------------------------------------------------------

    def _generations(self) -> Tuple[int, int]:
        policy_gen = (
            self.pdp.repository.generation
            if hasattr(self.pdp.repository, "generation")
            else -1
        )
        context_gen = (
            self.contexts.generation
            if self.contexts is not None
            else -1
        )
        return (policy_gen, context_gen)

    def _check_invalidation(self) -> Tuple[int, int]:
        """Purge the decision cache if either repository moved."""
        generations = self._generations()
        if self._seen_generations is None:
            self._seen_generations = generations
        elif generations != self._seen_generations:
            self.decision_cache.clear()
            self._seen_generations = generations
        return generations

    def decide(
        self, request: Request, context: Optional[Context] = None
    ) -> DecisionRecord:
        """One cached PDP decision.

        Cache hits skip policy compilation and rule matching but still
        append a fresh :class:`DecisionRecord` to the monitoring log —
        the AGENP feedback loop sees every served decision either way.
        Degraded (fallback) decisions are never admitted to the cache.
        """
        pdp = self.pdp
        context = context if context is not None else (
            self.contexts.current() if self.contexts is not None else Context.empty()
        )
        generations = self._check_invalidation()
        key = (
            context.key(),
            (generations, request.key()),
        )
        with _tele_span("engine.decide") as sp:
            self._decisions_served += 1
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
        self,
        requests: Iterable[Request],
        context: Optional[Context] = None,
        workers: Optional[int] = None,
    ) -> List[DecisionRecord]:
        """Batched decisions: each distinct request is resolved once.

        Requests are grouped by content key; the unique cold group is
        resolved against one compiled policy set — serially, or fanned
        out to a process pool when ``workers`` (or the engine default)
        is > 1, the batch is large enough to amortize pool startup and
        the strategy and policy set pickle.  A request with an unhashable
        attribute value is decided by the PDP alone.  Every input request
        still yields its own monitoring record, in input order.
        """
        pdp = self.pdp
        context = context if context is not None else (
            self.contexts.current() if self.contexts is not None else Context.empty()
        )
        requests = list(requests)
        workers = workers if workers is not None else self.workers
        generations = self._check_invalidation()
        context_key = context.key()

        with _tele_span("engine.decide_many", batch=len(requests)) as sp:
            self._batches_served += 1
            # group duplicates; preserve first-seen order of unique keys
            order: List[tuple] = []
            by_key: Dict[tuple, List[int]] = {}
            exemplar: Dict[tuple, Request] = {}
            uncacheable: List[int] = []
            for index, request in enumerate(requests):
                key = request.key()
                try:
                    group = by_key.get(key)
                except TypeError:  # an unhashable attribute value: no cache key
                    uncacheable.append(index)
                    continue
                if group is None:
                    group = by_key[key] = []
                    exemplar[key] = request
                    order.append(key)
                group.append(index)
            sp.set(unique=len(order))

            # split unique requests into cache hits and the cold group
            outcomes: Dict[tuple, Tuple[Decision, str]] = {}
            cold: List[tuple] = []
            for key in order:
                cache_key = (context_key, (generations, key))
                cached = self.decision_cache.get(cache_key)
                if cached is not None:
                    outcomes[key] = cached
                else:
                    cold.append(key)
            sp.incr("engine.batch_cold", len(cold))

            if cold:
                compiled = pdp.compiled()
                cold_requests = [exemplar[key] for key in cold]
                resolved = self._resolve_cold(
                    compiled, cold_requests, workers, pdp
                )
                for key, outcome in zip(cold, resolved):
                    outcomes[key] = outcome
                    self.decision_cache.put(
                        (context_key, (generations, key)), outcome
                    )

            # one monitoring record per input request, in input order
            records: List[DecisionRecord] = [None] * len(requests)  # type: ignore[list-item]
            for key in order:
                decision, policy_text = outcomes[key]
                for index in by_key[key]:
                    record = DecisionRecord(
                        requests[index],
                        decision,
                        policy_text,
                        context,
                        trace_id=sp.trace_id,
                    )
                    records[index] = pdp.log.append(record)
            for index in uncacheable:
                records[index] = pdp.decide(requests[index], context)
            self._decisions_served += len(requests)
            return records

    def _resolve_cold(
        self,
        compiled: CompiledPolicySet,
        cold_requests: List[Request],
        workers: Optional[int],
        pdp: PolicyDecisionPoint,
    ) -> List[Tuple[Decision, str]]:
        """Resolve the unique cold requests, fanning out when profitable.

        A strategy or policy set that does not pickle is served serially
        without starting a pool; a pool that fails is counted
        (``stats().pool_failures`` and the ``engine.pool_failures``
        counter) and its requests are served serially.
        """
        if (
            workers
            and workers > 1
            and len(cold_requests) >= 2 * workers
            and _pickles(compiled, pdp.strategy, pdp.default_decision)
        ):
            try:
                return self._resolve_pool(compiled, cold_requests, workers, pdp)
            except Exception:
                self._pool_failures += 1
                _tele_incr("engine.pool_failures")
        return [
            evaluate_compiled(
                compiled, request, pdp.strategy, pdp.default_decision
            )
            for request in cold_requests
        ]

    @staticmethod
    def _resolve_pool(
        compiled: CompiledPolicySet,
        cold_requests: List[Request],
        workers: int,
        pdp: PolicyDecisionPoint,
    ) -> List[Tuple[Decision, str]]:
        import concurrent.futures

        chunks: List[List[Request]] = [[] for _ in range(workers)]
        for index, request in enumerate(cold_requests):
            chunks[index % workers].append(request)
        payloads = [
            (compiled, pdp.strategy, pdp.default_decision, chunk)
            for chunk in chunks
            if chunk
        ]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(_decide_group_worker, payloads))
        # interleave back to input order (round-robin inverse)
        results: List[Tuple[Decision, str]] = [None] * len(cold_requests)  # type: ignore[list-item]
        non_empty = [chunk for chunk in chunks if chunk]
        position = [0] * len(non_empty)
        for index in range(len(cold_requests)):
            chunk_index = index % workers
            # map chunk_index into non_empty ordering
            live_index = sum(1 for c in chunks[:chunk_index] if c)
            results[index] = chunk_results[live_index][position[live_index]]
            position[live_index] += 1
        return results

    # -- maintenance --------------------------------------------------------

    def invalidate(self) -> None:
        """Manually purge the decision cache."""
        self.decision_cache.clear()
        self._seen_generations = None

    def stats(self) -> EngineStats:
        """The decision cache's hit/miss/eviction counters."""
        return EngineStats(
            {"decision": self.decision_cache.stats.as_dict()},
            self._decisions_served,
            self._batches_served,
            self._pool_failures,
        )
