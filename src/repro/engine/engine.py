"""The serving engine: cached, batched policy evaluation.

:class:`PolicyEngine` is the one front door for high-throughput policy
serving.  It wraps the substrate entry points that the rest of the
framework exposes piecemeal (``parse`` → ``ground`` → ``solve``, ASG
membership, PDP decisions) behind content-addressed caches with
generation-based invalidation:

* **Solve path** — ``engine.solve_text(text)`` / ``engine.solve(program)``
  consult a parse cache, a :class:`~repro.engine.caches.GroundCache`
  (program fingerprint → ground program) and a
  :class:`~repro.engine.caches.SolveCache` (fingerprint + solver options
  → answer sets).  Results are byte-identical to the uncached path: the
  cache key covers every knob that can change the answer, and cached
  models are returned in their original order.
* **Membership path** — ``engine.accepts(asg, tokens)`` memoizes ASG
  membership verdicts per (grammar fingerprint, token string, options).
* **Decision path** — ``engine.decide(request)`` serves PDP decisions
  from a decision cache keyed by (policy generation, context generation,
  context fingerprint, request); ``engine.decide_many(requests)`` groups
  duplicate requests so each distinct decision is computed once, with an
  optional ``workers=N`` process-pool fan-out for cold batches.  A
  request with an unhashable attribute value has no cache key: the PDP
  answers it uncached.
* **Invalidation** — PAdaP policy updates bump
  ``PolicyRepository.generation`` and context changes bump
  ``ContextRepository.generation``; the engine folds both counters into
  its decision keys and purges the decision cache when either moves, so
  a stale entry can never be served.
* **Admission** — results computed under an exhausted budget and
  degraded (fallback) decisions are never cached; see
  :func:`repro.engine.caches.admissible`.

Every cache reports ``cache.<name>.{hits,misses,evictions}`` counters
through the ambient :mod:`repro.telemetry` tracer, and ``engine.*``
spans wrap the serving operations.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asp.grounder import GroundProgram, ground_program
from repro.asp.parser import parse_program
from repro.asp.rules import Program
from repro.asp.solver import AnswerSetSolver, SolveResult, solve
from repro.asg.semantics import accepts as _asg_accepts
from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.pdp import CompiledPolicySet, PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import ContextRepository, PolicyRepository
from repro.core.contexts import Context
from repro.engine.caches import (
    GroundCache,
    LRUCache,
    MembershipCache,
    ParseCache,
    SolveCache,
)
from repro.engine.fingerprint import (
    combine,
    fingerprint_asg,
    fingerprint_program,
    fingerprint_text,
    fingerprint_tokens,
)
from repro.policy.model import Decision, Request
from repro.runtime.budget import Budget
from repro.telemetry import incr as _tele_incr
from repro.telemetry import span as _tele_span

__all__ = ["PolicyEngine", "EngineStats"]

_DEFAULT_MAX_STEPS = 50_000_000
_DEFAULT_MAX_ATOMS = 2_000_000


class EngineStats:
    """A point-in-time snapshot of every cache's counters, plus the
    process-pool fan-outs that failed and were served serially."""

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
    """High-throughput serving façade over the AGENP substrate.

    Construction takes the same collaborators as
    :class:`~repro.agenp.pdp.PolicyDecisionPoint` (or an existing PDP via
    ``pdp=``) plus cache-size knobs.  A repository/interpreter pair is
    only required for the decision path; ``solve*``/``accepts`` work on
    a bare engine::

        engine = PolicyEngine()                      # solve/membership caching
        engine = PolicyEngine(repository, interp)    # + PDP decision serving

    Setting any ``*_cache_size`` to 0 disables that cache (used by the
    differential tests and the cold legs of benchmark E15).
    """

    def __init__(
        self,
        repository: Optional[PolicyRepository] = None,
        interpreter=None,
        *,
        pdp: Optional[PolicyDecisionPoint] = None,
        contexts: Optional[ContextRepository] = None,
        log: Optional[MonitoringLog] = None,
        parse_cache_size: int = 512,
        ground_cache_size: int = 256,
        solve_cache_size: int = 1024,
        membership_cache_size: int = 2048,
        decision_cache_size: int = 4096,
        workers: Optional[int] = None,
        **pdp_kwargs: Any,
    ):
        if pdp is not None:
            self.pdp: Optional[PolicyDecisionPoint] = pdp
        elif repository is not None and interpreter is not None:
            self.pdp = PolicyDecisionPoint(
                repository, interpreter, log=log, **pdp_kwargs
            )
        else:
            self.pdp = None
        self.contexts = contexts
        self.workers = workers
        self.parse_cache = ParseCache(parse_cache_size)
        self.ground_cache = GroundCache(ground_cache_size)
        self.solve_cache = SolveCache(solve_cache_size)
        self.membership_cache = MembershipCache(membership_cache_size)
        self.decision_cache: LRUCache = LRUCache(decision_cache_size, name="decision")
        self._decisions_served = 0
        self._batches_served = 0
        self._pool_failures = 0
        # generations the decision cache was built against
        self._seen_generations: Optional[Tuple[int, int]] = None
        # id-keyed memo for ASG fingerprints (grammars are large; the
        # strong reference keeps the id stable, mirroring PCP.preflight)
        self._asg_fps: Dict[int, Tuple[object, str]] = {}

    # -- solve path ---------------------------------------------------------

    def parse(self, text: str) -> Program:
        """Parse ASP source text through the parse cache."""
        key = fingerprint_text(text)
        cached = self.parse_cache.get(key)
        if cached is not None:
            return cached
        program = parse_program(text)
        self.parse_cache.put(key, program)
        return program

    def ground(
        self,
        program: Program,
        max_atoms: int = _DEFAULT_MAX_ATOMS,
        budget: Optional[Budget] = None,
    ) -> GroundProgram:
        """Ground ``program`` through the ground cache."""
        key = (fingerprint_program(program), max_atoms)
        cached = self.ground_cache.get(key)
        if cached is not None:
            return cached
        ground = ground_program(program, max_atoms=max_atoms, budget=budget)
        self.ground_cache.put(key, ground, budget=budget)
        return ground

    def solve(
        self,
        program: Program,
        max_models: Optional[int] = None,
        budget: Optional[Budget] = None,
        max_steps: int = _DEFAULT_MAX_STEPS,
        use_fast_path: bool = True,
    ) -> SolveResult:
        """Ground and solve ``program`` through both engine caches.

        Identical in signature and results to
        :func:`repro.asp.solver.solve`; a warm hit skips parsing,
        grounding, and solving entirely.
        """
        fp = fingerprint_program(program)
        options = (max_models, max_steps, use_fast_path)
        key = (fp, options)
        with _tele_span("engine.solve", fingerprint=fp[:12]) as sp:
            cached = self.solve_cache.get_result(key)
            if cached is not None:
                sp.set(cache="hit")
                return cached
            sp.set(cache="miss")
            ground = self.ground_cache.get((fp, _DEFAULT_MAX_ATOMS))
            if ground is None:
                ground = ground_program(program, budget=budget)
                self.ground_cache.put((fp, _DEFAULT_MAX_ATOMS), ground, budget=budget)
            solver = AnswerSetSolver(
                ground, max_steps=max_steps, budget=budget, use_fast_path=use_fast_path
            )
            result = solver.solve(max_models=max_models)
            self.solve_cache.put_result(key, result, budget=budget)
            return result

    def solve_text(
        self,
        text: str,
        max_models: Optional[int] = None,
        budget: Optional[Budget] = None,
        max_steps: int = _DEFAULT_MAX_STEPS,
        use_fast_path: bool = True,
    ) -> SolveResult:
        """Parse, ground, and solve source text through every cache."""
        return self.solve(
            self.parse(text),
            max_models=max_models,
            budget=budget,
            max_steps=max_steps,
            use_fast_path=use_fast_path,
        )

    # -- membership path ----------------------------------------------------

    def _asg_fingerprint(self, asg) -> str:
        cached = self._asg_fps.get(id(asg))
        if cached is not None and cached[0] is asg:
            return cached[1]
        fp = fingerprint_asg(asg)
        self._asg_fps[id(asg)] = (asg, fp)
        return fp

    def accepts(
        self,
        asg,
        tokens: Sequence[str],
        max_trees: int = 256,
        budget: Optional[Budget] = None,
        use_fast_path: bool = True,
    ) -> bool:
        """ASG membership (``tokens in L(G)``) through the membership cache."""
        key = (
            self._asg_fingerprint(asg),
            (fingerprint_tokens(tokens), max_trees, use_fast_path),
        )
        cached = self.membership_cache.get(key)
        if cached is not None:
            return cached
        verdict = _asg_accepts(
            asg,
            tuple(tokens),
            max_trees=max_trees,
            budget=budget,
            use_fast_path=use_fast_path,
        )
        self.membership_cache.put(key, verdict, budget=budget)
        return verdict

    # -- decision path ------------------------------------------------------

    def _require_pdp(self) -> PolicyDecisionPoint:
        if self.pdp is None:
            raise ValueError(
                "this PolicyEngine has no decision path: construct it with a "
                "policy repository and interpreter (or pdp=...)"
            )
        return self.pdp

    def _generations(self) -> Tuple[int, int]:
        policy_gen = (
            self.pdp.repository.generation
            if self.pdp is not None
            and hasattr(self.pdp.repository, "generation")
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

    def _context_fingerprint(self, context: Context) -> str:
        # order-insensitive: contexts compare by rule *set* (Context.__eq__)
        return combine(sorted(repr(rule) for rule in context.program))

    def decide(
        self, request: Request, context: Optional[Context] = None
    ) -> DecisionRecord:
        """One cached PDP decision.

        Cache hits skip policy compilation and rule matching but still
        append a fresh :class:`DecisionRecord` to the monitoring log —
        the AGENP feedback loop sees every served decision either way.
        Degraded (fallback) decisions are never admitted to the cache.
        """
        pdp = self._require_pdp()
        context = context if context is not None else (
            self.contexts.current() if self.contexts is not None else Context.empty()
        )
        generations = self._check_invalidation()
        key = (
            self._context_fingerprint(context),
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
        pdp = self._require_pdp()
        context = context if context is not None else (
            self.contexts.current() if self.contexts is not None else Context.empty()
        )
        requests = list(requests)
        workers = workers if workers is not None else self.workers
        generations = self._check_invalidation()
        context_fp = self._context_fingerprint(context)

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
                cache_key = (context_fp, (generations, key))
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
                        (context_fp, (generations, key)), outcome
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
        """Manually purge every cache (content caches included)."""
        for cache in (
            self.parse_cache,
            self.ground_cache,
            self.solve_cache,
            self.membership_cache,
            self.decision_cache,
        ):
            cache.clear()
        self._seen_generations = None
        self._asg_fps.clear()

    def stats(self) -> EngineStats:
        """Hit/miss/eviction counters for every cache."""
        return EngineStats(
            {
                cache.name: cache.stats.as_dict()
                for cache in (
                    self.parse_cache,
                    self.ground_cache,
                    self.solve_cache,
                    self.membership_cache,
                    self.decision_cache,
                )
            },
            self._decisions_served,
            self._batches_served,
            self._pool_failures,
        )
