"""The Policy Decision Point (PDP).

"When the managed parties require a decision ... the PDP obtains all the
policies pertinent to that decision and uses them to determine the
actions that must be performed by the PEP."  The pertinent policies are
found through an equality index over the compiled policy set
(:class:`CompiledPolicySet`), and every decision is made by
:func:`evaluate_compiled`.  Decisions are monitored (each produces a
:class:`~repro.agenp.monitoring.DecisionRecord`).

Graceful degradation: policy interpretation may be solver-backed (an
interpreter may run ASG membership or ASP solving), so one hard policy
instance could stall every decision.  The PDP therefore runs the
interpretation path under an optional per-decision
:class:`~repro.runtime.budget.Budget` and a
:class:`~repro.runtime.breaker.CircuitBreaker`:

* a resource error (budget exhausted, deadline passed) trips a breaker
  failure and the decision is served from the *last-known-good* compiled
  policy set, or from ``default_decision`` when none exists yet;
* after ``failure_threshold`` consecutive failures the breaker opens and
  the expensive path is skipped entirely until the recovery window
  passes;
* every fallback decision is logged with ``degraded=True`` so the PAdaP
  can see that the system is running degraded.

Non-resource errors still propagate (they are bugs or bad policies, not
load), but they too count toward opening the breaker.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.contexts import Context
from repro.agenp.interpreters import PolicyInterpreter
from repro.agenp.monitoring import DecisionRecord, MonitoringLog
from repro.agenp.repositories import PolicyRepository, StoredPolicy
from repro.errors import ReproError, ResourceError
from repro.policy.conflicts import ResolutionStrategy, deny_overrides
from repro.policy.evaluation import applicable_rules
from repro.policy.model import Decision, Request
from repro.policy.xacml import Match, Policy
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.budget import Budget, budget_scope
from repro.telemetry import span as _tele_span

__all__ = ["CompiledPolicySet", "PolicyDecisionPoint", "evaluate_compiled"]

# Value types for which ``a == b`` implies ``hash(a) == hash(b)`` against a
# str/int match value, so a dict lookup answers exactly what ``==`` does.
_KEYABLE = frozenset((str, int, bool))


def _equality_tests(policy: Policy) -> List[Match]:
    """The ``eq`` matches a request must pass for ``policy`` to yield a rule.

    Those of the policy target, plus, for a single-rule policy, those of
    the rule's target and condition.  Sorted by attribute, so that
    policies testing the same attributes share one shape.
    """
    matches = policy.target.matches
    if len(policy.rules) == 1:
        matches = matches + policy.rules[0].all_matches()
    tests = [match for match in matches if match.op == "eq"]
    tests.sort(key=lambda match: (match.category, match.attribute))
    return tests


class CompiledPolicySet:
    """An interpreted policy set plus an equality index over it.

    ``policies`` holds the (stored, interpreted) pairs in repository
    order.  Each policy is indexed under its *shape*, the
    ``(category, attribute)`` pairs of its necessary equality tests
    (:func:`_equality_tests`), by the tuple of their match values.  A
    policy with no such test, or with a match value that is not a
    str/int, goes on the ``residual`` list and is a candidate for every
    request.  The set is immutable.
    """

    __slots__ = ("policies", "shapes", "residual")

    def __init__(self, policies: Iterable[Tuple[StoredPolicy, Policy]] = ()):
        self.policies: Tuple[Tuple[StoredPolicy, Policy], ...] = tuple(policies)
        shapes: Dict[tuple, Dict[tuple, List[int]]] = {}
        residual: List[int] = []
        for position, (__, policy) in enumerate(self.policies):
            tests = _equality_tests(policy)
            if not tests or any(type(m.value) not in _KEYABLE for m in tests):
                residual.append(position)
                continue
            shape = tuple((m.category, m.attribute) for m in tests)
            values = tuple(m.value for m in tests)
            shapes.setdefault(shape, {}).setdefault(values, []).append(position)
        self.shapes: Tuple[Tuple[tuple, Dict[tuple, List[int]]], ...] = tuple(
            shapes.items()
        )
        self.residual: Tuple[int, ...] = tuple(residual)

    def candidates(self, request: Request) -> Sequence[int]:
        """Ascending positions of the policies that may apply to ``request``.

        One dict lookup per shape.  A shape whose attributes the request
        lacks is skipped: each of its policies has a test that then gives
        ``None``, so it yields no rule.  A request value that is not a
        str/int makes every position a candidate.
        """
        found = list(self.residual)
        for shape, buckets in self.shapes:
            values = []
            for category, attribute in shape:
                value = request.get(category, attribute)
                if value is None:
                    break
                if type(value) not in _KEYABLE:
                    return range(len(self.policies))
                values.append(value)
            else:
                found += buckets.get(tuple(values), ())
        # shapes and the residual partition the positions
        found.sort()
        return found


def evaluate_compiled(
    compiled: CompiledPolicySet,
    request: Request,
    strategy: ResolutionStrategy = deny_overrides,
    default_decision: Decision = Decision.DENY,
) -> Tuple[Decision, str]:
    """Resolve one request against a compiled policy set: the decision function.

    Returns ``(decision, winning policy text)``.  Only the index
    candidates are matched, in policy order, so the hits, and with them
    every strategy's verdict, equal those of a scan over all policies.
    :meth:`PolicyDecisionPoint.decide` and its degraded path both decide
    here.
    """
    policies = compiled.policies
    hits = []
    for position in compiled.candidates(request):
        stored, policy = policies[position]
        for rule, decision in applicable_rules(policy, request):
            hits.append((stored, policy, rule, decision))
    if not hits:
        return default_decision, ""
    decision = strategy([(p, r, d) for __, p, r, d in hits])
    winning = [stored.text for stored, __, __r, d in hits if d == decision]
    policy_text = winning[0] if winning else hits[0][0].text
    return decision, policy_text


class PolicyDecisionPoint:
    """Evaluates requests against the current policy repository."""

    def __init__(
        self,
        repository: PolicyRepository,
        interpreter: PolicyInterpreter,
        log: Optional[MonitoringLog] = None,
        strategy: ResolutionStrategy = deny_overrides,
        default_decision: Decision = Decision.DENY,
        budget_factory: Optional[Callable[[], Budget]] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.repository = repository
        self.interpreter = interpreter
        self.log = log if log is not None else MonitoringLog()
        self.strategy = strategy
        self.default_decision = default_decision
        self.budget_factory = budget_factory
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._compiled = CompiledPolicySet()
        self._compiled_generation: Optional[int] = None
        # last compiled set that served a decision successfully
        self._last_good: Optional[CompiledPolicySet] = None

    def _compile(self) -> CompiledPolicySet:
        """The compiled policy set, recompiled only when the repository's
        ``generation`` counter moved."""
        generation = self.repository.generation
        if generation != self._compiled_generation:
            self._compiled = self._interpret(self.repository.all())
            self._compiled_generation = generation
        return self._compiled

    def _interpret(self, policies: Sequence[StoredPolicy]) -> CompiledPolicySet:
        return CompiledPolicySet((p, self.interpreter(p.tokens)) for p in policies)

    def compiled(self) -> CompiledPolicySet:
        """The up-to-date compiled policy set."""
        return self._compile()

    def _scope(self):
        if self.budget_factory is not None:
            return budget_scope(self.budget_factory())
        return contextlib.nullcontext()

    def decide(self, request: Request, context: Optional[Context] = None) -> DecisionRecord:
        """Evaluate the request; log and return the decision record.

        If no policy applies, the configurable ``default_decision`` is
        used (deny-by-default for safety) and the record notes the gap —
        the Section V.A "completeness" situation that may trigger
        adaptation.  If the interpretation path runs out of budget (or
        the circuit is open), the decision is served degraded — see the
        module docstring.
        """
        context = context if context is not None else Context.empty()
        with _tele_span("pdp.decide") as sp:
            sp.incr("pdp.decisions")
            if not self.breaker.allow():
                sp.incr("pdp.breaker_rejections")
                return self._degrade(request, context, "circuit open", sp)
            try:
                with self._scope():
                    compiled = self._compile()
                    decision, policy_text = evaluate_compiled(
                        compiled, request, self.strategy, self.default_decision
                    )
            except ResourceError as error:
                self.breaker.record_failure()
                sp.incr("pdp.resource_errors")
                return self._degrade(
                    request, context, f"resource exhausted: {error}", sp
                )
            except ReproError:
                # a bug or uninterpretable policy: propagate, but count it —
                # repeated failures open the breaker and decisions degrade
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            self._last_good = compiled
            sp.set(decision=decision.value, degraded=False)
            record = DecisionRecord(
                request, decision, policy_text, context, trace_id=sp.trace_id
            )
            return self.log.append(record)

    def _degrade(
        self,
        request: Request,
        context: Context,
        reason: str,
        sp=None,
    ) -> DecisionRecord:
        """Serve a fallback decision and record the degradation event."""
        decision = self.default_decision
        policy_text = ""
        note = f"degraded ({reason}): default decision"
        if self._last_good is not None:
            try:
                decision, policy_text = evaluate_compiled(
                    self._last_good, request, self.strategy, self.default_decision
                )
                note = f"degraded ({reason}): last-known-good policies"
            except ReproError:
                decision, policy_text = self.default_decision, ""
        trace_id = sp.trace_id if sp is not None else None
        if sp is not None:
            sp.incr("pdp.degraded_decisions")
            sp.set(decision=decision.value, degraded=True)
        record = DecisionRecord(
            request,
            decision,
            policy_text,
            context,
            degraded=True,
            note=note,
            trace_id=trace_id,
        )
        return self.log.append(record)

    def coverage_gap(self, record: DecisionRecord) -> bool:
        """True if the record came from the default (no policy applied)."""
        return record.policy_text == ""
