"""The Policy Checking Point (PCP): quality checker + violation detector.

Per Figure 2, the PCP "evaluates the quality [of generated policies] and
identifies policies that incur violations (e.g., as determined by
negative policy examples)", for both internally generated policies and
policies shared by other AMSs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.asg_lint import lint_asg
from repro.analysis.diagnostics import Diagnostic
from repro.core.contexts import Context
from repro.core.gpm import GenerativePolicyModel
from repro.core.workflow import LabeledExample
from repro.agenp.interpreters import PolicyInterpreter
from repro.agenp.repositories import StoredPolicy
from repro.errors import ReproError
from repro.grammar.cfg import SymbolString
from repro.policy.model import DomainSchema
from repro.policy.quality import QualityReport, assess
from repro.policy.xacml import Policy

__all__ = ["CheckOutcome", "PolicyCheckingPoint"]


class CheckOutcome:
    """The PCP's verdict on one candidate policy."""

    __slots__ = ("policy", "accepted", "reasons")

    def __init__(self, policy: StoredPolicy, accepted: bool, reasons: List[str]):
        self.policy = policy
        self.accepted = accepted
        self.reasons = reasons

    def __repr__(self) -> str:
        verdict = "accepted" if self.accepted else "REJECTED"
        detail = f": {'; '.join(self.reasons)}" if self.reasons else ""
        return f"CheckOutcome({self.policy.text!r} {verdict}{detail})"


class PolicyCheckingPoint:
    """Validates candidate policies before they reach the repository."""

    def __init__(
        self,
        interpreter: Optional[PolicyInterpreter] = None,
        schema: Optional[DomainSchema] = None,
    ):
        self.interpreter = interpreter
        self.schema = schema
        # (tokens, context) of every recorded negative example
        self._known_violations: Set[Tuple[SymbolString, Context]] = set()
        # id(grammar) -> (grammar, diagnostics); the strong reference keeps
        # the id stable for the lifetime of the cache entry
        self._preflight_cache: Dict[int, Tuple[object, List[Diagnostic]]] = {}

    def record_violation(self, example: LabeledExample) -> None:
        """Register a known-bad policy/context pair (negative example);
        a positive example is ignored."""
        if not example.valid:
            self._known_violations.add((example.tokens, example.context))

    # -- static preflight ------------------------------------------------------

    def preflight(self, model: GenerativePolicyModel) -> List[Diagnostic]:
        """Static diagnostics for the model's effective grammar ``G : H``.

        The quality-checker half of the PCP (Figure 2) that needs no
        examples: the grammar and its annotation programs are linted
        (:func:`repro.analysis.lint_asg`) and the findings cached per
        effective grammar, so repeated ``check_policy`` calls against
        one model version lint once.
        """
        grammar = model.grammar
        cached = self._preflight_cache.get(id(grammar))
        if cached is not None and cached[0] is grammar:
            return cached[1]
        diagnostics = lint_asg(grammar, source=f"gpm v{model.version}")
        self._preflight_cache[id(grammar)] = (grammar, diagnostics)
        return diagnostics

    # -- violation detector ---------------------------------------------------

    def check_policy(
        self,
        policy: StoredPolicy,
        model: GenerativePolicyModel,
        context: Context,
    ) -> CheckOutcome:
        """Violation detection for a single candidate policy.

        A candidate is rejected if it (a) comes from a model whose
        effective grammar has *error*-severity static diagnostics
        (:meth:`preflight`; warnings and infos do not reject), (b) is
        not in the model's language for the context (non-conformance —
        relevant for *shared* policies learned elsewhere; a membership
        check that raises a :class:`ReproError` rejects the policy as
        undecided), or (c) matches a recorded negative example in an
        equal context.
        """
        reasons: List[str] = []
        for diagnostic in self.preflight(model):
            if diagnostic.is_error:
                reasons.append(f"static analysis: {diagnostic.format()}")
        try:
            if not model.valid(policy.tokens, context):
                reasons.append("not in L(G(C)) for the local context")
        except ReproError as error:
            reasons.append(f"membership undecided: {error}")
        if (policy.tokens, context) in self._known_violations:
            reasons.append("matches a recorded negative example")
        if self.interpreter is not None:
            try:
                self.interpreter(policy.tokens)
            except ReproError as error:
                reasons.append(f"uninterpretable: {error}")
        return CheckOutcome(policy, not reasons, reasons)

    def filter_policies(
        self,
        policies: Iterable[StoredPolicy],
        model: GenerativePolicyModel,
        context: Context,
    ) -> Tuple[List[StoredPolicy], List[CheckOutcome]]:
        """Partition candidates into accepted policies and rejections."""
        accepted: List[StoredPolicy] = []
        rejected: List[CheckOutcome] = []
        for policy in policies:
            outcome = self.check_policy(policy, model, context)
            if outcome.accepted:
                accepted.append(policy)
            else:
                rejected.append(outcome)
        return accepted, rejected

    # -- quality checker --------------------------------------------------------

    def quality_report(
        self,
        policies: Sequence[StoredPolicy],
        check_completeness: bool = False,
    ) -> QualityReport:
        """Run the Section V.A quality metrics over the structured forms
        of the stored policies (requires an interpreter and schema)."""
        if self.interpreter is None or self.schema is None:
            raise ReproError(
                "quality_report requires the PCP to have an interpreter and schema"
            )
        structured: List[Policy] = []
        seen = set()
        for stored in policies:
            policy = self.interpreter(stored.tokens)
            if policy.policy_id not in seen:
                seen.add(policy.policy_id)
                structured.append(policy)
        return assess(
            structured,
            self.schema,
            check_completeness=check_completeness,
        )
