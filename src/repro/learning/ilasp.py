"""The inductive learner: optimal subset search over a hypothesis space.

Plays the role ILASP plays in the paper's Figure 1 workflow.  Given a
task exposing ``positive_holds`` / ``negative_holds`` oracles (either an
:class:`~repro.learning.tasks.ASGLearningTask` or a
:class:`~repro.learning.tasks.LASTask`), the learner finds a
minimal-cost hypothesis ``H ⊆ S_M`` covering the examples.

Search strategy
---------------

Iterative deepening on total hypothesis cost guarantees the returned
hypothesis is cost-minimal (as ILASP's are).  Within a budget, a DFS
over candidate inclusion explores subsets; all oracle calls are memoized
on ``(hypothesis key, example)``.

When the space is *constraints-only* the learner exploits two
monotonicity facts (adding a constraint can only shrink the set of
answer sets / the ASG language):

* a candidate that alone breaks a positive example can never occur in
  any solution — such candidates are pruned up-front;
* once a partial hypothesis breaks more positive examples than the
  violation budget allows, no superset can recover — the branch is cut.

Noise is handled via ``max_violations``: a hypothesis is acceptable if
the total weight of uncovered examples is at most the budget, mirroring
ILASP's noisy-example support.  ``learn`` tries violation budgets
``0..max_violations`` in order, so the returned hypothesis violates as
few examples as possible, with cost as a tie-break.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.mode_lint import lint_task
from repro.errors import LearningError, ResourceError, UnsatisfiableTaskError
from repro.learning.mode_bias import CandidateRule
from repro.runtime.budget import Budget, budget_scope
from repro.telemetry import span as _tele_span

__all__ = ["LearnedHypothesis", "ILASPLearner", "learn"]


class LearnedHypothesis:
    """The result of a learning run: the hypothesis and search statistics.

    The statistics mirror what the ILASP system prints per run:

    * ``checks`` — calls the learner made into the task's coverage oracle
      (for the exact learner, those its own memo did not answer);
    * ``memo_hits`` — oracle calls answered from the memo table;
    * ``space_size`` — hypothesis-space size after monotonicity
      prefiltering (the candidates the search really explored);
    * ``iterations`` — (violation budget, cost budget) refinement rounds
      of the iterative-deepening outer loop;
    * ``elapsed`` — wall-clock seconds for the whole search.

    ``degraded`` marks a best-so-far hypothesis returned because a
    resource budget ran out before the search completed: it is the
    least-violating (then cheapest) hypothesis evaluated so far, with no
    optimality guarantee.
    """

    def __init__(
        self,
        candidates: List[CandidateRule],
        cost: int,
        violations: int,
        checks: int,
        elapsed: float,
        degraded: bool = False,
        space_size: int = 0,
        memo_hits: int = 0,
        iterations: int = 0,
    ):
        self.candidates = candidates
        self.cost = cost
        self.violations = violations
        self.checks = checks
        self.elapsed = elapsed
        self.degraded = degraded
        self.space_size = space_size
        self.memo_hits = memo_hits
        self.iterations = iterations

    @property
    def rules(self):
        """The learned rules as ``(rule, production id)`` pairs."""
        return [(c.rule, c.prod_id) for c in self.candidates]

    def stats(self) -> Dict[str, int]:
        """The search statistics as a flat dict (for reports/telemetry)."""
        return {
            "cost": self.cost,
            "violations": self.violations,
            "checks": self.checks,
            "memo_hits": self.memo_hits,
            "space_size": self.space_size,
            "iterations": self.iterations,
            "degraded": int(self.degraded),
        }

    def __repr__(self) -> str:
        lines = [f"cost={self.cost} violations={self.violations} checks={self.checks}"]
        lines += [f"  {c!r}" for c in self.candidates]
        return "\n".join(lines)


class ILASPLearner:
    """Optimal hypothesis search over an explicit hypothesis space."""

    def __init__(
        self,
        task,
        max_cost: int = 12,
        max_rules: int = 4,
        max_checks: int = 500_000,
        max_violations: int = 0,
        budget: Optional[Budget] = None,
        degrade_on_exhaustion: bool = True,
    ):
        self.task = task
        self.max_cost = max_cost
        self.max_rules = max_rules
        self.max_checks = max_checks
        self.max_violations = max_violations
        self.budget = budget
        self.degrade_on_exhaustion = degrade_on_exhaustion
        # per-example verdicts of this search, for its checks/memo_hits
        # statistics; candidates hash once, so a hypothesis key is cheap
        self._memo: Dict[Tuple[FrozenSet[CandidateRule], int, bool], bool] = {}
        self._checks = 0
        self._memo_hits = 0
        self._iterations = 0
        self._space_size = 0
        self._constraints_only = task.constraints_only()
        # best-so-far for degraded returns: (violation weight, cost, hypothesis)
        self._best: Optional[Tuple[int, int, List[CandidateRule]]] = None
        # static task diagnostics, populated by learn() before the search
        self.diagnostics: List[Diagnostic] = []

    # -- oracle with memoization ------------------------------------------

    def _positive_ok(self, hypothesis: Sequence[CandidateRule], index: int) -> bool:
        key = (frozenset(hypothesis), index, True)
        cached = self._memo.get(key)
        if cached is None:
            self._bump()
            cached = self.task.positive_holds(hypothesis, self.task.positive[index])
            self._memo[key] = cached
        else:
            self._memo_hits += 1
        return cached

    def _negative_ok(self, hypothesis: Sequence[CandidateRule], index: int) -> bool:
        key = (frozenset(hypothesis), index, False)
        cached = self._memo.get(key)
        if cached is None:
            self._bump()
            cached = self.task.negative_holds(hypothesis, self.task.negative[index])
            self._memo[key] = cached
        else:
            self._memo_hits += 1
        return cached

    def _bump(self) -> None:
        self._checks += 1
        if self.budget is not None:
            self.budget.tick()
        if self._checks > self.max_checks:
            raise LearningError(
                f"learning exceeded {self.max_checks} coverage checks; "
                "shrink the hypothesis space or example set"
            )

    # -- violation accounting ----------------------------------------------

    def _violation_weight(self, hypothesis: Sequence[CandidateRule]) -> int:
        total = 0
        for index, example in enumerate(self.task.positive):
            if not self._positive_ok(hypothesis, index):
                total += example.weight
        for index, example in enumerate(self.task.negative):
            if not self._negative_ok(hypothesis, index):
                total += example.weight
        return total

    def _positive_violation_weight(self, hypothesis: Sequence[CandidateRule]) -> int:
        return sum(
            example.weight
            for index, example in enumerate(self.task.positive)
            if not self._positive_ok(hypothesis, index)
        )

    # -- search --------------------------------------------------------------

    def learn(self) -> LearnedHypothesis:
        """Find a minimal hypothesis; raise :class:`UnsatisfiableTaskError`
        if none exists within the limits.

        Under a resource budget (the learner's own, or an ambient
        :func:`~repro.runtime.budget.budget_scope` governing the oracle's
        solver calls), exhaustion does not kill the run: with
        ``degrade_on_exhaustion`` (the default) the least-violating
        hypothesis evaluated so far is returned with ``degraded=True``.
        """
        start = time.monotonic()
        scope = (
            budget_scope(self.budget)
            if self.budget is not None
            else contextlib.nullcontext()
        )
        with _tele_span(
            "learn.ilasp", space=len(self.task.hypothesis_space)
        ) as sp:
            self.diagnostics = lint_task(self.task)
            if self.diagnostics:
                sp.incr("learner.lint_findings", len(self.diagnostics))
                sp.incr(
                    "learner.lint_errors",
                    sum(1 for d in self.diagnostics if d.is_error),
                )
            try:
                with scope:
                    space = self._prefiltered_space()
                    self._space_size = len(space)
                    sp.set(prefiltered_space=len(space))
                    for allowed in range(0, self.max_violations + 1):
                        found = self._search_with_violations(space, allowed)
                        if found is not None:
                            hypothesis, cost = found
                            result = LearnedHypothesis(
                                hypothesis,
                                cost,
                                self._violation_weight(hypothesis),
                                self._checks,
                                time.monotonic() - start,
                                space_size=self._space_size,
                                memo_hits=self._memo_hits,
                                iterations=self._iterations,
                            )
                            self._record_span(sp, result)
                            return result
            except ResourceError:
                if not self.degrade_on_exhaustion:
                    raise
                result = self._degraded_result(start)
                self._record_span(sp, result)
                return result
            raise UnsatisfiableTaskError(
                f"no hypothesis within cost {self.max_cost}, "
                f"{self.max_rules} rules, {self.max_violations} violations"
            )

    @staticmethod
    def _record_span(sp, result: LearnedHypothesis) -> None:
        sp.incr("learner.checks", result.checks)
        sp.incr("learner.memo_hits", result.memo_hits)
        sp.incr("learner.iterations", result.iterations)
        sp.incr("learner.hypotheses_learned")
        if result.degraded:
            sp.incr("learner.degraded_returns")
        sp.set(
            cost=result.cost,
            violations=result.violations,
            rules=len(result.candidates),
            degraded=result.degraded,
        )

    def _degraded_result(self, start: float) -> LearnedHypothesis:
        """Best-so-far hypothesis after budget exhaustion."""
        if self._best is not None:
            violations, cost, hypothesis = self._best
        else:
            # not even the empty hypothesis was evaluated: report it with
            # the trivial upper bound on violations (every example missed)
            hypothesis, cost = [], 0
            violations = sum(e.weight for e in self.task.positive) + sum(
                e.weight for e in self.task.negative
            )
        return LearnedHypothesis(
            list(hypothesis),
            cost,
            violations,
            self._checks,
            time.monotonic() - start,
            degraded=True,
            space_size=self._space_size,
            memo_hits=self._memo_hits,
            iterations=self._iterations,
        )

    def _note_best(
        self, hypothesis: List[CandidateRule], cost: int, violations: int
    ) -> None:
        if self._best is None or (violations, cost) < self._best[:2]:
            self._best = (violations, cost, list(hypothesis))

    def _prefiltered_space(self) -> List[CandidateRule]:
        space = sorted(self.task.hypothesis_space, key=lambda c: c.cost)
        if not self._constraints_only or self.max_violations > 0:
            return space
        kept = []
        for candidate in space:
            if all(
                self._positive_ok([candidate], i)
                for i in range(len(self.task.positive))
            ):
                kept.append(candidate)
        return kept

    def _search_with_violations(
        self, space: List[CandidateRule], violation_budget: int
    ) -> Optional[Tuple[List[CandidateRule], int]]:
        for cost_budget in range(0, self.max_cost + 1):
            self._iterations += 1
            result = self._dfs(space, 0, [], 0, cost_budget, violation_budget)
            if result is not None:
                return result
        return None

    def _dfs(
        self,
        space: List[CandidateRule],
        index: int,
        current: List[CandidateRule],
        cost: int,
        cost_budget: int,
        violation_budget: int,
    ) -> Optional[Tuple[List[CandidateRule], int]]:
        weight = self._violation_weight(current)
        self._note_best(current, cost, weight)
        if weight <= violation_budget:
            return (list(current), cost)
        if index >= len(space) or len(current) >= self.max_rules:
            return None
        candidate = space[index]
        # include (if it fits the budget)
        if cost + candidate.cost <= cost_budget:
            current.append(candidate)
            prune = (
                self._constraints_only
                and self._positive_violation_weight(current) > violation_budget
            )
            if not prune:
                found = self._dfs(
                    space, index + 1, current, cost + candidate.cost,
                    cost_budget, violation_budget,
                )
                if found is not None:
                    current.pop()
                    return found
            current.pop()
        # exclude
        return self._dfs(space, index + 1, current, cost, cost_budget, violation_budget)


def learn(
    task,
    max_cost: int = 12,
    max_rules: int = 4,
    max_checks: int = 500_000,
    max_violations: int = 0,
    budget: Optional[Budget] = None,
    degrade_on_exhaustion: bool = True,
) -> LearnedHypothesis:
    """Convenience wrapper: build an :class:`ILASPLearner` and run it."""
    return ILASPLearner(
        task,
        max_cost=max_cost,
        max_rules=max_rules,
        max_checks=max_checks,
        max_violations=max_violations,
        budget=budget,
        degrade_on_exhaustion=degrade_on_exhaustion,
    ).learn()
