"""A fast learner for *decomposable* tasks.

Many of the paper's learning tasks have hypothesis spaces whose rules do
not interact:

* **definite-rule spaces** (e.g. ``decision(permit) :- role(dba).`` over
  a deny-by-default background): a hypothesis covers a permit example
  iff *some* selected rule fires, and violates a deny example iff some
  selected rule fires on it;
* **constraint spaces over unambiguous grammars with definite
  annotations**: a hypothesis rejects a negative example iff *some*
  selected constraint kills its (unique) answer set, and breaks a
  positive iff some selected constraint does.

For such tasks coverage decomposes over single candidates, so learning
reduces to weighted set cover: read per-candidate coverage vectors
from the oracle's coverage rows (its single-rule verdicts, computed once
per example), then branch-and-bound for the minimum-cost selection.  Because
decomposability is an *assumption*, the result is always re-verified
with the full oracle; on mismatch the caller should fall back to
:class:`~repro.learning.ilasp.ILASPLearner` (see :func:`learn_auto`).
"""

from __future__ import annotations

import contextlib
import time
from typing import List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.mode_lint import lint_task
from repro.errors import LearningError, ResourceError, UnsatisfiableTaskError
from repro.learning.ilasp import ILASPLearner, LearnedHypothesis
from repro.learning.mode_bias import CandidateRule
from repro.runtime.budget import Budget, budget_scope
from repro.telemetry import span as _tele_span

__all__ = ["DecomposableLearner", "learn_auto"]


class _ExampleModel:
    """How one example constrains candidate selection.

    ``needs_one`` examples are satisfied when at least one selected
    candidate has its (good) flag set (or ``already`` — satisfied by the
    empty hypothesis) *and* no selected candidate has its ``bad_flags``
    bit set (a candidate may derive a decision the example excludes,
    breaking it regardless of coverage).  ``needs_none`` examples are
    satisfied when no selected candidate has its flag set (and
    ``already`` must hold for the empty hypothesis).
    """

    __slots__ = ("kind", "flags", "bad_flags", "already", "weight")

    def __init__(
        self,
        kind: str,
        flags: List[bool],
        already: bool,
        weight: int,
        bad_flags: Optional[List[bool]] = None,
    ):
        self.kind = kind
        self.flags = flags
        self.bad_flags = bad_flags
        self.already = already
        self.weight = weight

    def broken_by(self, index: int) -> bool:
        return self.bad_flags is not None and self.bad_flags[index]


class DecomposableLearner:
    """Set-cover learning with final full-oracle verification."""

    def __init__(
        self,
        task,
        max_rules: int = 6,
        max_violations: int = 0,
        max_nodes: int = 200_000,
        budget: Optional[Budget] = None,
    ):
        self.task = task
        self.max_rules = max_rules
        self.max_violations = max_violations
        self.max_nodes = max_nodes
        self.budget = budget
        self._constraints_only = task.constraints_only()
        # oracle calls made by the last learn(), reported as ``checks``
        self._checks = 0
        # static task diagnostics, populated by learn() before the search
        self.diagnostics: List[Diagnostic] = []

    # -- counted oracle calls ------------------------------------------------

    def _positive_holds(self, hypothesis: Sequence[CandidateRule], example) -> bool:
        self._checks += 1
        return self.task.positive_holds(hypothesis, example)

    def _negative_holds(self, hypothesis: Sequence[CandidateRule], example) -> bool:
        self._checks += 1
        return self.task.negative_holds(hypothesis, example)

    # -- building the decomposed model ------------------------------------

    @staticmethod
    def _distinct(examples) -> List[Tuple[object, int]]:
        """Equal examples (repeated log entries) once each, with their
        summed weight, in first-occurrence order: equal examples get
        identical models, so checking each once changes no result."""
        weights: dict = {}
        for example in examples:
            weights[example] = weights.get(example, 0) + example.weight
        return list(weights.items())

    def _row(self, example, size: int) -> Tuple[bool, List[bool]]:
        """The example's coverage row: its empty-hypothesis verdict and,
        per candidate, its single-candidate verdict.  Counted as the
        ``1 + size`` checks it stands for."""
        self._checks += 1 + size
        base, bits = self.task.coverage_row(example)
        return base, [digit == "1" for digit in f"{bits:0{size}b}"[::-1][:size]]

    def _build_models(self, space: Sequence[CandidateRule]) -> List[_ExampleModel]:
        models: List[_ExampleModel] = []
        for example, weight in self._distinct(self.task.positive):
            base, holds = self._row(example, len(space))
            if self._constraints_only or base:
                # already satisfied (or constraint-style): stay unbroken;
                # flag = candidate *breaks* it
                breaks = [not h for h in holds]
                models.append(_ExampleModel("needs_none", breaks, base, weight))
            else:  # flag = candidate covers it
                bad_flags = self._bad_flags(space, example, holds)
                models.append(_ExampleModel("needs_one", holds, base, weight, bad_flags))
        for example, weight in self._distinct(self.task.negative):
            # the empty hypothesis rejects it iff it is not covered
            covered, holds = self._row(example, len(space))
            if self._constraints_only:  # flag = candidate rejects it
                rejects = [covered and not h for h in holds]
                models.append(_ExampleModel("needs_one", rejects, not covered, weight))
            else:  # flag = candidate violates it
                models.append(_ExampleModel("needs_none", holds, not covered, weight))
        return models

    def _bad_flags(
        self,
        space: Sequence[CandidateRule],
        example,
        good_flags: List[bool],
    ) -> Optional[List[bool]]:
        """Per-candidate "breaks this example" flags for union-semantics
        tasks: candidate c breaks example e when pairing c with a known
        covering candidate g still fails (so c derives something e
        excludes).  Requires at least one covering candidate; without
        one the example is hopeless anyway and bad flags are moot."""
        witness = None
        for index, good in enumerate(good_flags):
            if good:
                witness = space[index]
                break
        if witness is None:
            return None
        bad = []
        for index, candidate in enumerate(space):
            if good_flags[index] or candidate is witness:
                bad.append(False)
                continue
            bad.append(
                not self._positive_holds([witness, candidate], example)
            )
        return bad

    @staticmethod
    def _dedupe(models: List[_ExampleModel]) -> List[_ExampleModel]:
        """Merge identical example models, summing weights (repeated log
        entries are common in sampled datasets)."""
        merged: dict = {}
        for model in models:
            key = (
                model.kind,
                tuple(model.flags),
                tuple(model.bad_flags) if model.bad_flags is not None else None,
                model.already,
            )
            existing = merged.get(key)
            if existing is None:
                merged[key] = _ExampleModel(
                    model.kind, model.flags, model.already, model.weight, model.bad_flags
                )
            else:
                existing.weight += model.weight
        return list(merged.values())

    # -- search --------------------------------------------------------------

    def _search(
        self, space: Sequence[CandidateRule], models: Sequence[_ExampleModel]
    ) -> Optional[List[int]]:
        """Branch-and-bound set cover, branching on uncovered examples.

        At each node, pick the unsatisfied needs-one example with the
        fewest remaining coverers and branch over (a) each candidate
        covering it, and (b) skipping it when the violation budget
        allows.  Depth is bounded by ``max_rules`` selections plus the
        budgeted skips, so the search stays polynomial in practice.
        """
        needs_one = [m for m in models if m.kind == "needs_one" and not m.already]
        best: Optional[List[int]] = None
        best_cost = float("inf")
        nodes = [0]

        # Greedy warm start: a quick feasible cover gives the B&B a tight
        # upper bound to prune against.
        greedy = self._greedy(space, models, needs_one)
        if greedy is not None:
            best = greedy
            best_cost = sum(space[i].cost for i in greedy)

        def node_violations(selected: List[int], skipped_weight: int) -> int:
            # skips + needs_none violations + needs_one examples broken
            # by the current selection
            total = skipped_weight
            for model in models:
                if model.kind == "needs_none":
                    if not model.already or any(model.flags[i] for i in selected):
                        total += model.weight
                elif any(model.broken_by(i) for i in selected):
                    total += model.weight
            return total

        def dfs(selected: List[int], cost: float, skipped: List[_ExampleModel], skipped_weight: int) -> None:
            nonlocal best, best_cost
            nodes[0] += 1
            if nodes[0] > self.max_nodes or cost >= best_cost:
                return
            if node_violations(selected, skipped_weight) > self.max_violations:
                return
            uncovered = [
                m
                for m in needs_one
                if m not in skipped
                and not any(m.flags[i] for i in selected)
                and not any(m.broken_by(i) for i in selected)  # broken = counted above
            ]
            if not uncovered:
                best = list(selected)
                best_cost = cost
                return
            # branch on the hardest example (fewest coverers)
            def coverer_count(model: _ExampleModel) -> int:
                return sum(
                    1 for i in range(len(space)) if model.flags[i] and i not in selected
                )

            example = min(uncovered, key=coverer_count)
            coverers = sorted(
                (i for i in range(len(space)) if example.flags[i] and i not in selected),
                key=lambda i: space[i].cost,
            )[:16]  # beam cap: bounded branching, greedy bound keeps quality
            if len(selected) < self.max_rules:
                for index in coverers:
                    selected.append(index)
                    dfs(selected, cost + space[index].cost, skipped, skipped_weight)
                    selected.pop()
            if skipped_weight + example.weight <= self.max_violations:
                skipped.append(example)
                dfs(selected, cost, skipped, skipped_weight + example.weight)
                skipped.pop()

        dfs([], 0.0, [], 0)
        return best

    def _greedy(
        self,
        space: Sequence[CandidateRule],
        models: Sequence[_ExampleModel],
        needs_one: Sequence[_ExampleModel],
    ) -> Optional[List[int]]:
        """Greedy weighted set cover; returns a feasible selection or None.

        Only valid as a warm start in strict mode (violating candidates
        already filtered); with a violation budget the B&B handles skips.
        """
        if self.max_violations > 0:
            return None
        selected: List[int] = []
        uncovered = [m for m in needs_one]
        while uncovered and len(selected) < self.max_rules:
            best_index = None
            best_ratio = 0.0
            for index in range(len(space)):
                if index in selected:
                    continue
                gain = sum(m.weight for m in uncovered if m.flags[index])
                if gain <= 0:
                    continue
                ratio = gain / space[index].cost
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_index = index
            if best_index is None:
                return None
            selected.append(best_index)
            uncovered = [m for m in uncovered if not m.flags[best_index]]
        if uncovered:
            return None
        # needs_none examples must also hold (candidates are pre-filtered
        # in strict mode, but an already-violated example is fatal)
        for model in models:
            if model.kind == "needs_none" and not model.already:
                return None
        return selected

    def learn(self) -> LearnedHypothesis:
        scope = (
            budget_scope(self.budget)
            if self.budget is not None
            else contextlib.nullcontext()
        )
        with scope, _tele_span(
            "learn.decomposable", space=len(self.task.hypothesis_space)
        ) as sp:
            self.diagnostics = lint_task(self.task)
            if self.diagnostics:
                sp.incr("learner.lint_findings", len(self.diagnostics))
                sp.incr(
                    "learner.lint_errors",
                    sum(1 for d in self.diagnostics if d.is_error),
                )
            self._checks = 0
            try:
                result = self._learn()
            finally:
                sp.incr("learner.checks", self._checks)
            sp.incr("learner.hypotheses_learned")
            sp.set(
                cost=result.cost,
                violations=result.violations,
                rules=len(result.candidates),
            )
            return result

    def _learn(self) -> LearnedHypothesis:
        start = time.monotonic()
        space = list(self.task.hypothesis_space)
        models = self._dedupe(self._build_models(space))

        # Hard-filter candidates that break any example (a needs_none
        # example's flag, or a needs_one example's bad flag), unless a
        # violation budget could absorb it (then keep them in play).
        if self.max_violations == 0:
            def breaks_something(i: int) -> bool:
                for m in models:
                    if m.kind == "needs_none" and m.flags[i]:
                        return True
                    if m.kind == "needs_one" and m.broken_by(i):
                        return True
                return False

            allowed = [i for i in range(len(space)) if not breaks_something(i)]
            space_f = [space[i] for i in allowed]
            models_f = [
                _ExampleModel(
                    m.kind,
                    [m.flags[i] for i in allowed],
                    m.already,
                    m.weight,
                    [m.bad_flags[i] for i in allowed]
                    if m.bad_flags is not None
                    else None,
                )
                for m in models
            ]
        else:
            space_f, models_f = space, models

        selected = self._search(space_f, models_f)
        if selected is None:
            raise UnsatisfiableTaskError(
                "no decomposable hypothesis within limits "
                f"({self.max_rules} rules, {self.max_violations} violations)"
            )
        hypothesis = [space_f[i] for i in selected]
        violations = self._verify(hypothesis)
        if violations is None or violations > self.max_violations:
            raise LearningError(
                "decomposability assumption failed verification; "
                "use the exact learner (learn_auto falls back automatically)"
            )
        return LearnedHypothesis(
            hypothesis,
            int(sum(c.cost for c in hypothesis)),
            violations,
            checks=self._checks,
            elapsed=time.monotonic() - start,
            space_size=len(space),
        )

    def _verify(self, hypothesis: Sequence[CandidateRule]) -> Optional[int]:
        """Full-oracle violation count for the found hypothesis."""
        total = 0
        for example, weight in self._distinct(self.task.positive):
            if not self._positive_holds(hypothesis, example):
                total += weight
        for example, weight in self._distinct(self.task.negative):
            if not self._negative_holds(hypothesis, example):
                total += weight
        return total


def learn_auto(
    task,
    max_rules: int = 6,
    max_violations: int = 0,
    auto_violations: bool = True,
    fallback: bool = True,
    budget: Optional[Budget] = None,
    **ilasp_kwargs,
) -> LearnedHypothesis:
    """Try the fast decomposable learner; optionally fall back to the exact one.

    With ``auto_violations`` (the default), an unsatisfiable task is
    retried with exponentially growing violation budgets before any
    fallback — noisy or contradictory example sets (planning-phase data,
    flipped log entries) are the common case in the paper's domains, and
    the decomposable learner absorbs them cheaply via its skip branches.
    The decomposable result is verified against the full oracle before
    being returned, so a successful fast path is always a correct
    solution (though, unlike the exact learner, not guaranteed
    cost-minimal when rules interact).
    """
    scope = budget_scope(budget) if budget is not None else contextlib.nullcontext()
    with scope:
        violation_budgets = [max_violations]
        if auto_violations:
            total_weight = sum(e.weight for e in task.positive) + sum(
                e.weight for e in task.negative
            )
            allowed = max(max_violations, 1)
            while allowed < total_weight:
                allowed *= 2
                violation_budgets.append(min(allowed, total_weight))
        last_error: Optional[LearningError] = None
        for allowed in violation_budgets:
            try:
                return DecomposableLearner(
                    task, max_rules=max_rules, max_violations=allowed
                ).learn()
            except UnsatisfiableTaskError as error:
                last_error = error
            except ResourceError:
                if not fallback:
                    raise
                break  # out of budget on the fast path: let the exact
                # learner degrade gracefully with its best-so-far
            except LearningError as error:
                last_error = error
                break  # verification failure: budgets will not help
        if fallback:
            learner = ILASPLearner(
                task,
                max_rules=min(max_rules, 4),
                max_violations=max_violations,
                **ilasp_kwargs,
            )
            return learner.learn()
        assert last_error is not None
        raise last_error
