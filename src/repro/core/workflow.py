"""The Figure 1 learning workflow.

    initial GPM (ASG)  ──┐
                         ├──>  ILASP-style learner ──> ASP hypothesis
    examples <s, C>   ───┘                                   │
                                                             v
                                              learned GPM (ASG : H)

:func:`learn_gpm` runs the full loop once; :func:`relearn` folds new
examples into an existing model (the PAdaP's adaptation step).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.contexts import Context
from repro.core.gpm import GenerativePolicyModel
from repro.learning.decomposable import learn_auto
from repro.learning.ilasp import LearnedHypothesis
from repro.learning.mode_bias import CandidateRule
from repro.learning.tasks import ASGLearningTask, ContextExample

__all__ = ["LabeledExample", "learn_gpm", "relearn"]


class LabeledExample:
    """A labelled policy observation: string + context + valid/invalid."""

    __slots__ = ("tokens", "context", "valid", "weight")

    def __init__(
        self,
        tokens: Sequence[str],
        context: Optional[Context] = None,
        valid: bool = True,
        weight: int = 1,
    ):
        self.tokens = tuple(tokens)
        self.context = context if context is not None else Context.empty()
        self.valid = valid
        self.weight = weight

    def to_context_example(self) -> ContextExample:
        return ContextExample(
            self.tokens, self.context.program, weight=self.weight
        )

    def __repr__(self) -> str:
        sign = "+" if self.valid else "-"
        return f"{sign}<{' '.join(self.tokens)}>"


def _split(
    examples: Sequence[LabeledExample],
) -> Tuple[List[ContextExample], List[ContextExample]]:
    positive = [e.to_context_example() for e in examples if e.valid]
    negative = [e.to_context_example() for e in examples if not e.valid]
    return positive, negative


def learn_gpm(
    model: GenerativePolicyModel,
    hypothesis_space: Sequence[CandidateRule],
    examples: Sequence[LabeledExample],
    max_violations: int = 0,
    max_rules: int = 4,
    max_cost: int = 12,
    budget=None,
) -> Tuple[GenerativePolicyModel, LearnedHypothesis]:
    """One pass of the Figure 1 workflow.

    The learner starts from the model's *initial* grammar (not the
    previously learned one), so stale rules are dropped rather than
    accumulated — re-learning with a grown example set subsumes the old
    hypothesis, exactly as in the paper's workflow where the learned ASG
    replaces the model.  Every version of a model carries the coverage
    oracle of its last learning task (``model.lineage``), so an example
    that an earlier pass already compiled is not compiled again.
    """
    positive, negative = _split(examples)
    task = ASGLearningTask(
        model.initial, hypothesis_space, positive, negative, oracle=model.lineage.oracle
    )
    model.lineage.oracle = task.oracle
    result = learn_auto(
        task,
        max_violations=max_violations,
        max_rules=max_rules,
        auto_violations=False,
        max_cost=max_cost,
        budget=budget,
    )
    return model.with_hypothesis(result.candidates), result


def relearn(
    model: GenerativePolicyModel,
    hypothesis_space: Sequence[CandidateRule],
    old_examples: Sequence[LabeledExample],
    new_examples: Sequence[LabeledExample],
    **learn_kwargs,
) -> Tuple[GenerativePolicyModel, LearnedHypothesis]:
    """Adaptation: relearn over the accumulated example set."""
    return learn_gpm(
        model, hypothesis_space, list(old_examples) + list(new_examples), **learn_kwargs
    )
