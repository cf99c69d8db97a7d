"""Confidence values for learned rules (paper Sections IV.C and V.C).

"Gathering statistical information on the example dataset and
contextual information can help one prioritizing the examples by
assigning weights to them or to associate confidence values with the
generated policies" (IV.C); "causal rules must be rigorously verified
and tested by data analysis and certainty values should be associated
with rules" (V.C).

For each learned rule we compute, over the training examples:

* **support** — how many examples the rule participates in deciding
  (for a constraint: the examples it rejects; for a definite rule: the
  examples it covers);
* **confidence** — a Laplace-smoothed estimate that the rule's
  involvement agrees with the labels;
* **necessity** — whether dropping the rule breaks some example
  (redundant rules get ``necessity=False``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro.learning.mode_bias import CandidateRule

__all__ = ["RuleConfidence", "score_hypothesis"]


class RuleConfidence(NamedTuple):
    """Statistical annotations for one learned rule."""

    rule_text: str
    support: int
    confidence: float
    necessary: bool


def score_hypothesis(
    task, hypothesis: Sequence[CandidateRule]
) -> List[RuleConfidence]:
    """Annotate each rule of a learned hypothesis with its statistics.

    Support/confidence come from leave-one-rule-out analysis: a rule's
    support is the number of examples whose status *changes* when the
    rule is dropped; confidence is the smoothed fraction of those
    changes that move from satisfied to violated (i.e. the rule is doing
    correct work).  ``task`` is the learning task the hypothesis solves
    (its oracles are reused, so memoized learners stay cheap).
    """
    out: List[RuleConfidence] = []
    full = list(hypothesis)
    for index, candidate in enumerate(full):
        reduced = full[:index] + full[index + 1 :]
        helps = 0
        hurts = 0
        for example in task.positive:
            with_rule = task.positive_holds(full, example)
            without = task.positive_holds(reduced, example)
            if with_rule and not without:
                helps += example.weight
            elif without and not with_rule:
                hurts += example.weight
        for example in task.negative:
            with_rule = task.negative_holds(full, example)
            without = task.negative_holds(reduced, example)
            if with_rule and not without:
                helps += example.weight
            elif without and not with_rule:
                hurts += example.weight
        support = helps + hurts
        confidence = (helps + 1) / (support + 2)  # Laplace smoothing
        out.append(
            RuleConfidence(
                rule_text=repr(candidate.rule),
                support=support,
                confidence=confidence,
                necessary=helps > 0,
            )
        )
    return out
