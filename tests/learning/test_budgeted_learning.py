"""Resource-governed learning: degraded best-so-far hypotheses."""

import pytest

from repro.asp.atoms import Atom, Literal
from repro.asp.terms import Constant
from repro.asg import parse_asg
from repro.errors import BudgetExceededError
from repro.learning import ASGLearningTask, ContextExample, constraint_space, learn
from repro.runtime.budget import Budget

GRAMMAR = """
policy -> "allow" subject action
subject -> "alice" { is(alice). }
subject -> "bob"   { is(bob). }
action  -> "read"  { is(read). }
action  -> "write" { is(write). }
"""


def make_task():
    pool = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob")]
    pool += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write")]
    return ASGLearningTask(
        parse_asg(GRAMMAR),
        constraint_space(pool, prod_ids=(0,), max_body=2),
        positive=[
            ContextExample.from_text("allow alice read"),
            ContextExample.from_text("allow bob write"),
        ],
        negative=[
            ContextExample.from_text("allow alice write"),
            ContextExample.from_text("allow bob read"),
        ],
    )


def too_small_budget():
    """Half the steps a complete run of ``make_task`` takes."""
    measured = Budget()
    learn(make_task(), budget=measured)
    assert measured.steps_used > 2
    return Budget(max_steps=measured.steps_used // 2)


def test_unbudgeted_learning_is_not_degraded():
    result = learn(make_task())
    assert not result.degraded
    assert result.cost == 4


def test_exhausted_budget_returns_degraded_best_so_far():
    result = learn(make_task(), budget=too_small_budget())
    assert result.degraded
    # a usable (possibly imperfect) hypothesis, not an exception
    assert result.cost >= 0
    assert isinstance(result.candidates, list)


def test_degradation_can_be_disabled():
    with pytest.raises(BudgetExceededError):
        learn(make_task(), budget=too_small_budget(), degrade_on_exhaustion=False)


def test_generous_budget_matches_unbudgeted_result():
    budget = Budget(max_steps=50_000_000)
    governed = learn(make_task(), budget=budget)
    free = learn(make_task())
    assert not governed.degraded
    assert governed.cost == free.cost
    assert budget.steps_used > 0
