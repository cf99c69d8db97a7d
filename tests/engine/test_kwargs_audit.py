"""Kwarg alignment across the public solving surface.

The serving API redesign promises one vocabulary everywhere: anything
that grounds or solves accepts ``budget=``; anything that enumerates
models accepts ``max_models=``; anything touching the solver accepts
``use_fast_path=``.  These tests pin the signatures *and* exercise the
threading (a flag accepted but dropped would pass a pure signature
check).
"""

import inspect

import pytest

from repro.asp import is_satisfiable_text, solve_text
from repro.asp.parser import parse_program
from repro.asp.solver import SolveResult, solve
from repro.asg import accepting_witness, accepts, parse_asg, tree_answer_sets
from repro.learning.decomposable import DecomposableLearner
from repro.learning.ilasp import ILASPLearner
from repro.learning.tasks import ASGLearningTask, LASTask
from repro.runtime.budget import Budget


def params(func):
    return set(inspect.signature(func).parameters)


@pytest.mark.parametrize("func", [solve, solve_text])
def test_solver_entrypoints_share_knobs(func):
    assert {"max_models", "budget", "max_steps", "use_fast_path"} <= params(func)


@pytest.mark.parametrize("func", [is_satisfiable_text])
def test_satisfiability_entrypoints(func):
    assert {"budget", "use_fast_path"} <= params(func)


@pytest.mark.parametrize("func", [accepts, accepting_witness])
def test_membership_entrypoints(func):
    assert {"max_trees", "budget", "use_fast_path"} <= params(func)


def test_tree_answer_sets_knobs():
    assert {"max_models", "budget", "use_fast_path"} <= params(tree_answer_sets)


@pytest.mark.parametrize("cls", [ASGLearningTask, LASTask])
def test_tasks_accept_use_fast_path(cls):
    assert "use_fast_path" in params(cls.__init__)


@pytest.mark.parametrize("cls", [ILASPLearner, DecomposableLearner])
def test_learners_accept_budget(cls):
    assert "budget" in params(cls.__init__)


@pytest.mark.parametrize("func", [solve_text, solve])
def test_entrypoints_return_solve_result(func):
    program_or_text = "a. b :- a."
    if func is not solve_text:
        program_or_text = parse_program(program_or_text)
    result = func(program_or_text)
    assert isinstance(result, SolveResult)
    assert isinstance(result, list)  # list-compatible for legacy callers
    assert result.stats.models == len(result) == 1


def test_use_fast_path_is_actually_threaded():
    # a stratified, tight program: the fast path records stability skips;
    # disabling it must reach the solver (skips stay 0)
    text = "p(1..3). q(X) :- p(X)."
    fast = solve_text(text)
    slow = solve_text(text, use_fast_path=False)
    assert list(fast) == list(slow)
    assert fast.stats.stability_skips > 0
    assert slow.stats.stability_skips == 0


def test_budget_is_actually_threaded():
    from repro.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        solve_text(" ".join("{ a%d }." % i for i in range(12)), budget=Budget(max_steps=200))


def test_asg_fast_path_threaded_through_membership():
    asg = parse_asg(
        """
start -> elem { :- value(2)@1. }
elem -> "x" { value(1). }
elem -> "y" { value(2). }
"""
    )
    assert accepts(asg, ("x",), use_fast_path=False) is True
    assert accepts(asg, ("y",), use_fast_path=False) is False


def test_engine_constructor_forwards_pdp_kwargs():
    # budget_factory / strategy / breaker reach the inner PDP untouched
    assert {"budget_factory", "strategy", "breaker"} <= params(
        __import__("repro.agenp.pdp", fromlist=["PolicyDecisionPoint"])
        .PolicyDecisionPoint.__init__
    )
