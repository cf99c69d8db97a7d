"""Coverage rows against the per-candidate checks they stand for.

``coverage_row(e)`` answers, in one call, the empty-hypothesis check and
every single-candidate check of ``e``.  On seeded LAS and ASG tasks it
must equal ``(holds([], e), [holds([c], e) for c in space])`` computed
by a separate task, whatever path compiled the example: duplicate
candidates, plain-fact contexts sharing one string compile (also across
a universe growth), rule contexts, a verdict-only string compile and an
example with no relevant guard.  A PAdaP that re-learns over one
lineage oracle, reusing rows, must learn what fresh tasks learn, with
the same ``checks``.
"""

import pytest

from repro.agenp import AutonomousManagedSystem, FieldInterpreter, PolicySpecification
from repro.agenp import padap as padap_module
from repro.asg import parse_asg
from repro.asp.atoms import Atom, Literal
from repro.asp.parser import parse_program
from repro.asp.rules import NormalRule, Program
from repro.asp.terms import Constant
from repro.core import Context, LabeledExample, learn_gpm
from repro.learning import (
    ASGLearningTask,
    CandidateRule,
    ContextExample,
    LASTask,
    PartialInterpretation,
)
from repro.learning.tasks import _ASGOracle
from repro.runtime import Budget, budget_scope
from tests.agenp.conftest import GRAMMAR, hypothesis_space
from tests.learning.test_compiled_oracle import random_asg_task, random_las_task


def expected_row(task, example):
    singles = [task.positive_holds([c], example) for c in task.hypothesis_space]
    return task.positive_holds([], example), singles


def assert_rows_match(make_task):
    """Rows from one task equal the checks of another built the same way,
    example by example in the same order (so universes grow alike), and
    tick the budget as often: the same compiles, solves and check count."""
    by_row, by_holds = make_task(), make_task()
    size = len(by_row.hypothesis_space)
    for example in by_row.positive + by_row.negative:
        row_budget, holds_budget = Budget(), Budget()
        with budget_scope(row_budget):
            base, bits = by_row.coverage_row(example)
        with budget_scope(holds_budget):
            expected = expected_row(by_holds, example)
        assert bits >> size == 0
        row = (base, [bool(bits >> i & 1) for i in range(size)])
        assert row == expected, example
        assert row_budget.steps_used == holds_budget.steps_used
        # a row read after the checks comes from the same verdicts
        assert by_holds.coverage_row(example) == (base, bits)
        assert by_row.coverage_row(example) == (base, bits)


def test_a_stored_row_ticks_the_budget_once_per_check_it_stands_for():
    task = random_las_task(0)[0]
    example = task.positive[0]
    task.coverage_row(example)
    budget = Budget()
    with budget_scope(budget):
        task.coverage_row(example)
    assert budget.steps_used == 1 + len(task.hypothesis_space)


def with_duplicates(task):
    return task.hypothesis_space + task.hypothesis_space[::3]


@pytest.mark.parametrize("seed", range(8))
def test_las_rows_match_single_candidate_checks(seed):
    assert_rows_match(lambda: random_las_task(seed)[0])


@pytest.mark.parametrize("seed", range(8))
def test_asg_rows_match_single_candidate_checks(seed):
    # "c." is plain; "d. c :- d." takes the rule-context compile
    assert_rows_match(lambda: random_asg_task(seed)[0])


@pytest.mark.parametrize("seed", range(4))
def test_rows_of_a_space_with_duplicate_candidates(seed):
    def las():
        task = random_las_task(seed)[0]
        return LASTask(task.background, with_duplicates(task), task.positive, [])

    def asg():
        task = random_asg_task(seed)[0]
        return ASGLearningTask(
            task.initial,
            with_duplicates(task),
            task.positive,
            [],
            context_placement=task.context_placement,
        )

    assert_rows_match(las)
    assert_rows_match(asg)
    task = las()
    size = len(task.hypothesis_space)
    assert size > len(task._guards)
    __, bits = task.coverage_row(task.positive[0])
    for position, candidate in enumerate(task.hypothesis_space):
        first = task.hypothesis_space.index(candidate)
        assert bits >> position & 1 == bits >> first & 1


def access_task(contexts, negative=()):
    """The access-control grammar, one string under each context text."""
    examples = [
        ContextExample.from_text(string, context)
        for string, context in contexts
    ]
    return ASGLearningTask(
        parse_asg(GRAMMAR),
        hypothesis_space(),
        examples,
        [ContextExample.from_text(string, context) for string, context in negative],
    )


def test_rows_of_plain_fact_contexts_across_universe_growth():
    contexts = [
        ("allow bob write", "emergency."),
        ("allow bob write", ""),
        ("allow alice read", "emergency."),
        ("allow bob write", "drill."),  # grows the universe: compiles again
        ("allow bob write", "emergency. drill."),
    ]
    assert_rows_match(lambda: access_task(contexts[:3], contexts[3:]))
    task = access_task(contexts)
    for example in task.positive:
        task.coverage_row(example)
    compiled = [task.oracle._compiled[e] for e in task.positive]
    assert compiled[0].source is compiled[1].source  # one string compile
    assert compiled[3].source is not compiled[0].source  # the universe grew
    assert compiled[4].source is compiled[3].source
    assert all(c.source is not None for c in compiled)


def test_rows_of_rule_contexts():
    contexts = [
        ("allow bob write", "emergency :- drill. drill."),
        ("allow alice write", "emergency :- drill."),
    ]
    assert_rows_match(lambda: access_task(contexts))
    task = access_task(contexts)
    task.coverage_row(task.positive[0])
    assert task.oracle._compiled[task.positive[0]].source is None


def test_row_of_a_verdict_only_string_compile():
    # no parse tree: no solver, so no external, one verdict in every context
    contexts = [("allow bob", "emergency."), ("allow bob", "")]
    assert_rows_match(lambda: access_task(contexts))
    task = access_task(contexts)
    assert task.coverage_row(task.positive[0]) == (False, 0)
    assert task.oracle._compiled[task.positive[0]].source.verdict is False


def test_row_of_an_example_with_no_relevant_guard():
    role = Atom("role", [Constant("dba")])
    space = [
        CandidateRule(NormalRule(Atom("x"), [Literal(role)])),
        CandidateRule(NormalRule(None, [Literal(role)])),
    ]
    background = parse_program("x :- not y.")

    def make():
        examples = [
            PartialInterpretation([Atom("x")], context=parse_program("role(dev).")),
            PartialInterpretation([Atom("y")], context=Program()),
        ]
        return LASTask(background, space, examples, [])

    assert_rows_match(make)
    task = make()
    assert task.coverage_row(task.positive[0]) == (True, 0b11)
    assert task.coverage_row(task.positive[1]) == (False, 0)
    for example in task.positive:
        compiled = task._compiled[example]
        assert not compiled.relevant and not compiled.solvers


# -- a PAdaP re-learning over one lineage oracle -------------------------------

NORMAL = Context.from_attributes({}, name="normal")
EMERGENCY = Context.from_attributes({"emergency": True}, name="emergency")
DRILL = Context.from_attributes({"emergency": True, "drill": True}, name="drill")

# (tokens, context, valid) per adaptation
FEEDBACK = [
    [("allow bob write", NORMAL, False), ("allow alice read", NORMAL, True)],
    [("allow alice write", EMERGENCY, True), ("allow bob write", EMERGENCY, False)],
    [("allow alice write", NORMAL, False), ("allow bob read", DRILL, True)],
    [("allow bob write", DRILL, True), ("allow alice read", EMERGENCY, True)],
]


def adapt_four_times(monkeypatch, fresh_tasks):
    learned = []

    def recording_learn_gpm(*args, **kwargs):
        model, result = learn_gpm(*args, **kwargs)
        learned.append((model.hypothesis, result.checks, result.violations))
        return model, result

    monkeypatch.setattr(padap_module, "learn_gpm", recording_learn_gpm)
    if fresh_tasks:
        monkeypatch.setattr(_ASGOracle, "serves", lambda oracle, task: False)
    specification = PolicySpecification(GRAMMAR, hypothesis_space=hypothesis_space())
    interpreter = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    ams = AutonomousManagedSystem("ams", specification, interpreter)
    ams.bootstrap(NORMAL)
    oracles = set()
    for feedback in FEEDBACK:
        for text, context, valid in feedback:
            ams.add_example(LabeledExample(text.split(), context, valid=valid))
        ams.adapt()
        oracles.add(id(ams.model().lineage.oracle))
    monkeypatch.undo()
    return learned, oracles


def test_lineage_oracle_learns_what_fresh_tasks_learn(monkeypatch):
    shared, shared_oracles = adapt_four_times(monkeypatch, fresh_tasks=False)
    fresh, fresh_oracles = adapt_four_times(monkeypatch, fresh_tasks=True)
    assert len(shared) >= 4
    assert shared == fresh
    assert any(hypothesis for hypothesis, __, __v in shared)
    assert len(shared_oracles) == 1 and len(fresh_oracles) == 4
