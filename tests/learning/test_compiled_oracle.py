"""The compiled coverage oracle against a per-call reference oracle.

The tasks compile each example once and answer every check by solving
under guard assumptions.  The reference below is the straightforward
definition instead: build ``B ∪ H ∪ C`` (or ``G(C) : H``), ground it and
solve it from scratch, enumerating every answer set.  Verdicts must be
identical on seeded random tasks that include bounded choice rules,
non-stratified programs and an ambiguous grammar, and a learner driven
by either oracle must learn the same hypothesis.
"""

import itertools
import random

import pytest

from repro.apps.xacml_case_study import XacmlLearningPipeline
from repro.asg import accepts, parse_asg
from repro.asp.atoms import Atom, Literal
from repro.asp.parser import parse_program
from repro.asp.rules import ChoiceRule, NormalRule, Program
from repro.asp.solver import solve
from repro.asp.terms import Constant, Integer
from repro.datasets import default_ground_truth, inject_flips, sample_log
from repro.errors import AmbiguityLimitError, BudgetExceededError, LearningError
from repro.learning import (
    ASGLearningTask,
    CandidateRule,
    ContextExample,
    LASTask,
    PartialInterpretation,
)
from repro.learning.tasks import _GuardedOracle
from repro.runtime import Budget, budget_scope

# -- the reference oracle ----------------------------------------------------


def reference_las_holds(task, hypothesis, example):
    program = Program(list(task.background))
    program.extend(example.context)
    for candidate in hypothesis:
        program.add(candidate.rule)
    return any(example.covered_by(model) for model in solve(program))


def reference_asg_holds(task, hypothesis, example):
    grammar = task.initial.with_rules(
        [(c.rule, c.prod_id if c.prod_id is not None else 0) for c in hypothesis]
    ).with_context(example.context, where=task.context_placement)
    return accepts(grammar, example.tokens, max_trees=task.max_trees)


def hypotheses(space, rng, subsets=20):
    yield []
    for candidate in space:
        yield [candidate]
    yield from (list(pair) for pair in itertools.combinations(space, 2))
    for __ in range(subsets):
        yield rng.sample(space, rng.randint(3, min(5, len(space))))


def assert_same_verdicts(task, reference, rng):
    checked = 0
    for example in task.positive:
        for hypothesis in hypotheses(task.hypothesis_space, rng):
            expected = reference(task, hypothesis, example)
            assert task.positive_holds(hypothesis, example) == expected, (
                hypothesis,
                example,
            )
            assert task.negative_holds(hypothesis, example) == (not expected)
            checked += 1
    return checked


# -- seeded random LAS tasks -------------------------------------------------

ATOMS = [Atom(name) for name in ("a", "b", "c", "d", "e")]
GROUND_PREDICATE = [Atom("p", [Integer(i)]) for i in (1, 2)]

BACKGROUNDS = [
    # bounded choice
    "1 { a ; b ; c } 2.",
    # non-stratified even loop: no fast path
    "a :- not b. b :- not a. c :- a.",
    # a positive loop (not tight) plus a choice
    "{ d }. a :- b. b :- a. a :- d.",
    # non-ground rules over a small domain
    "q(1). q(2). p(X) :- q(X), not e.",
]


def random_rule(rng):
    body_atoms = rng.sample(ATOMS + GROUND_PREDICATE, rng.randint(1, 2))
    body = [Literal(atom, rng.random() < 0.7) for atom in body_atoms]
    roll = rng.random()
    if roll < 0.15:
        heads = [a for a in ATOMS if a not in body_atoms][:2]
        return ChoiceRule(heads, body, None, 1)
    if roll < 0.45:
        return NormalRule(None, body)
    head = rng.choice([a for a in ATOMS if a not in body_atoms])
    return NormalRule(head, body)


def random_las_task(seed):
    rng = random.Random(seed)
    background = parse_program(BACKGROUNDS[seed % len(BACKGROUNDS)])
    space = []
    while len(space) < 8:
        candidate = CandidateRule(random_rule(rng))
        if candidate not in space:
            space.append(candidate)
    examples = []
    for __ in range(4):
        atoms = rng.sample(ATOMS + GROUND_PREDICATE, 3)
        context = Program(
            [NormalRule(atom, ()) for atom in rng.sample(ATOMS, rng.randint(0, 1))]
        )
        examples.append(PartialInterpretation(atoms[:1], atoms[1:2], context))
    return LASTask(background, space, examples, [], use_fast_path=seed % 2 == 0), rng


@pytest.mark.parametrize("seed", range(8))
def test_las_verdicts_match_reference(seed):
    task, rng = random_las_task(seed)
    assert assert_same_verdicts(task, reference_las_holds, rng) > 100


# -- seeded random ASG tasks over an ambiguous grammar -------------------------

AMBIGUOUS = """
s -> t t { p :- not q. q :- not p. }
t -> "a" { v(1). }
t -> "a" "a" { v(2). }
t -> "b" { { w }. }
"""

STRINGS = ["a a a", "a a", "a b", "b b", "a a b", "b a a", "a"]


def random_asg_task(seed):
    rng = random.Random(seed)
    asg = parse_asg(AMBIGUOUS)
    root_pool = [Atom("v", [Integer(i)], (k,)) for i in (1, 2) for k in (1, 2)]
    root_pool += [Atom("w", [], (k,)) for k in (1, 2)]
    root_pool += [Atom("p"), Atom("c")]
    space = []
    while len(space) < 8:
        body_atoms = rng.sample(root_pool, rng.randint(1, 2))
        body = [Literal(atom, rng.random() < 0.7) for atom in body_atoms]
        if rng.random() < 0.2:
            # a child-production candidate: runs at every node of its production
            rule, prod_id = NormalRule(None, [Literal(Atom("c"), True)]), rng.choice((1, 3))
        else:
            head = rng.choice([None, None, Atom("r"), Atom("w", [], (1,))])
            rule, prod_id = NormalRule(head, body), 0
        candidate = CandidateRule(rule, prod_id)
        if candidate not in space:
            space.append(candidate)
    examples = [
        ContextExample(
            tuple(rng.choice(STRINGS).split()),
            parse_program(rng.choice(["", "c.", "d. c :- d."])),
        )
        for __ in range(4)
    ]
    placement = rng.choice(("all", "start"))
    task = ASGLearningTask(
        asg, space, examples, [], context_placement=placement, use_fast_path=seed % 2 == 0
    )
    return task, rng


def test_ambiguous_grammar_has_several_trees():
    from repro.grammar.earley import parse_trees

    assert len(parse_trees(parse_asg(AMBIGUOUS).cfg, ("a", "a", "a"))) == 2


@pytest.mark.parametrize("seed", range(8))
def test_asg_verdicts_match_reference(seed):
    task, rng = random_asg_task(seed)
    assert assert_same_verdicts(task, reference_asg_holds, rng) > 100


# -- learned hypotheses do not depend on the oracle ----------------------------


def reference_check(reference):
    """A stand-in for the compiled check that calls ``reference``
    (memoized, so a learner's repeated checks stay affordable)."""
    memo = {}

    def check(task, hypothesis, example):
        key = (id(task), frozenset(hypothesis), example)
        if key not in memo:
            memo[key] = reference(task, hypothesis, example)
        return memo[key]

    return check


@pytest.mark.parametrize("config", [{"strict": True}, {}, {"filter_noise": True}])
def test_xacml_pipeline_learns_the_same_rules(monkeypatch, config):
    log = inject_flips(sample_log(default_ground_truth(), 30, seed=7), 0.1, seed=3)
    compiled = XacmlLearningPipeline(**config).learn(log).rule_texts()
    monkeypatch.setattr(_GuardedOracle, "holds", reference_check(reference_las_holds))
    assert XacmlLearningPipeline(**config).learn(log).rule_texts() == compiled


# -- specific regressions -----------------------------------------------------


def test_many_answer_sets_do_not_hide_a_covering_one():
    # 2^7 answer sets; only the last enumerated ones include every atom
    atoms = [Atom(f"a{i}") for i in range(7)]
    background = Program([ChoiceRule(atoms)])
    task = LASTask(background, [], [PartialInterpretation(atoms)], [])
    assert task.positive_holds([], task.positive[0])


def test_equal_examples_compile_once():
    context = "role(dba)."
    first = PartialInterpretation([Atom("x")], context=parse_program(context))
    second = PartialInterpretation([Atom("x")], context=parse_program(context))
    assert first == second and hash(first) == hash(second)
    task = LASTask(parse_program("x :- role(dba)."), [], [first, second], [])
    assert task.positive_holds([], first) and task.positive_holds([], second)
    assert len(task._compiled) == 1


def test_candidate_outside_the_space_is_refused():
    task = LASTask(Program(), [], [PartialInterpretation([Atom("x")])], [])
    stranger = CandidateRule(NormalRule(Atom("x"), ()))
    with pytest.raises(LearningError):
        task.positive_holds([stranger], task.positive[0])


def test_irrelevant_candidates_share_the_base_verdict():
    # a candidate whose body cannot hold in the example never reaches
    # its compiled program, so its check is the empty hypothesis' check
    space = [
        CandidateRule(NormalRule(Atom("x"), [Literal(Atom("role", [Constant(r)]))]))
        for r in ("dba", "dev")
    ]
    example = PartialInterpretation([Atom("x")], context=parse_program("role(dba)."))
    task = LASTask(Program(), space, [example], [])
    assert task.positive_holds([space[0]], example)
    assert not task.positive_holds([space[1]], example)
    assert not task.positive_holds([], example)
    # two distinct verdicts memoised: {dba guard} and the empty guard set
    (compiled,) = task._compiled.values()
    assert len(compiled.verdicts) == 2


def test_too_many_parse_trees_raise_instead_of_truncating():
    # "a a a a" splits into t t three ways: (a)(a a a), (a a)(a a), (a a a)(a)
    asg = parse_asg(
        """
        s -> t t { }
        t -> "a" { }
        t -> "a" "a" { }
        t -> "a" "a" "a" { }
        """
    )
    example = ContextExample(("a",) * 4)
    task = ASGLearningTask(asg, [], [example], [], max_trees=2)
    for __ in range(2):  # nothing was memoised, so the retry raises again
        with pytest.raises(AmbiguityLimitError):
            task.positive_holds([], example)
        assert not task.oracle._compiled
    task = ASGLearningTask(asg, [], [example], [], max_trees=3)
    assert task.positive_holds([], example)


def test_a_check_that_runs_out_of_budget_stores_no_verdict():
    role = Literal(Atom("role", [Constant("dba")]))
    dba = CandidateRule(NormalRule(Atom("x"), [role]))
    example = PartialInterpretation([Atom("x")], context=parse_program("role(dba)."))
    task = LASTask(Program(), [dba], [example], [])
    assert not task.positive_holds([], example)  # compiles the example
    (compiled,) = task._compiled.values()
    with budget_scope(Budget(max_steps=1)):  # the check's own tick, then the solve's
        with pytest.raises(BudgetExceededError):
            task.positive_holds([dba], example)
    assert len(compiled.verdicts) == 1
    assert task.positive_holds([dba], example)
