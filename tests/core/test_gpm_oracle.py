"""GPM membership and generation through the lineage's coverage oracle.

``GenerativePolicyModel.valid`` and ``generate`` must answer exactly what
the reference path answers (``accepts`` over ``G : H`` with the context
added, ``generate_policies``), on an ambiguous grammar whose answer
depends on which parse tree is chosen, across several model versions.
The PReP/PCP round trip must compile each (string, context) pair once
per lineage.
"""

import random
from collections import Counter

import pytest

from repro.agenp import (
    PolicyCheckingPoint,
    PolicyRefinementPoint,
    PolicyRepository,
    PolicySpecification,
    RepresentationsRepository,
)
from repro.asg import parse_asg
from repro.asg.generation import generate_policies
from repro.asg.semantics import accepts
from repro.asp.atoms import Atom, Literal
from repro.asp.parser import parse_program
from repro.core import Context, GenerativePolicyModel, LabeledExample, learn_gpm
from repro.core import gpm
from repro.errors import GenerationLimitError, GrammarError
from repro.grammar.generator import generate_strings
from repro.learning import constraint_space
from repro.learning.mode_bias import CandidateRule
from repro.learning.tasks import ContextExample, _ASGOracle

# ``s -> x x`` splits a string in every possible way and ``x -> x x``
# nests further: a string of n tokens has Catalan(n - 1) parse trees
# (at most 5 for the strings below), and a constraint on ``a@2``/``b@2``
# holds on some splits and not on others.
GRAMMAR = """
s -> x x { }
x -> x x { a :- a@1. a :- a@2. b :- b@1. b :- b@2. }
x -> "a" { a. }
x -> "b" { b. }
"""

MAX_LENGTH = 4

CONTEXTS = [
    Context.empty("empty"),
    Context.from_attributes({"strict": True}, name="facts"),
    Context.from_text("blocked :- strict. strict.", name="rules"),
]


def space():
    pool = [
        Literal(Atom(name, [], (position,)), True)
        for name in ("a", "b")
        for position in (1, 2)
    ]
    pool.append(Literal(Atom("a", [], (2,)), False))
    pool += [Literal(Atom("blocked"), sign) for sign in (True, False)]
    pool.append(Literal(Atom("strict"), True))
    return constraint_space(pool, prod_ids=(0,), max_body=2)


def strings():
    language = list(generate_strings(parse_asg(GRAMMAR).cfg, max_length=MAX_LENGTH))
    return language + [("a",), ("a", "c"), ()]


def count_compiles(monkeypatch) -> Counter:
    compiled = Counter()
    compile_example = _ASGOracle._compile

    def counting_compile(oracle, example):
        compiled[example] += 1
        return compile_example(oracle, example)

    monkeypatch.setattr(_ASGOracle, "_compile", counting_compile)
    return compiled


@pytest.mark.parametrize("seed", range(3))
def test_membership_and_generation_match_the_reference(seed):
    rng = random.Random(seed)
    candidates = space()
    model = GenerativePolicyModel(parse_asg(GRAMMAR))
    if seed % 2:  # as after PAdaP learning: the oracle covers the whole space
        model, __ = learn_gpm(model, candidates, [])
    learned_oracle = model.lineage.oracle
    versions = [model] + [
        model.with_hypothesis(rng.sample(candidates, size)) for size in (1, 3)
    ]
    verdicts = set()
    for version in versions:
        for context in CONTEXTS:
            grammar = version.grammar.with_context(context.program)
            for tokens in strings():
                verdict = version.valid(tokens, context)
                assert verdict == accepts(grammar, tokens), (version, context, tokens)
                verdicts.add(verdict)
            for max_policies in (10_000, 3):
                assert version.generate(
                    context, max_length=MAX_LENGTH, max_policies=max_policies
                ) == generate_policies(
                    version.grammar,
                    context.program,
                    max_length=MAX_LENGTH,
                    max_policies=max_policies,
                )
        assert version.generate(max_length=MAX_LENGTH) == generate_policies(
            version.grammar, max_length=MAX_LENGTH
        )
    assert verdicts == {True, False}
    if learned_oracle is not None:  # no version needed a rebuild
        assert model.lineage.oracle is learned_oracle


def test_generation_past_the_string_bound_raises(monkeypatch):
    model = GenerativePolicyModel(parse_asg(GRAMMAR))
    size = len(strings()) - 3
    full = model.generate(max_length=MAX_LENGTH)
    assert len(full) > 1
    monkeypatch.setattr(gpm, "MAX_GENERATED_STRINGS", size)
    assert model.generate(max_length=MAX_LENGTH) == full
    monkeypatch.setattr(gpm, "MAX_GENERATED_STRINGS", size - 1)
    with pytest.raises(GenerationLimitError) as raised:
        model.generate(max_length=MAX_LENGTH)
    assert isinstance(raised.value, GrammarError)
    # max_policies is reached before the bound: the prefix is the answer
    assert model.generate(max_length=MAX_LENGTH, max_policies=1) == full[:1]


def make_prep():
    specification = PolicySpecification(GRAMMAR, hypothesis_space=space())
    representations = RepresentationsRepository()
    prep = PolicyRefinementPoint(
        specification,
        representations,
        PolicyRepository(),
        pcp=PolicyCheckingPoint(),
        max_policy_length=MAX_LENGTH,
    )
    return prep, representations


def test_generation_and_checking_compile_each_pair_once(monkeypatch):
    compiled = count_compiles(monkeypatch)
    prep, __ = make_prep()
    prep.bootstrap()
    for context in CONTEXTS:
        installed, rejections = prep.generate(context)
        assert installed and not rejections
    language = strings()[:-3]
    pairs = {ContextExample(s, c.program) for c in CONTEXTS for s in language}
    assert set(compiled) == pairs
    assert set(compiled.values()) == {1}
    # regenerating in contexts already seen compiles nothing
    for context in CONTEXTS:
        prep.generate(context)
    assert sum(compiled.values()) == len(pairs)


def test_new_versions_of_a_learned_model_compile_nothing(monkeypatch):
    prep, representations = make_prep()
    model = prep.bootstrap()
    examples = [
        LabeledExample(("a", "b"), CONTEXTS[2], valid=False),
        LabeledExample(("a", "a"), CONTEXTS[2], valid=True),
    ]
    model, __ = learn_gpm(model, prep.specification.hypothesis_space, examples)
    assert model.hypothesis
    representations.store(model)
    compiled = count_compiles(monkeypatch)
    for context in CONTEXTS:
        prep.generate(context)
    first = sum(compiled.values())
    assert set(compiled.values()) == {1}
    rng = random.Random(7)
    for size in (1, 3, 2):
        hypothesis = rng.sample(prep.specification.hypothesis_space, size)
        representations.store(model.with_hypothesis(hypothesis))
        for context in CONTEXTS:
            prep.generate(context)
    assert sum(compiled.values()) == first


def test_entries_without_relevant_guards_keep_only_their_verdict():
    model = GenerativePolicyModel(parse_asg(GRAMMAR))
    generated = model.generate(CONTEXTS[1], max_length=MAX_LENGTH)
    oracle = model.lineage.oracle
    assert oracle.hypothesis_space == []
    assert len(oracle._compiled) == len(strings()) - 3
    for compiled in oracle._compiled.values():
        assert compiled.solvers == [] and len(compiled.verdicts) == 1
    # the released entries still answer
    assert model.generate(CONTEXTS[1], max_length=MAX_LENGTH) == generated

    learned, __ = learn_gpm(model, space(), [])
    learned.valid(("a", "b"), CONTEXTS[2])
    (compiled,) = learned.lineage.oracle._compiled.values()
    assert compiled.relevant and compiled.solvers


def test_a_rule_outside_the_space_rebuilds_the_oracle_over_the_union():
    model = GenerativePolicyModel(parse_asg(GRAMMAR))
    assert model.valid(("a", "b"))
    first = model.lineage.oracle
    (rule,) = parse_program(":- b@2.")
    stranger = CandidateRule(rule, 0)
    version = model.with_hypothesis([stranger])
    assert not version.valid(("a", "b"))
    oracle = version.lineage.oracle
    assert oracle is not first and oracle.hypothesis_space == [stranger]
    # the earlier version is answered by the rebuilt oracle too
    assert model.valid(("a", "b")) and model.lineage.oracle is oracle
