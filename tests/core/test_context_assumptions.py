"""Plain-fact contexts as solver assumptions, against the reference path.

The ASG oracle compiles each policy string once over the facts of every
plain-fact context it has seen, and answers a context by assuming its
facts at the target nodes.  Its verdicts must be those of ``accepts``
over ``G : H`` with the context added by ``with_context``, on seeded
tiny ASGs: an ambiguous grammar, n-ary facts, ``not c`` in annotations
and candidates, contexts whose facts lie outside the universe compiled
so far, and the contexts that take the per-(string, context) fallback (a
fact whose predicate heads a rule, a context with rules).  A new
facts-only context over a known universe compiles nothing.
"""

import random
from collections import Counter

import pytest

from repro.asg import parse_asg
from repro.asg.generation import generate_policies
from repro.asg.semantics import accepts
from repro.asp.atoms import Atom, Literal
from repro.asp.parser import parse_program
from repro.asp.rules import NormalRule
from repro.asp.terms import Constant, Integer
from repro.core import Context, GenerativePolicyModel, learn_gpm
from repro.grammar.generator import generate_strings
from repro.learning import constraint_space
from repro.learning import tasks as tasks_module
from repro.learning.mode_bias import CandidateRule
from repro.learning.tasks import ASGLearningTask, ContextExample, _ASGOracle

# ``s -> x x`` splits a string every possible way and ``x -> x x`` nests
# further, so a string of n tokens has Catalan(n - 1) parse trees.
PRODUCTIONS = ['s -> x x', 'x -> x x', 'x -> "a"', 'x -> "b"']
BASE = [
    ["ok :- level(1), a@1."],  # ok is derived: a context fact ok. falls back
    ["a :- a@1.", "a :- a@2.", "b :- b@1.", "b :- b@2."],
    ["a."],
    ["b."],
]
# extra annotation rules drawn per seed, by production arity
EXTRA = {
    2: [
        ":- hot, a@1.",
        ":- not hot, b@2.",
        ":- level(2), a@2.",
        ":- zone(X, X), b@1.",
        ":- not ok, cold.",
        ":- not cold, level(3), b@2.",
        "tagged :- zone(n, Y), a@2.",
    ],
    1: [
        ":- hot, not cold.",
        ":- zone(n, s).",
        "tagged :- level(2).",
        ":- cold@1.",  # the terminal child: never a context atom
        ":- not level(1), hot.",
    ],
}
FACTS = [
    "hot.",
    "cold.",
    "level(1).",
    "level(2).",
    "level(3).",
    "zone(n, s).",
    "zone(s, s).",
]
# contexts that must take the fallback: a derived predicate, rules
FALLBACK = ["ok. hot.", "warm.", "hot :- cold. cold.", "level(2) :- hot. hot."]
MAX_LENGTH = 3  # all strings up to this length, and a sample of longer ones


def make_asg(rng: random.Random):
    lines = []
    for index, production in enumerate(PRODUCTIONS):
        arity = 2 if "x x" in production else 1
        rules = BASE[index] + rng.sample(EXTRA[arity], rng.randint(1, 3))
        lines.append(f"{production} {{ {' '.join(rules)} }}")
    return parse_asg("\n".join(lines))


def make_space():
    hot, cold = Atom("hot"), Atom("cold")
    pool = [Literal(hot, True), Literal(hot, False), Literal(cold, True)]
    pool += [Literal(cold, False), Literal(Atom("level", [Integer(2)]), True)]
    pool += [Literal(Atom(n, [], (i,)), True) for n, i in (("a", 1), ("b", 2))]
    pool += [Literal(Atom("a", [], (2,)), False), Literal(Atom("warm"), True)]
    space = constraint_space(pool, prod_ids=(0,), max_body=2)
    # a candidate with a head: a context fact warm. is not plain
    space.append(CandidateRule(NormalRule(Atom("warm"), [Literal(hot)]), 0))
    return space


def make_contexts(rng: random.Random):
    plain = [
        " ".join(rng.sample(FACTS, rng.randint(0, 3))) for __ in range(5)
    ] + [""]
    texts = plain + FALLBACK
    rng.shuffle(texts)  # the universe grows at different points per seed
    return [Context.from_text(text, name=text) for text in texts]


def make_strings(asg, rng: random.Random):
    language = list(generate_strings(asg.cfg, max_length=MAX_LENGTH + 1))
    short = [s for s in language if len(s) <= MAX_LENGTH]
    longer = rng.sample([s for s in language if len(s) > MAX_LENGTH], 4)
    return short + longer + [("a",), ("a", "c"), ()]


def reference_grammar(asg, hypothesis, context, placement):
    return asg.with_rules(
        [(c.rule, c.prod_id if c.prod_id is not None else 0) for c in hypothesis]
    ).with_context(context.program, where=placement)


def count_paths(monkeypatch) -> Counter:
    paths = Counter()
    for name in ("_compile_string", "_compile_with_context"):
        original = getattr(_ASGOracle, name)

        def counting(oracle, argument, original=original, name=name):
            paths[name] += 1
            return original(oracle, argument)

        monkeypatch.setattr(_ASGOracle, name, counting)
    return paths


@pytest.mark.parametrize("placement", ["all", "start"])
@pytest.mark.parametrize("seed", range(2))
def test_task_oracle_matches_the_reference(seed, placement, monkeypatch):
    rng = random.Random(seed)
    asg = make_asg(rng)
    space = make_space()
    hypotheses = [[]] + [rng.sample(space, size) for size in (2, 4)]
    task = ASGLearningTask(asg, space, [], [], context_placement=placement)
    paths = count_paths(monkeypatch)
    strings = make_strings(asg, rng)
    verdicts = set()
    for context in make_contexts(rng):
        for hypothesis in hypotheses:
            grammar = reference_grammar(asg, hypothesis, context, placement)
            for tokens in strings:
                example = ContextExample(tokens, context.program)
                verdict = task.positive_holds(hypothesis, example)
                assert verdict == accepts(grammar, tokens), (context, hypothesis, tokens)
                verdicts.add(verdict)
        plain = context.name not in FALLBACK
        for tokens in strings:
            compiled = task.oracle._compiled[ContextExample(tokens, context.program)]
            assert (compiled.source is not None) == plain, context
    assert verdicts == {True, False}
    # both paths ran, and some string was compiled again over a grown universe
    assert paths["_compile_with_context"] == len(FALLBACK) * len(strings)
    assert paths["_compile_string"] > len(strings)


@pytest.mark.parametrize("seed", range(2))
def test_model_versions_match_the_reference(seed):
    rng = random.Random(100 + seed)
    asg = make_asg(rng)
    space = make_space()
    model, __ = learn_gpm(GenerativePolicyModel(asg), space, [])
    versions = [model] + [model.with_hypothesis(rng.sample(space, size)) for size in (1, 3)]
    oracle = model.lineage.oracle
    strings = make_strings(asg, rng)
    for context in make_contexts(rng):
        for version in versions:
            grammar = version.grammar.with_context(context.program)
            for tokens in strings:
                assert version.valid(tokens, context) == accepts(grammar, tokens), (
                    version,
                    context,
                    tokens,
                )
            assert version.generate(context, max_length=MAX_LENGTH) == (
                generate_policies(version.grammar, context.program, max_length=MAX_LENGTH)
            )
    assert model.lineage.oracle is oracle


def test_plain_facts():
    asg = make_asg(random.Random(0))
    oracle = ASGLearningTask(asg, make_space(), [], []).oracle
    level = Atom("level", [Integer(1)])
    zone = Atom("zone", [Constant("n"), Constant("s")])
    assert oracle._plain_facts(parse_program("level(1). zone(n, s).")) == {level, zone}
    assert oracle._plain_facts(parse_program("")) == frozenset()
    for text in (
        "ok.",  # heads an annotation rule
        "warm.",  # heads a candidate
        "level(1) :- hot.",
        ":- hot.",
        "{ hot }.",
        "level(X) :- zone(X, Y).",
        "level(1+1).",
        "hot@1.",
    ):
        assert oracle._plain_facts(parse_program(text)) is None, text


def test_facts_only_contexts_over_a_known_universe_compile_each_string_once(
    monkeypatch,
):
    asg = make_asg(random.Random(1))
    space = make_space()
    strings = make_strings(asg, random.Random(2))
    trees = {
        tokens: len(list(tasks_module.parse_trees(asg.cfg, tokens)))
        for tokens in strings
    }
    calls = Counter()
    for name in ("parse_trees", "ground_program"):
        original = getattr(tasks_module, name)

        def counting(*args, original=original, name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(tasks_module, name, counting)
    model, __ = learn_gpm(GenerativePolicyModel(asg), space, [])
    # the first context holds the whole universe
    contexts = [Context.from_text(" ".join(FACTS))]
    rng = random.Random(5)
    contexts += [
        Context.from_text(" ".join(rng.sample(FACTS, rng.randint(0, len(FACTS)))))
        for __ in range(6)
    ]
    for context in contexts:
        for tokens in strings:
            model.valid(tokens, context)
    assert calls["parse_trees"] == len(strings)
    assert calls["ground_program"] == sum(trees.values())
    examples = {ContextExample(s, c.program) for s in strings for c in contexts}
    assert set(model.lineage.oracle._compiled) == examples


def test_retain_drops_string_compiles_no_example_points_at():
    asg = make_asg(random.Random(3))
    space = make_space()
    hot, cold = (Context.from_text(text) for text in ("hot.", "cold."))
    first = [ContextExample(("a", "b"), hot.program), ContextExample(("b", "a"), cold.program)]
    task = ASGLearningTask(asg, space, first, [])
    for example in first:
        task.positive_holds([], example)
    oracle = task.oracle
    assert set(oracle._strings) == {("a", "b"), ("b", "a")}
    kept = [ContextExample(("b", "a"), hot.program)]
    ASGLearningTask(asg, space, kept, [], oracle=oracle)
    assert set(oracle._strings) == {("a", "b"), ("b", "a")}  # checked since the last build
    ASGLearningTask(asg, space, kept, [], oracle=oracle)
    assert not oracle._strings  # the kept example was never compiled
    assert ASGLearningTask(asg, space, kept, [], oracle=oracle).positive_holds([], kept[0]) == (
        accepts(asg.with_context(hot.program), ("b", "a"))
    )
    assert set(oracle._strings) == {("b", "a")}
