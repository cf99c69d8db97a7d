"""One coverage oracle per model lineage across PAdaP re-learning.

Every version of a model shares the oracle of its last learning task, so
an adaptation compiles only the feedback examples it has not seen and a
violation retry compiles nothing.  The learned hypotheses must be those
of a run that builds a fresh oracle for every task.
"""

from collections import Counter

import pytest

from repro.agenp import (
    PolicyAdaptationPoint,
    PolicyRefinementPoint,
    PolicyRepository,
    RepresentationsRepository,
)
from repro.agenp import padap as padap_module
from repro.core import Context, LabeledExample, learn_gpm
from repro.learning.tasks import ASGLearningTask, ContextExample, _ASGOracle

NORMAL = Context.from_attributes({}, name="normal")
EMERGENCY = Context.from_attributes({"emergency": True}, name="emergency")

# (tokens, context, valid) per feedback cycle, alternating contexts
FEEDBACK = [
    [("allow bob write", NORMAL, False), ("allow alice read", NORMAL, True)],
    [("allow alice write", EMERGENCY, True), ("allow bob write", EMERGENCY, False)],
    [("allow alice write", NORMAL, False), ("allow bob read", EMERGENCY, True)],
    # contradictory: the same policy judged both ways in one context
    [("allow alice read", NORMAL, False), ("allow bob read", NORMAL, True)],
    [("allow alice read", EMERGENCY, True)],
]


def run_episode(specification, monkeypatch, fresh_oracles=False):
    """Feed FEEDBACK cycle by cycle and adapt after each.

    Returns the per-cycle records (learned hypothesis, examples compiled
    by each learning attempt of that adaptation, the lineage's oracle),
    the compile count per example and the padap.
    """
    representations = RepresentationsRepository()
    prep = PolicyRefinementPoint(specification, representations, PolicyRepository())
    prep.bootstrap()
    padap = PolicyAdaptationPoint(specification.hypothesis_space, representations)

    compiled = Counter()
    compile_example = _ASGOracle._compile

    def counting_compile(oracle, example):
        compiled[example] += 1
        return compile_example(oracle, example)

    attempts = []

    def tracking_learn_gpm(*args, **kwargs):
        attempts.append(sum(compiled.values()))
        return learn_gpm(*args, **kwargs)

    monkeypatch.setattr(_ASGOracle, "_compile", counting_compile)
    monkeypatch.setattr(padap_module, "learn_gpm", tracking_learn_gpm)
    if fresh_oracles:
        monkeypatch.setattr(_ASGOracle, "serves", lambda oracle, task: False)

    cycles = []
    for feedback in FEEDBACK:
        for text, context, valid in feedback:
            padap.add_example(LabeledExample(text.split(), context, valid=valid))
        attempts.clear()
        model, result = padap.adapt()
        assert result is not None
        starts = attempts + [sum(compiled.values())]
        cycles.append(
            {
                "hypothesis": model.hypothesis,
                "compiles": [b - a for a, b in zip(starts, starts[1:])],
                "oracle": model.lineage.oracle,
            }
        )
    return cycles, compiled, padap


def test_shared_oracle_learns_what_fresh_oracles_learn(specification, monkeypatch):
    shared, __, __p = run_episode(specification, monkeypatch)
    monkeypatch.undo()
    fresh, __, __p = run_episode(specification, monkeypatch, fresh_oracles=True)
    assert [c["hypothesis"] for c in shared] == [c["hypothesis"] for c in fresh]
    assert any(c["hypothesis"] for c in shared)
    # the contradictory cycles ran the violation-retry loop
    assert any(len(c["compiles"]) > 1 for c in shared)


def test_each_example_compiles_once_per_lineage(specification, monkeypatch):
    cycles, compiled, padap = run_episode(specification, monkeypatch)
    distinct = {e.to_context_example() for e in padap.examples}
    assert set(compiled) == distinct
    assert set(compiled.values()) == {1}
    for cycle in cycles:
        assert cycle["compiles"][1:] == [0] * (len(cycle["compiles"]) - 1)
    # one oracle for the whole lineage
    assert len({id(c["oracle"]) for c in cycles}) == 1


def test_fresh_oracles_recompile_every_cycle(specification, monkeypatch):
    # without a shared oracle the same counter sees every example again
    __, compiled, padap = run_episode(specification, monkeypatch, fresh_oracles=True)
    assert max(compiled.values()) > 1


def test_oracle_keeps_the_newest_task_and_recent_checks(specification, monkeypatch):
    cycles, __, padap = run_episode(specification, monkeypatch)
    oracle = cycles[-1]["oracle"]
    episode = {e.to_context_example() for e in padap.examples}
    assert set(oracle._compiled) == episode

    # membership checks after the last adaptation go to the same oracle
    model = padap.representations.latest()
    drill = Context.from_attributes({"drill": True}, name="drill")
    checked = set()
    for text in ("allow alice read", "allow bob write", "allow bob"):
        model.valid(text.split(), drill)
        checked.add(ContextExample(text.split(), drill.program))
    assert model.lineage.oracle is oracle
    assert set(oracle._compiled) == episode | checked

    # a new task keeps its examples and everything checked since the last
    # task was built: the last adaptation's examples and the checks above
    kept = padap.examples[:2]
    kept_examples = {e.to_context_example() for e in kept}
    learn_gpm(model, padap.hypothesis_space, kept)
    assert model.lineage.oracle is oracle
    assert set(oracle._compiled) == kept_examples | episode | checked

    # a second pass over the same examples with no checks in between
    learn_gpm(model, padap.hypothesis_space, kept)
    assert set(oracle._compiled) == kept_examples


@pytest.mark.parametrize(
    "field", ["hypothesis_space", "context_placement", "max_trees", "use_fast_path"]
)
def test_lineage_key_covers_every_compile_setting(specification, field):
    asg = specification.initial_asg()
    space = specification.hypothesis_space
    example = ContextExample("allow alice read".split())
    first = ASGLearningTask(asg, space, [example], [])
    first.positive_holds([], example)
    same = ASGLearningTask(asg, list(space), [example], [], oracle=first.oracle)
    assert same.oracle is first.oracle
    changed = {
        "hypothesis_space": space[:5],
        "context_placement": "start",
        "max_trees": 8,
        "use_fast_path": False,
    }
    arguments = {"hypothesis_space": space, field: changed[field]}
    other = ASGLearningTask(
        asg, positive=[example], negative=[], oracle=first.oracle, **arguments
    )
    assert other.oracle is not first.oracle
    # building a task of another lineage leaves the old oracle as it was
    assert list(first.oracle._compiled) == [example]
    other_asg = specification.initial_asg()
    elsewhere = ASGLearningTask(other_asg, space, [example], [], oracle=first.oracle)
    assert elsewhere.oracle is not first.oracle
