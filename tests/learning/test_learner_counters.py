"""Learner statistics mean what their names say.

``checks`` is audited against an independent count of the oracle calls
a wrapped task receives, and the expected "no solution" verdicts that
``learn_auto`` retries through are not reported as errors.
"""

from repro.apps.xacml_case_study import XacmlLearningPipeline
from repro.asp import parse_atom, parse_program
from repro.asp.atoms import Atom, Literal
from repro.asp.solver import AnswerSetSolver
from repro.asp.terms import Constant
from repro.asg import parse_asg
from repro.datasets import default_ground_truth, inject_flips, sample_log
from repro.learning import (
    ASGLearningTask,
    ContextExample,
    DecomposableLearner,
    LASTask,
    ModeAtom,
    ModeBias,
    PartialInterpretation,
    Placeholder,
    constraint_space,
)
from repro.telemetry import Tracer, format_summary, summarize, tracer_scope


class CountingTask:
    """Forwards to a task and counts the oracle checks it receives."""

    def __init__(self, task):
        self._task = task
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._task, name)

    def positive_holds(self, hypothesis, example):
        self.calls += 1
        return self._task.positive_holds(hypothesis, example)

    def negative_holds(self, hypothesis, example):
        self.calls += 1
        return self._task.negative_holds(hypothesis, example)

    def coverage_row(self, example):
        # one row stands for the empty and every single-candidate check
        self.calls += len(self._task.hypothesis_space) + 1
        return self._task.coverage_row(example)


def las_task():
    """Permit examples need a covering rule, so the learner also makes
    the ``_bad_flags`` pair checks."""
    bias = ModeBias(
        head_modes=[ModeAtom(Atom("decision", [Constant("permit")]))],
        body_modes=[
            ModeAtom(Atom("role", [Placeholder("role")])),
            ModeAtom(Atom("action", [Placeholder("action")])),
        ],
        pools={
            "role": [Constant("dba"), Constant("dev")],
            "action": [Constant("read"), Constant("write")],
        },
        max_body=2,
        allow_constraints=False,
        allow_negation=False,
    )

    def example(decision, context):
        other = "deny" if decision == "permit" else "permit"
        return PartialInterpretation(
            inclusions=[parse_atom(f"decision({decision})")],
            exclusions=[parse_atom(f"decision({other})")],
            context=parse_program(context),
        )

    examples = [
        example("permit", "role(dba). action(read)."),
        example("permit", "role(dba). action(read)."),
        example("permit", "role(dev). action(read)."),
        example("deny", "role(dev). action(write)."),
    ]
    background = parse_program("decision(deny) :- not decision(permit).")
    return LASTask(background, bias.generate(), examples, [])


def asg_task():
    asg = parse_asg(
        """
        policy -> "allow" subject action
        subject -> "alice" { is(alice). }
        subject -> "bob"   { is(bob). }
        action  -> "read"  { is(read). }
        action  -> "write" { is(write). }
        """
    )
    pool = [Literal(Atom("is", [Constant(n)], (2,)), True) for n in ("alice", "bob")]
    pool += [Literal(Atom("is", [Constant(n)], (3,)), True) for n in ("read", "write")]
    return ASGLearningTask(
        asg,
        constraint_space(pool, prod_ids=(0,), max_body=2),
        [ContextExample.from_text("allow alice read"), ContextExample.from_text("allow bob write")],
        [ContextExample.from_text("allow alice write"), ContextExample.from_text("allow bob read")],
    )


def test_decomposable_checks_count_the_oracle_calls_made():
    for task in (las_task(), asg_task()):
        counted = CountingTask(task)
        tracer = Tracer()
        with tracer_scope(tracer):
            result = DecomposableLearner(counted).learn()
        assert result.checks == counted.calls
        (span,) = [s for s in tracer.spans if s["name"] == "learn.decomposable"]
        assert span["counters"]["learner.checks"] == counted.calls


def test_decomposable_checks_include_pair_and_verify_checks():
    task = las_task()
    counted = CountingTask(task)
    result = DecomposableLearner(counted).learn()
    examples = len(task.positive) + len(task.negative)
    singletons = (len(task.hypothesis_space) + 1) * examples
    assert result.checks > singletons  # pair checks and verification on top


def test_relearning_over_a_task_solves_nothing_to_build_its_models(monkeypatch):
    solves = []
    solve = AnswerSetSolver.solve

    def counting_solve(solver, *args, **kwargs):
        solves.append(solver)
        return solve(solver, *args, **kwargs)

    build_models = DecomposableLearner._build_models
    in_build_models = []

    def tracking_build_models(learner, space):
        before = len(solves)
        models = build_models(learner, space)
        in_build_models.append(len(solves) - before)
        return models

    monkeypatch.setattr(AnswerSetSolver, "solve", counting_solve)
    monkeypatch.setattr(DecomposableLearner, "_build_models", tracking_build_models)
    for task in (las_task(), asg_task()):
        in_build_models.clear()
        first = DecomposableLearner(task).learn()
        second = DecomposableLearner(task).learn()
        assert in_build_models[0] > 0
        assert in_build_models[1] == 0  # every row is read from the oracle
        assert second.checks == first.checks
        assert second.candidates == first.candidates


def test_strict_noisy_learning_reports_unsat_not_error():
    log = inject_flips(sample_log(default_ground_truth(), 60, seed=1), 0.2, seed=1)
    tracer = Tracer()
    with tracer_scope(tracer):
        model = XacmlLearningPipeline(strict=True).learn(log)
    assert model.rules == []  # no consistent policy: deny-by-default remains
    statuses = [s["status"] for s in tracer.spans if s["name"] == "learn.decomposable"]
    assert statuses == ["unsat"]
    row = summarize(tracer.spans)["operations"]["learn.decomposable"]
    assert row["errors"] == 0
    assert row["unsat"] == 1
    assert "unsat" in format_summary(summarize(tracer.spans))


def test_tolerant_retries_are_not_errors():
    log = inject_flips(sample_log(default_ground_truth(), 60, seed=1), 0.1, seed=2)
    tracer = Tracer()
    with tracer_scope(tracer):
        XacmlLearningPipeline().learn(log)
    statuses = [s["status"] for s in tracer.spans if s["name"] == "learn.decomposable"]
    assert "error" not in statuses
    assert statuses[-1] == "ok"
    assert statuses.count("unsat") == len(statuses) - 1 >= 1
