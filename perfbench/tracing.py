"""Per-layer self time, measured from outside the program.

The traced run wraps public functions of each layer at every place the
program binds them and restores the originals afterwards.  Modules bind
imports by name (``repro.learning.tasks`` binds ``solve`` and
``accepts``; ``repro.engine.engine`` binds ``evaluate_compiled``), so a
module-level function is replaced in every ``repro.*`` module that holds
it; a method is replaced on its class.

A layer's self time is the duration of its calls minus the time covered
by wrapped calls made inside them.  A call nested directly inside a call
of the same layer (``accepts`` -> ``accepting_witness``) is folded into
the outer one: it adds time but no call.  Time spent in a timed
operation outside every wrapped call is ``unattributed``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Dict, List, Optional

import repro.agenp.ams as _ams
import repro.agenp.interpreters as _interpreters
import repro.agenp.monitoring as _monitoring
import repro.agenp.padap as _padap
import repro.agenp.pcp as _pcp
import repro.agenp.pdp as _pdp
import repro.agenp.prep as _prep
import repro.analysis.asg_lint as _asg_lint
import repro.analysis.mode_lint as _mode_lint
import repro.apps.xacml_case_study.pipeline as _pipeline
import repro.asg.annotated as _annotated
import repro.asg.generation as _generation
import repro.asg.semantics as _semantics
import repro.asp.grounder as _grounder
import repro.asp.parser as _parser
import repro.asp.solver as _solver
import repro.engine.caches as _caches
import repro.engine.engine as _engine
import repro.grammar.earley as _earley
import repro.learning.decomposable as _decomposable
import repro.learning.ilasp as _ilasp
import repro.learning.mode_bias as _mode_bias
import repro.learning.tasks as _tasks
import repro.policy.evaluation as _evaluation

__all__ = ["LayerStats", "LayerTracer", "LAYERS"]


class LayerStats:
    """Calls, self time and named tallies of one layer."""

    __slots__ = ("calls", "self_s", "tally")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.tally: Dict[str, float] = {}

    def add(self, name: str, n: float = 1) -> None:
        self.tally[name] = self.tally.get(name, 0) + n


# -- hooks run after the outermost call of a layer returns ---------------------


def _ground_hook(tracer, stats, frame, args, kwargs, result):
    stats.add("rules", result.stats.rules_grounded)


def _solve_hook(tracer, stats, frame, args, kwargs, result):
    stats.add("propagations", result.stats.propagations)
    stats.add("decisions", result.stats.decisions)


def _oracle_hook(tracer, stats, frame, args, kwargs, result):
    # a call that reached no wrapped child was answered from the memo
    if frame[2] == 0:
        stats.add("memo_hits")


def _earley_hook(tracer, stats, frame, args, kwargs, result):
    grammar = args[0] if args else kwargs["grammar"]
    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    # hold the grammar so its id stays unique for the whole run
    tracer.keep[id(grammar)] = grammar
    tracer.earley_keys.add((id(grammar), tuple(tokens)))


def _clear_hook(tracer, stats, frame, args, kwargs, result):
    if args[0].name == "decision" and result:
        stats.add("decision_purges")
        stats.add("decision_purged", result)


def _append_hook(tracer, stats, frame, args, kwargs, result):
    stats.add("records")


# (layer, owner, attribute names, counts calls, hook).  An owner that is a
# module means "every repro.* binding of this function"; a class means the
# method on that class.
LAYERS = [
    ("asp.parse", _parser, ("parse_program", "parse_atom"), True, None),
    ("asp.ground", _grounder, ("ground_program",), True, _ground_hook),
    ("asp.solve", _solver, ("solve",), True, _solve_hook),
    ("asp.solve", _solver.AnswerSetSolver, ("solve",), True, _solve_hook),
    ("asp.solve", _solver.AnswerSetSolver, ("__init__",), False, None),
    ("asg.program", _semantics, ("tree_program",), True, None),
    ("asg.rebuild", _annotated.ASG, ("with_rules", "with_context"), True, None),
    ("asg.accepts", _semantics, ("accepts", "accepting_witness"), True, None),
    ("grammar.earley", _earley, ("parse_trees",), True, _earley_hook),
    ("grammar.generate", _generation, ("generate_policies",), True, None),
    ("learning.space", _mode_bias.ModeBias, ("generate",), True, None),
    ("learning.oracle", _tasks.LASTask, ("positive_holds",), True, _oracle_hook),
    ("learning.oracle", _tasks.ASGLearningTask, ("positive_holds",), True, _oracle_hook),
    ("learning.search", _decomposable.DecomposableLearner, ("learn",), True, None),
    ("learning.exact", _ilasp.ILASPLearner, ("learn",), True, None),
    ("learning.auto", _decomposable, ("learn_auto",), True, None),
    ("analysis.lint", _mode_lint, ("lint_task",), True, None),
    ("analysis.lint", _asg_lint, ("lint_asg",), True, None),
    ("engine.decide", _engine.PolicyEngine, ("decide",), True, None),
    ("engine.cache", _caches.LRUCache, ("clear",), True, _clear_hook),
    ("agenp.pdp", _pdp.PolicyDecisionPoint, ("decide",), True, None),
    ("agenp.interpret", _interpreters.FieldInterpreter, ("__call__",), True, None),
    ("policy.evaluate", _evaluation, ("applicable_rules",), True, None),
    ("policy.evaluate", _pdp, ("evaluate_compiled",), True, None),
    ("agenp.monitoring", _monitoring.MonitoringLog, ("append",), True, _append_hook),
    (
        "agenp.monitoring",
        _monitoring.MonitoringLog,
        ("mark_outcome", "records", "violations", "degradations", "stats"),
        True,
        None,
    ),
    ("agenp.prep", _prep.PolicyRefinementPoint, ("generate", "bootstrap"), True, None),
    (
        "agenp.pcp",
        _pcp.PolicyCheckingPoint,
        ("filter_policies", "check_policy", "preflight"),
        True,
        None,
    ),
    (
        "agenp.padap",
        _padap.PolicyAdaptationPoint,
        ("adapt", "ingest_feedback", "needs_adaptation"),
        True,
        None,
    ),
    ("apps.xacml", _pipeline.XacmlLearningPipeline, ("learn",), True, None),
    (
        "agenp.ams",
        _ams.AutonomousManagedSystem,
        ("adapt", "refresh_policies", "give_feedback", "decide", "set_context"),
        True,
        None,
    ),
]


def _module_bindings(function) -> List[tuple]:
    """Every (module, name) in the loaded repro package bound to ``function``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                found.append((module, attr))
    return found


class LayerTracer:
    """Installs layer wrappers and accumulates their statistics.

    Wrappers only record while ``active`` (inside :meth:`op`), so set-up
    and correctness checks between timed operations stay untraced.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.stack: List[list] = []  # frames: [stats, child seconds, child calls]
        self.active = False
        self.root_s = 0.0  # wall time of timed operations
        self.covered_s = 0.0  # part of it inside a top-level wrapped call
        self.keep: Dict[int, object] = {}
        self.earley_keys: set = set()
        self._patches: List[tuple] = []

    def stats(self, layer: str) -> LayerStats:
        found = self.layers.get(layer)
        if found is None:
            found = self.layers[layer] = LayerStats()
        return found

    def _wrap(self, layer: str, function: Callable, count: bool, hook) -> Callable:
        stats = self.stats(layer)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            outer = not stack or stack[-1][0] is not stats
            if stack:
                stack[-1][2] += 1
            frame = [stats, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.covered_s += elapsed
                if outer and count:
                    stats.calls += 1
            if outer and hook is not None:
                hook(tracer, stats, frame, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function; :meth:`restore` undoes it."""
        for layer, owner, names, count, hook in LAYERS:
            for name in names:
                if isinstance(owner, type):
                    original = owner.__dict__[name]
                    self._patches.append((owner, name, original))
                    setattr(owner, name, self._wrap(layer, original, count, hook))
                    continue
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original, count, hook)
                for module, attr in _module_bindings(original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def op(self):
        """Trace one timed operation (the root of its spans)."""
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.root_s += time.perf_counter() - start
            self.active = False

    def counts(self) -> Dict[str, float]:
        """Every count the run produced (the determinism fingerprint)."""
        out: Dict[str, float] = {}
        for layer, stats in sorted(self.layers.items()):
            out[f"{layer}.calls"] = stats.calls
            for name, value in sorted(stats.tally.items()):
                out[f"{layer}.{name}"] = value
        out["grammar.earley.distinct"] = len(self.earley_keys)
        return out


@contextlib.contextmanager
def installed(tracer: Optional[LayerTracer]):
    """Install ``tracer``'s wrappers for the dynamic extent (None: no-op)."""
    if tracer is None:
        yield None
        return
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()
