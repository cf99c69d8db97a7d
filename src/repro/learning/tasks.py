"""Learning-task definitions.

Two task families, both with *context-dependent* examples:

* :class:`ASGLearningTask` — the paper's Definition 3: given an initial
  ASG ``G``, a hypothesis space ``S_M``, and examples ``<s, C>`` of
  policy strings under contexts, find ``H ⊆ S_M`` such that every
  positive ``s ∈ L(G(C) : H)`` and every negative ``s ∉ L(G(C) : H)``.
* :class:`LASTask` — ILASP's Learning-from-Answer-Sets for plain ASP
  programs: examples are partial interpretations ``<inc, exc>`` under a
  context; a positive example requires an answer set of
  ``B ∪ H ∪ C`` covering it, a negative requires none.

Both expose the same oracle interface (``positive_holds`` /
``negative_holds``) consumed by :mod:`repro.learning.ilasp`.

The coverage oracle
-------------------

Following the meta-level encoding of the ILASP system, every candidate
``i`` of the hypothesis space is guarded by an external atom
``__use(i)`` appended to its body.  Each distinct example is compiled
once per oracle into ground programs holding *all* guarded candidates:

* an LAS example into ``B ∪ C ∪ {r_i :- body_i, __use(i)}`` plus the
  example as constraints (``:- not a.`` per included atom, ``:- b.``
  per excluded atom), so coverage is satisfiability;
* an ASG example into ``G(C)[PT]`` for each parse tree ``PT`` of its
  string (one Earley call), with every candidate re-rooted at each node
  of its production and then guarded.

A check ``holds(H, e)`` solves the compiled programs for one model with
exactly the guards of ``H`` assumed true.  Guards that occur in no
ground rule of the example cannot change its verdict, so each compiled
example memoises its verdicts keyed by the relevant guards; an example
with no relevant guard keeps its first verdict and releases its solvers.

The oracle (guard table, guarded candidates, compiled examples) is
separate from the examples it checks.  A :class:`LASTask` is its own
oracle.  An :class:`ASGLearningTask` holds one and can be built over the
``oracle`` of an earlier task of the same lineage (same ``initial``
object, equal hypothesis space, same ``context_placement``,
``max_trees`` and ``use_fast_path``), so re-learning over a grown
example set compiles only the new examples.  The same oracle answers
membership and generation for every version of a
:class:`~repro.core.gpm.GenerativePolicyModel`.  Building a task over an
oracle keeps the task's examples and those checked since the previous
task was built, and drops the rest.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.asp.atoms import Atom, Literal
from repro.asp.grounder import ground_program
from repro.asp.parser import parse_program
from repro.asp.rules import ChoiceRule, NormalRule, Program, Rule, WeakConstraint
from repro.asp.solver import AnswerSetSolver
from repro.asp.terms import Integer
from repro.asg.annotated import ASG, validate_annotation
from repro.asg.semantics import reroot_rule
from repro.errors import GrammarError, LearningError
from repro.grammar.cfg import SymbolString
from repro.grammar.earley import parse_trees
from repro.grammar.parse_tree import ParseTree
from repro.learning.mode_bias import CandidateRule
from repro.runtime.budget import spend

__all__ = ["ContextExample", "ASGLearningTask", "PartialInterpretation", "LASTask"]

_GUARD = "__use"


def _guarded(rule: Rule, guard: Literal) -> Rule:
    """``rule`` with ``guard`` appended to its body."""
    body = rule.body + (guard,)
    if isinstance(rule, NormalRule):
        return NormalRule(rule.head, body)
    if isinstance(rule, ChoiceRule):
        return ChoiceRule(rule.elements, body, rule.lower, rule.upper)
    return WeakConstraint(body, rule.weight, rule.priority)


class _CompiledExample:
    """One example compiled by one oracle: a solver per ground program
    (one per parse tree for ASG examples), the guard indices that occur
    in them, the verdicts found so far keyed by the relevant guards of
    the hypothesis, and the oracle generation of its last check."""

    __slots__ = ("solvers", "relevant", "verdicts", "checked_in")

    def __init__(self, solvers: List[AnswerSetSolver], relevant: FrozenSet[int]):
        self.solvers = solvers
        self.relevant = relevant
        self.verdicts: Dict[FrozenSet[int], bool] = {}
        self.checked_in = 0


class _GuardedOracle:
    """The coverage oracle of both task kinds (see the module docstring):
    guard table, compiled examples and their verdicts.  Subclasses define
    ``_compile``."""

    def __init__(self, hypothesis_space: Sequence[CandidateRule], use_fast_path: bool):
        self.hypothesis_space = list(hypothesis_space)
        self.use_fast_path = use_fast_path
        self._guards: Dict[CandidateRule, int] = {}
        for candidate in self.hypothesis_space:
            self._guards.setdefault(candidate, len(self._guards))
        self._guard_atoms = [Atom(_GUARD, [Integer(i)]) for i in range(len(self._guards))]
        self._compiled: Dict[object, _CompiledExample] = {}
        self._generation = 0  # bumped by each task built over the oracle

    def knows(self, candidate: CandidateRule) -> bool:
        """Is ``candidate`` in the guard table?"""
        return candidate in self._guards

    def constraints_only(self) -> bool:
        """True iff every candidate is an integrity constraint.

        In that case acceptance is anti-monotone in the hypothesis, which
        the learner exploits for pruning.
        """
        return all(
            getattr(c.rule, "head", None) is None and not hasattr(c.rule, "elements")
            for c in self.hypothesis_space
        )

    def _guarded_candidates(self) -> Iterable[Tuple[CandidateRule, Literal]]:
        """``(candidate, guard literal)`` per distinct candidate."""
        for candidate, index in self._guards.items():
            yield candidate, Literal(self._guard_atoms[index], True)

    def holds(self, hypothesis: Sequence[CandidateRule], example) -> bool:
        """Does some compiled program of ``example`` have an answer set
        with exactly the guards of ``hypothesis`` assumed?"""
        spend()  # every oracle check ticks the ambient budget
        compiled = self._compiled.get(example)
        if compiled is None:  # each oracle kind defines _compile
            compiled = self._compiled[example] = self._compile(example)
        compiled.checked_in = self._generation
        relevant = compiled.relevant
        try:
            guards = frozenset(
                index
                for index in map(self._guards.__getitem__, hypothesis)
                if index in relevant
            )
        except KeyError as error:
            raise LearningError(
                f"candidate {error.args[0]!r} is not in the task's hypothesis space"
            ) from None
        verdict = compiled.verdicts.get(guards)
        if verdict is None:  # a check that raises stores nothing
            assumptions = [self._guard_atoms[index] for index in guards]
            verdict = any(
                solver.solve(max_models=1, assumptions=assumptions)
                for solver in compiled.solvers
            )
            compiled.verdicts[guards] = verdict
            if not relevant:  # the only verdict this example can have
                compiled.solvers = []
        return verdict

    def _solvers(self, programs: Iterable[Program]) -> _CompiledExample:
        """Ground and load each program with every guard as an external."""
        solvers: List[AnswerSetSolver] = []
        used: set = set()
        for program in programs:
            ground = ground_program(program, externals=self._guard_atoms)
            solver = AnswerSetSolver(ground, use_fast_path=self.use_fast_path)
            solvers.append(solver)
            used |= solver.used_externals
        relevant = frozenset(
            index for index, atom in enumerate(self._guard_atoms) if atom in used
        )
        return _CompiledExample(solvers, relevant)


def _context_key(context: Program) -> FrozenSet[Rule]:
    # rule order and repetition do not change a program's answer sets
    return frozenset(context)


class ContextExample:
    """An example ``<s, C>``: a policy string under an ASP context program.

    Examples are values: two examples with the same string and the same
    context rules are equal (name and weight aside), so a task compiles
    them once.  Do not mutate one after construction.
    """

    __slots__ = ("tokens", "context", "name", "weight", "_key", "_hash")

    def __init__(
        self,
        tokens: Sequence[str],
        context: Optional[Program] = None,
        name: str = "",
        weight: int = 1,
    ):
        self.tokens: SymbolString = tuple(tokens)
        self.context = context if context is not None else Program()
        self.name = name or " ".join(self.tokens)
        self.weight = weight
        self._key = (self.tokens, _context_key(self.context))
        self._hash = hash(self._key)

    @classmethod
    def from_text(cls, string: str, context_text: str = "", **kw) -> "ContextExample":
        """Build from a space-separated policy string and ASP context text."""
        context = parse_program(context_text) if context_text else Program()
        return cls(tuple(string.split()), context, **kw)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContextExample) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        ctx = f" | {len(self.context.rules)} ctx rules" if len(self.context) else ""
        return f"<{' '.join(self.tokens)}{ctx}>"


class _ASGOracle(_GuardedOracle):
    """The coverage oracle of one ASG lineage (see the module docstring)."""

    def __init__(
        self,
        initial: ASG,
        hypothesis_space: Sequence[CandidateRule],
        context_placement: str,
        max_trees: int,
        use_fast_path: bool,
    ):
        super().__init__(hypothesis_space, use_fast_path)
        self.initial = initial
        self.context_placement = context_placement
        self.max_trees = max_trees
        # production id -> [(rule, guard)], validated on first compile
        self._attached: Optional[Dict[int, List[Tuple[Rule, Literal]]]] = None

    def serves(self, task: "ASGLearningTask") -> bool:
        """Does ``task`` belong to this oracle's lineage?"""
        return (
            self.initial is task.initial
            and self.context_placement == task.context_placement
            and self.max_trees == task.max_trees
            and self.use_fast_path == task.use_fast_path
            and self.hypothesis_space == task.hypothesis_space
        )

    def retain(self, examples: Iterable[ContextExample]) -> None:
        """Start a new generation: keep ``examples`` and the examples
        checked since the previous call, drop every other compiled one."""
        keep = set(examples)
        current = self._generation
        stale = [
            example
            for example, compiled in self._compiled.items()
            if example not in keep and compiled.checked_in != current
        ]
        for example in stale:
            del self._compiled[example]
        self._generation = current + 1

    def _attachments(self) -> Dict[int, List[Tuple[Rule, Literal]]]:
        """Candidates and their guards per production, checked as ``G : H`` would."""
        if self._attached is None:
            cfg = self.initial.cfg
            attached: Dict[int, List[Tuple[Rule, Literal]]] = {}
            for candidate, guard in self._guarded_candidates():
                prod_id = candidate.prod_id if candidate.prod_id is not None else 0
                if not (0 <= prod_id < len(cfg.productions)):
                    raise GrammarError(f"no production with id {prod_id}")
                self._validate(prod_id, [candidate.rule])
                attached.setdefault(prod_id, []).append((candidate.rule, guard))
            self._attached = attached
        return self._attached

    def _validate(self, prod_id: int, rules: Sequence[Rule]) -> None:
        if self.initial.strict:
            validate_annotation(self.initial.cfg.production(prod_id), Program(rules))

    def _compile(self, example: ContextExample) -> _CompiledExample:
        attached = self._attachments()
        cfg = self.initial.cfg
        if self.context_placement == "all":
            targets = {p.prod_id for p in cfg.productions}
        else:
            targets = {p.prod_id for p in cfg.productions_for(cfg.start)}
        context = list(example.context)
        for prod_id in targets:
            self._validate(prod_id, context)
        # strict: a truncated forest could hide the only accepting tree
        trees = parse_trees(cfg, example.tokens, max_trees=self.max_trees, strict=True)
        return self._solvers(
            self._tree_program(tree, context, targets, attached) for tree in trees
        )

    def _tree_program(
        self,
        tree: ParseTree,
        context: Sequence[Rule],
        targets: set,
        attached: Dict[int, List[Tuple[Rule, Literal]]],
    ) -> Program:
        """``G(C)[PT]`` plus every guarded candidate at each node of its production."""
        program = Program()
        for node, trace in tree.interior_nodes():
            prod_id = node.production.prod_id
            for rule in self.initial.annotation(prod_id):
                program.add(reroot_rule(rule, trace))
            if prod_id in targets:
                for rule in context:
                    program.add(reroot_rule(rule, trace))
            for rule, guard in attached.get(prod_id, ()):
                program.add(_guarded(reroot_rule(rule, trace), guard))
        return program


class ASGLearningTask:
    """A context-dependent ASG learning task ``<G, S_M, E+, E->`` (Definition 3).

    ``oracle`` is the :attr:`oracle` of an earlier task to build this one
    over.  It is used when that task had the same lineage (see the module
    docstring) and replaced by a fresh oracle otherwise.  An example with
    more than ``max_trees`` parse trees raises :class:`AmbiguityLimitError`
    when it is checked.
    """

    def __init__(
        self,
        initial: ASG,
        hypothesis_space: Sequence[CandidateRule],
        positive: Sequence[ContextExample],
        negative: Sequence[ContextExample],
        context_placement: str = "all",
        max_trees: int = 256,
        use_fast_path: bool = True,
        oracle: Optional[_ASGOracle] = None,
    ):
        if context_placement not in ("all", "start"):
            raise ValueError("context_placement must be 'all' or 'start'")
        self.initial = initial
        self.hypothesis_space = list(hypothesis_space)
        self.positive = list(positive)
        self.negative = list(negative)
        self.context_placement = context_placement
        self.max_trees = max_trees
        self.use_fast_path = use_fast_path
        if oracle is not None and oracle.serves(self):
            oracle.retain(self.positive + self.negative)
        else:
            oracle = _ASGOracle(
                initial,
                self.hypothesis_space,
                context_placement,
                max_trees,
                use_fast_path,
            )
        self.oracle = oracle

    def constraints_only(self) -> bool:
        """True iff every candidate is an integrity constraint."""
        return self.oracle.constraints_only()

    def positive_holds(self, hypothesis: Sequence[CandidateRule], example: ContextExample) -> bool:
        """Check condition 1 of Definition 3: ``s ∈ L(G(C) : H)``."""
        return self.oracle.holds(hypothesis, example)

    def negative_holds(self, hypothesis: Sequence[CandidateRule], example: ContextExample) -> bool:
        """Check condition 2 of Definition 3: ``s ∉ L(G(C) : H)``."""
        return not self.positive_holds(hypothesis, example)


class PartialInterpretation:
    """An ILASP example: atoms to include/exclude, under a context program.

    Examples are values: equal inclusions, exclusions and context rules
    make equal examples (name and weight aside), so a task compiles them
    once.  Do not mutate one after construction.
    """

    __slots__ = ("inclusions", "exclusions", "context", "name", "weight", "_key", "_hash")

    def __init__(
        self,
        inclusions: Iterable[Atom] = (),
        exclusions: Iterable[Atom] = (),
        context: Optional[Program] = None,
        name: str = "",
        weight: int = 1,
    ):
        self.inclusions = frozenset(inclusions)
        self.exclusions = frozenset(exclusions)
        self.context = context if context is not None else Program()
        self.name = name
        self.weight = weight
        self._key = (self.inclusions, self.exclusions, _context_key(self.context))
        self._hash = hash(self._key)

    def covered_by(self, answer_set: FrozenSet[Atom]) -> bool:
        return self.inclusions <= answer_set and not (self.exclusions & answer_set)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialInterpretation) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inc = ", ".join(sorted(map(str, self.inclusions)))
        exc = ", ".join(sorted(map(str, self.exclusions)))
        return f"<inc: {{{inc}}} exc: {{{exc}}}>"


class LASTask(_GuardedOracle):
    """A Learning-from-Answer-Sets task ``<B, S_M, E+, E->``."""

    def __init__(
        self,
        background: Program,
        hypothesis_space: Sequence[CandidateRule],
        positive: Sequence[PartialInterpretation],
        negative: Sequence[PartialInterpretation],
        use_fast_path: bool = True,
    ):
        super().__init__(hypothesis_space, use_fast_path)
        self.background = background
        self.positive = list(positive)
        self.negative = list(negative)
        self._guarded_rules = [
            _guarded(candidate.rule, guard)
            for candidate, guard in self._guarded_candidates()
        ]

    def positive_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """Some answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        return self.holds(hypothesis, example)

    def negative_holds(
        self, hypothesis: Sequence[CandidateRule], example: PartialInterpretation
    ) -> bool:
        """No answer set of ``B ∪ H ∪ C`` covers the partial interpretation."""
        return not self.positive_holds(hypothesis, example)

    def _compile(self, example: PartialInterpretation) -> _CompiledExample:
        program = Program(list(self.background))
        program.extend(example.context)
        program.extend(self._guarded_rules)
        for atom in example.inclusions:
            program.add(NormalRule(None, [Literal(atom, False)]))
        for atom in example.exclusions:
            program.add(NormalRule(None, [Literal(atom, True)]))
        return self._solvers([program])
