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
``negative_holds`` and ``coverage_row``) consumed by the learners of
:mod:`repro.learning.ilasp` and :mod:`repro.learning.decomposable`.

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
  of its production and then guarded; when ``C`` is plain facts, into
  assumptions over its string's shared compile (see below).

A check ``holds(H, e)`` solves the compiled programs for one model with
exactly the guards of ``H`` assumed true.  Guards that occur in no
ground rule of the example cannot change its verdict, so each compiled
example memoises its verdicts keyed by the relevant guards; an example
with no relevant guard keeps its first verdict and releases its solvers.

``coverage_row(e)`` answers the empty and every single-candidate check
of ``e`` at once, as ``(base, bits)``: bit ``i`` of the int ``bits`` is
the verdict of ``{hypothesis_space[i]}``.  It solves only the relevant
guards, through the same memo as ``holds``, and every other bit is
``base``.  The row is stored on the compiled example, so it ages with
it; a learner re-run over an oracle reads it back with no check per
candidate.  It ticks the ambient budget by, and a learner counts it as,
the ``1 + len(hypothesis_space)`` checks it stands for.  Rows are the
source for coverage bitsets: transposed, they give each candidate's set
of covered examples.

Contexts as assumptions (ASG only): a context of *plain facts* (ground,
unannotated facts whose predicate heads no rule of the initial grammar
or the hypothesis space) is not compiled into the programs.  The ASG
oracle compiles each *string* once over its *fact universe*, the union
of the plain facts of every context it has compiled: every universe
fact re-rooted at each target node of each parse tree is an external
beside the guards.  An example then only records which of those
externals its own facts make true, and a check assumes them with the
guards, so a new context over known facts compiles nothing.  A fact
outside the universe of its string's compile grows the universe and
compiles that string once more.  A string compile in which no external
occurs has one verdict in every context: it is solved once and keeps
only that verdict.  Any other context (rules, annotated or non-ground
facts, a fact whose predicate heads a rule) is compiled with its string
into ``G(C)[PT]`` as before.

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
from repro.errors import GrammarError, GroundingError, LearningError
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
    (one per parse tree for ASG examples) with the context externals the
    example assumes in it, the guard indices that occur in them, the
    verdicts found so far keyed by the relevant guards of the
    hypothesis, its coverage row once computed, the oracle generation of
    its last check, and the string compile its solvers come from
    (``None`` when they are its own)."""

    __slots__ = ("solvers", "contexts", "relevant", "verdicts", "row", "checked_in", "source")

    def __init__(
        self,
        solvers: List[AnswerSetSolver],
        relevant: FrozenSet[int],
        contexts: Optional[List[List[Atom]]] = None,
        source: Optional["_StringCompile"] = None,
    ):
        self.solvers = solvers
        self.contexts = contexts if contexts is not None else [[]] * len(solvers)
        self.relevant = relevant
        self.verdicts: Dict[FrozenSet[int], bool] = {}
        self.row: Optional[Tuple[bool, int]] = None
        self.checked_in = 0
        self.source = source


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
        # per guard, the bits of its positions in the space (duplicates share one)
        self._positions = [0] * len(self._guards)
        for position, candidate in enumerate(self.hypothesis_space):
            self._positions[self._guards[candidate]] |= 1 << position
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
        compiled = self._compiled_example(example)
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
        return self._verdict(compiled, guards)

    def coverage_row(self, example) -> Tuple[bool, int]:
        """``(holds([], example), bits)``, where bit ``i`` of ``bits`` is
        ``holds([hypothesis_space[i]], example)`` (see the module docstring)."""
        spend(1 + len(self.hypothesis_space))  # the checks the row stands for
        compiled = self._compiled_example(example)
        if compiled.row is None:
            base = self._verdict(compiled, frozenset())
            # a guard that occurs in no ground rule of the example has verdict base
            bits = (1 << len(self.hypothesis_space)) - 1 if base else 0
            for index in sorted(compiled.relevant):
                if self._verdict(compiled, frozenset((index,))) != base:
                    bits ^= self._positions[index]
            compiled.row = (base, bits)
        return compiled.row

    def _compiled_example(self, example) -> _CompiledExample:
        compiled = self._compiled.get(example)
        if compiled is None:  # each oracle kind defines _compile
            compiled = self._compiled[example] = self._compile(example)
        compiled.checked_in = self._generation
        return compiled

    def _verdict(self, compiled: _CompiledExample, guards: FrozenSet[int]) -> bool:
        """The memoised verdict of ``compiled`` with exactly ``guards`` assumed."""
        verdict = compiled.verdicts.get(guards)
        if verdict is None:  # a check that raises stores nothing
            assumptions = [self._guard_atoms[index] for index in guards]
            verdict = any(
                solver.solve(max_models=1, assumptions=assumptions + context)
                for solver, context in zip(compiled.solvers, compiled.contexts)
            )
            compiled.verdicts[guards] = verdict
            if not compiled.relevant:  # the only verdict this example can have
                compiled.solvers, compiled.contexts = [], []
        return verdict

    def _solver(self, program: Program, externals: Sequence[Atom]) -> AnswerSetSolver:
        ground = ground_program(program, externals=externals)
        return AnswerSetSolver(ground, use_fast_path=self.use_fast_path)

    def _relevant(self, solvers: Iterable[AnswerSetSolver]) -> FrozenSet[int]:
        """The indices of the guards that occur in some of ``solvers``."""
        used = frozenset().union(*(solver.used_externals for solver in solvers))
        return frozenset(
            index for index, atom in enumerate(self._guard_atoms) if atom in used
        )

    def _solvers(self, programs: Iterable[Program]) -> _CompiledExample:
        """Ground and load each program with every guard as an external."""
        solvers = [self._solver(program, self._guard_atoms) for program in programs]
        return _CompiledExample(solvers, self._relevant(solvers))


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


class _StringCompile:
    """One policy string compiled by an ASG oracle over a fact universe
    (see the module docstring): a solver per parse tree, the guard
    indices that occur in them, and per solver the re-rooted externals
    of each universe fact that occur in it.  ``verdict`` is set, and the
    solvers are released, when no external occurs in any of them."""

    __slots__ = ("universe", "solvers", "relevant", "rerooted", "verdict")

    def __init__(
        self,
        universe: FrozenSet[Atom],
        solvers: List[AnswerSetSolver],
        relevant: FrozenSet[int],
        rerooted: List[Dict[Atom, List[Atom]]],
    ):
        self.universe = universe
        self.solvers = solvers
        self.relevant = relevant
        self.rerooted = rerooted
        self.verdict: Optional[bool] = None
        if not relevant and not any(rerooted):
            self.verdict = any(solver.solve(max_models=1) for solver in solvers)
            self.solvers = []
            self.rerooted = []

    def example(self, facts: FrozenSet[Atom]) -> _CompiledExample:
        """The compiled example of this string under the context ``facts``."""
        if self.verdict is not None:
            compiled = _CompiledExample([], frozenset(), source=self)
            compiled.verdicts[frozenset()] = self.verdict
            return compiled
        contexts = [
            [atom for fact in facts for atom in rerooted.get(fact, ())]
            for rerooted in self.rerooted
        ]
        return _CompiledExample(self.solvers, self.relevant, contexts, self)


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
        # the signatures of heads and choice elements: a context fact over
        # one of them is not plain
        rules = [rule for program in initial.annotations.values() for rule in program]
        rules += [candidate.rule for candidate in self.hypothesis_space]
        derived = set()
        for rule in rules:
            if isinstance(rule, ChoiceRule):
                derived.update(atom.signature for atom in rule.elements)
            elif isinstance(rule, NormalRule) and rule.head is not None:
                derived.add(rule.head.signature)
        self._derived = frozenset(derived)
        self._universe: FrozenSet[Atom] = frozenset()
        self._strings: Dict[SymbolString, _StringCompile] = {}

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
        live = {id(compiled.source) for compiled in self._compiled.values()}
        self._strings = {
            tokens: source
            for tokens, source in self._strings.items()
            if id(source) in live
        }
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

    def _targets(self) -> set:
        """The productions whose nodes receive the context."""
        cfg = self.initial.cfg
        if self.context_placement == "all":
            return {p.prod_id for p in cfg.productions}
        return {p.prod_id for p in cfg.productions_for(cfg.start)}

    def _trees(self, tokens: SymbolString) -> List[ParseTree]:
        # strict: a truncated forest could hide the only accepting tree
        return parse_trees(self.initial.cfg, tokens, max_trees=self.max_trees, strict=True)

    def _plain_facts(self, context: Program) -> Optional[FrozenSet[Atom]]:
        """The atoms of ``context`` when all its rules are plain facts, else None."""
        facts = set()
        for rule in context:
            if not isinstance(rule, NormalRule) or not rule.is_fact:
                return None
            atom = rule.head
            if (
                atom.annotation is not None
                or atom.signature in self._derived
                or not atom.is_ground()
            ):
                return None
            try:  # no arithmetic left to evaluate
                if atom.evaluate() != atom:
                    return None
            except GroundingError:
                return None
            facts.add(atom)
        return frozenset(facts)

    def _compile(self, example: ContextExample) -> _CompiledExample:
        facts = self._plain_facts(example.context)
        if facts is None:
            return self._compile_with_context(example)
        if not facts <= self._universe:
            self._universe |= facts
        source = self._strings.get(example.tokens)
        if source is None or not facts <= source.universe:
            source = self._compile_string(example.tokens)
            self._strings[example.tokens] = source
        return source.example(facts)

    def _compile_string(self, tokens: SymbolString) -> _StringCompile:
        """``G[PT]`` per parse tree with the guards and every universe fact
        at each target node as externals."""
        attached = self._attachments()
        targets = self._targets()
        universe = self._universe
        solvers: List[AnswerSetSolver] = []
        rerooted: List[Dict[Atom, List[Atom]]] = []
        for tree in self._trees(tokens):
            traces = [
                trace
                for node, trace in tree.interior_nodes()
                if node.production.prod_id in targets
            ]
            at_nodes = {fact: [fact.with_annotation(t) for t in traces] for fact in universe}
            externals = self._guard_atoms + [a for atoms in at_nodes.values() for a in atoms]
            program = self._tree_program(tree, (), targets, attached)
            solver = self._solver(program, externals)
            solvers.append(solver)
            used = solver.used_externals
            kept = {fact: [a for a in atoms if a in used] for fact, atoms in at_nodes.items()}
            rerooted.append({fact: atoms for fact, atoms in kept.items() if atoms})
        return _StringCompile(universe, solvers, self._relevant(solvers), rerooted)

    def _compile_with_context(self, example: ContextExample) -> _CompiledExample:
        """``G(C)[PT]`` per parse tree: the context compiled into the programs."""
        attached = self._attachments()
        targets = self._targets()
        context = list(example.context)
        for prod_id in targets:
            self._validate(prod_id, context)
        return self._solvers(
            self._tree_program(tree, context, targets, attached)
            for tree in self._trees(example.tokens)
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

    def coverage_row(self, example: ContextExample) -> Tuple[bool, int]:
        """The oracle's :meth:`~_GuardedOracle.coverage_row` of ``example``."""
        return self.oracle.coverage_row(example)


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
