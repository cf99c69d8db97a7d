"""Answer-set solver for ground programs.

The solver enumerates answer sets of a :class:`~repro.asp.grounder.GroundProgram`
by backtracking search with propagation, then verifies each candidate
against the Gelfond–Lifschitz reduct, so results are exact answer sets —
propagation is an optimization, stability is the ground truth.

Choice rules ``l { a1; ...; ak } u :- body`` are translated into pairs of
normal rules over fresh complement atoms::

    ai      :- body, not __naux_i.
    __naux_i :- body, not ai.

which is the standard encoding of a free choice; cardinality bounds are
enforced as a check on complete candidates.

Propagation implements four sound inferences over partial assignments:

* *forward*: a rule with a fully-true body forces its head true
  (a constraint with a fully-true body is a conflict);
* *head-false*: a rule whose head is false and whose body has exactly one
  unassigned literal (rest true) falsifies that literal;
* *no-support*: an atom all of whose potentially-supporting rules are
  dead (contain a false body literal) must be false;
* *last-support*: a true atom with exactly one alive supporting rule
  forces that rule's body true (supportedness of answer sets).

Externals (see :func:`~repro.asp.grounder.ground_program`) are fixed
before search: an external in ``assumptions`` is true and counts as a
fact for the support and stability checks, every other external is
false.  One solver can so answer many calls that differ only in which
externals hold, without re-grounding.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.asp.atoms import Atom, Literal
from repro.asp.grounder import GroundProgram, ground_program
from repro.asp.parser import parse_program
from repro.asp.rules import ChoiceRule, NormalRule, Program
from repro.errors import BudgetExceededError
from repro.runtime.budget import Budget, current_budget
from repro.telemetry import span as _tele_span

__all__ = [
    "AnswerSetSolver",
    "solve",
    "solve_text",
    "is_satisfiable_text",
    "AnswerSet",
    "SolveResult",
    "SolveStats",
]

DEFAULT_MAX_STEPS = 50_000_000

AnswerSet = FrozenSet[Atom]

_AUX_PREFIX = "__naux"

_TRUE = 1
_FALSE = -1
_UNKNOWN = 0


class SolveStats:
    """Search statistics for one solver run (the ILASP-style per-run
    numbers the paper's tooling reports as first-class output).

    * ``decisions`` — branch assignments tried by the search;
    * ``propagations`` — literal assignments forced by propagation;
    * ``conflicts`` — propagation dead-ends (backtrack triggers);
    * ``stability_checks`` — Gelfond–Lifschitz reduct verifications;
    * ``stability_skips`` — candidate models accepted without a reduct
      check because static analysis proved the ground program stratified
      and tight (see :meth:`AnswerSetSolver.uses_fast_path`);
    * ``models`` — answer sets found;
    * ``steps`` — propagation passes (the unit the PR-1 Budget ticks).
    """

    __slots__ = (
        "decisions",
        "propagations",
        "conflicts",
        "stability_checks",
        "stability_skips",
        "models",
        "steps",
    )

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.stability_checks = 0
        self.stability_skips = 0
        self.models = 0
        self.steps = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolveStats({inner})"


class SolveResult(List[AnswerSet]):
    """The answer sets of a solve plus its search statistics.

    A list subclass: every existing call site that iterates, indexes, or
    truth-tests the models keeps working, while ``result.stats`` exposes
    the :class:`SolveStats` instead of discarding them.
    """

    def __init__(self, models: Iterable[AnswerSet], stats: Optional[SolveStats] = None):
        super().__init__(models)
        self.stats = stats if stats is not None else SolveStats()


class _Rule:
    """Internal ground normal rule over atom ids."""

    __slots__ = ("head", "body", "index")

    def __init__(self, head: Optional[int], body: Tuple[Tuple[int, bool], ...], index: int):
        self.head = head
        self.body = body  # (atom_id, positive)
        self.index = index


class AnswerSetSolver:
    """Enumerate the answer sets of a ground program.

    Resource governance: ``max_steps`` (default 50 million propagation
    passes — effectively "never" for the policy-layer programs, a
    runaway guard for adversarial ones) bounds the step count of each
    :meth:`solve` call; exhausting it raises
    :class:`~repro.errors.BudgetExceededError` carrying ``steps_used``.
    An explicit ``budget`` (or, when omitted, the ambient
    :func:`~repro.runtime.budget.current_budget` at the time of each
    :meth:`solve` call) is ticked once per propagation pass, so
    wall-clock deadlines and shared step budgets interrupt the solver
    mid-solve.

    Stability fast path: every complete candidate reaching verification
    is a *supported* model (no-support propagation runs to fixpoint
    before the branch selector can report "all assigned").  When the
    ground program's atom dependency graph is stratified **and** tight
    (positive subgraph acyclic), supported models coincide with stable
    models (Fages' theorem), so the Gelfond–Lifschitz reduct check is
    provably redundant and is skipped — counted in
    ``stats.stability_skips`` instead of ``stats.stability_checks``.
    Tightness is essential: a merely stratified positive loop such as
    ``p :- q. q :- p.`` has the supported model ``{p, q}`` that is not
    stable.  ``use_fast_path=False`` disables the optimization (every
    candidate takes the reduct check, as before this analysis existed).
    """

    def __init__(
        self,
        ground: GroundProgram,
        max_steps: int = DEFAULT_MAX_STEPS,
        budget: Optional[Budget] = None,
        use_fast_path: bool = True,
    ):
        self._max_steps = max_steps
        self._steps = 0
        self._step_limit = max_steps
        self._budget = budget
        self._active_budget: Optional[Budget] = None
        self._use_fast_path = use_fast_path
        self._fast_path: Optional[bool] = None  # decided lazily on first verify
        self.stats = SolveStats()

        self._atoms: List[Atom] = []
        self._ids: Dict[Atom, int] = {}
        self._rules: List[_Rule] = []
        # choice bounds: (body ids, element ids, lower, upper)
        self._bounds: List[Tuple[Tuple[Tuple[int, bool], ...], Tuple[int, ...], Optional[int], Optional[int]]] = []

        self._visible: List[bool] = []
        self._build(ground)

        # externals occurring in some ground rule; the others cannot
        # influence any answer set.  Models are projected onto the
        # program's own atoms, so externals are hidden like aux atoms.
        self._declared_externals = ground.externals
        self._externals: Dict[Atom, int] = {
            atom: self._ids[atom] for atom in ground.externals if atom in self._ids
        }
        for atom_id in self._externals.values():
            self._visible[atom_id] = False
        external_ids = set(self._externals.values())
        self._derived_ids = [i for i in range(len(self._atoms)) if i not in external_ids]

        n = len(self._atoms)
        self._supports: List[List[int]] = [[] for _ in range(n)]
        self._occurrences: List[List[int]] = [[] for _ in range(n)]
        for rule in self._rules:
            if rule.head is not None:
                self._supports[rule.head].append(rule.index)
            for atom_id, __ in rule.body:
                self._occurrences[atom_id].append(rule.index)
            if rule.head is not None:
                self._occurrences[rule.head].append(rule.index)

    # -- construction ------------------------------------------------------

    def _atom_id(self, atom: Atom) -> int:
        existing = self._ids.get(atom)
        if existing is not None:
            return existing
        new_id = len(self._atoms)
        self._ids[atom] = new_id
        self._atoms.append(atom)
        self._visible.append(not atom.predicate.startswith(_AUX_PREFIX))
        return new_id

    def _build(self, ground: GroundProgram) -> None:
        def body_ids(body: Iterable[Literal]) -> Tuple[Tuple[int, bool], ...]:
            return tuple((self._atom_id(lit.atom), lit.positive) for lit in body)

        for rule in ground.normal_rules:
            head = self._atom_id(rule.head) if rule.head is not None else None
            self._rules.append(_Rule(head, body_ids(rule.body), len(self._rules)))

        for counter, choice in enumerate(ground.choice_rules):
            cbody = body_ids(choice.body)
            element_ids: List[int] = []
            for j, atom in enumerate(choice.elements):
                elem_id = self._atom_id(atom)
                aux_atom = Atom(f"{_AUX_PREFIX}_{counter}_{j}")
                aux_id = self._atom_id(aux_atom)
                element_ids.append(elem_id)
                self._rules.append(
                    _Rule(elem_id, cbody + ((aux_id, False),), len(self._rules))
                )
                self._rules.append(
                    _Rule(aux_id, cbody + ((elem_id, False),), len(self._rules))
                )
            if choice.lower is not None or choice.upper is not None:
                self._bounds.append((cbody, tuple(element_ids), choice.lower, choice.upper))

    # -- solving -------------------------------------------------------------

    @property
    def used_externals(self) -> FrozenSet[Atom]:
        """The declared externals occurring in some ground rule; the
        others cannot change any answer set."""
        return frozenset(self._externals)

    @property
    def steps_used(self) -> int:
        """Propagation passes consumed so far (for post-mortem telemetry)."""
        return self._steps

    def solve(
        self, max_models: Optional[int] = None, assumptions: Iterable[Atom] = ()
    ) -> "SolveResult":
        """Return up to ``max_models`` answer sets (all if ``None``).

        ``assumptions`` names the externals that are true for this call;
        every other external is false.  Naming an atom that was not
        declared external raises :class:`ValueError`.  Atoms of internal
        auxiliary predicates and externals are projected out.  The
        result is a :class:`SolveResult`: a plain list of answer sets
        carrying this call's :class:`SolveStats`, which are also
        recorded on the ambient telemetry span (``asp.solve``) when one
        exists; ``self.stats`` accumulates over all calls.
        """
        with _tele_span(
            "asp.solve", atoms=len(self._atoms), rules=len(self._rules)
        ) as sp:
            models: List[AnswerSet] = []
            assignment = [_UNKNOWN] * len(self._atoms)
            for atom_id in self._externals.values():
                assignment[atom_id] = _FALSE
            for atom in assumptions:
                atom_id = self._externals.get(atom)
                if atom_id is not None:
                    assignment[atom_id] = _TRUE
                elif atom not in self._declared_externals:
                    raise ValueError(f"assumption {atom!r} is not an external atom")
            trail: List[int] = []
            before = self.stats.as_dict()
            self._step_limit = self._steps + self._max_steps
            self._active_budget = (
                self._budget if self._budget is not None else current_budget()
            )

            try:
                for model in self._search(assignment, trail):
                    models.append(model)
                    if max_models is not None and len(models) >= max_models:
                        break
            finally:
                stats = self.stats
                stats.models += len(models)
                stats.steps = self._steps
                # deltas, so re-solving on one instance never double-counts
                delta = SolveStats()
                for name, start in before.items():
                    setattr(delta, name, getattr(stats, name) - start)
                    sp.incr(f"solver.{name}", getattr(delta, name))
            return SolveResult(models, delta)

    def is_satisfiable(self) -> bool:
        return bool(self.solve(max_models=1))

    # The search is written iteratively-recursively: _search yields models.

    def _search(self, assignment: List[int], trail: List[int]) -> Iterator[AnswerSet]:
        if not self._propagate(assignment, trail):
            return
        unassigned = self._pick_branch(assignment)
        if unassigned is None:
            if self._verify(assignment):
                yield self._extract(assignment)
            return
        for value in (_FALSE, _TRUE):
            mark = len(trail)
            self.stats.decisions += 1
            self._assign(unassigned, value, assignment, trail)
            yield from self._search(assignment, trail)
            self._undo(mark, assignment, trail)

    def _assign(self, atom_id: int, value: int, assignment: List[int], trail: List[int]) -> None:
        assignment[atom_id] = value
        trail.append(atom_id)

    def _undo(self, mark: int, assignment: List[int], trail: List[int]) -> None:
        while len(trail) > mark:
            assignment[trail.pop()] = _UNKNOWN

    def _pick_branch(self, assignment: List[int]) -> Optional[int]:
        best = None
        best_score = -1
        for atom_id, value in enumerate(assignment):
            if value == _UNKNOWN:
                score = len(self._occurrences[atom_id])
                if score > best_score:
                    best = atom_id
                    best_score = score
        return best

    # -- propagation ---------------------------------------------------------

    def _literal_value(self, atom_id: int, positive: bool, assignment: List[int]) -> int:
        value = assignment[atom_id]
        if value == _UNKNOWN:
            return _UNKNOWN
        truth = value == _TRUE
        return _TRUE if truth == positive else _FALSE

    def _propagate(self, assignment: List[int], trail: List[int]) -> bool:
        """Run propagation to fixpoint; return False on conflict."""
        changed = True
        while changed:
            self._steps += 1
            if self._steps > self._step_limit:
                raise BudgetExceededError(
                    "solver step limit exceeded",
                    # steps of this call: the limit is start + max_steps
                    steps_used=self._steps - self._step_limit + self._max_steps,
                    max_steps=self._max_steps,
                )
            if self._active_budget is not None:
                self._active_budget.tick()
            changed = False
            # rule-based propagation
            for rule in self._rules:
                n_unknown = 0
                n_false = 0
                last_unknown: Optional[Tuple[int, bool]] = None
                for atom_id, positive in rule.body:
                    value = self._literal_value(atom_id, positive, assignment)
                    if value == _UNKNOWN:
                        n_unknown += 1
                        last_unknown = (atom_id, positive)
                    elif value == _FALSE:
                        n_false += 1
                        break
                if n_false:
                    continue
                head_value = (
                    assignment[rule.head] if rule.head is not None else _FALSE
                )
                if n_unknown == 0:
                    # body fully true
                    if rule.head is None:
                        self.stats.conflicts += 1
                        return False  # constraint violated
                    if head_value == _FALSE:
                        self.stats.conflicts += 1
                        return False
                    if head_value == _UNKNOWN:
                        self._assign(rule.head, _TRUE, assignment, trail)
                        self.stats.propagations += 1
                        changed = True
                elif n_unknown == 1 and last_unknown is not None:
                    must_falsify = rule.head is None or head_value == _FALSE
                    if must_falsify:
                        atom_id, positive = last_unknown
                        value = _FALSE if positive else _TRUE
                        self._assign(atom_id, value, assignment, trail)
                        self.stats.propagations += 1
                        changed = True
            # support-based propagation (externals need no support)
            for atom_id in self._derived_ids:
                value = assignment[atom_id]
                if value == _FALSE:
                    continue
                alive: List[_Rule] = []
                for rule_index in self._supports[atom_id]:
                    rule = self._rules[rule_index]
                    dead = False
                    for body_atom, positive in rule.body:
                        if self._literal_value(body_atom, positive, assignment) == _FALSE:
                            dead = True
                            break
                    if not dead:
                        alive.append(rule)
                if not alive:
                    if value == _TRUE:
                        self.stats.conflicts += 1
                        return False
                    self._assign(atom_id, _FALSE, assignment, trail)
                    self.stats.propagations += 1
                    changed = True
                elif value == _TRUE and len(alive) == 1:
                    # supportedness: the single alive rule's body must be true
                    for body_atom, positive in alive[0].body:
                        lit_value = self._literal_value(body_atom, positive, assignment)
                        if lit_value == _UNKNOWN:
                            self._assign(
                                body_atom,
                                _TRUE if positive else _FALSE,
                                assignment,
                                trail,
                            )
                            self.stats.propagations += 1
                            changed = True
        return True

    # -- verification ----------------------------------------------------------

    def uses_fast_path(self) -> bool:
        """Whether stability checks are skipped for this ground program.

        Decided once, lazily, from the ground-atom dependency graph:
        edges run from each rule head to its body atoms (constraints
        contribute none; choice-rule encodings introduce negative
        2-cycles through their auxiliary atoms and therefore disable the
        fast path automatically).  True iff the program is stratified
        and tight and ``use_fast_path`` was not turned off.
        """
        if self._fast_path is None:
            if not self._use_fast_path:
                self._fast_path = False
            else:
                # Local import: repro.analysis imports repro.asp, so a
                # module-level import here would cycle during package init.
                from repro.analysis.graphs import check_stratification

                positive: List[Tuple[int, int]] = []
                negative: List[Tuple[int, int]] = []
                for rule in self._rules:
                    if rule.head is None:
                        continue
                    for atom_id, is_positive in rule.body:
                        edge = (rule.head, atom_id)
                        (positive if is_positive else negative).append(edge)
                verdict = check_stratification(
                    range(len(self._atoms)), positive, negative
                )
                self._fast_path = verdict.stratified and verdict.tight
        return self._fast_path

    def _verify(self, assignment: List[int]) -> bool:
        """Check a complete assignment: rules, choice bounds, stability."""
        for rule in self._rules:
            body_true = all(
                self._literal_value(a, p, assignment) == _TRUE for a, p in rule.body
            )
            if body_true:
                if rule.head is None or assignment[rule.head] != _TRUE:
                    return False
        for body, elements, lower, upper in self._bounds:
            body_true = all(
                self._literal_value(a, p, assignment) == _TRUE for a, p in body
            )
            if not body_true:
                continue
            count = sum(1 for e in elements if assignment[e] == _TRUE)
            if lower is not None and count < lower:
                return False
            if upper is not None and count > upper:
                return False
        if self.uses_fast_path():
            self.stats.stability_skips += 1
            return True
        return self._stable(assignment)

    def _stable(self, assignment: List[int]) -> bool:
        """Gelfond–Lifschitz check: least model of the reduct == candidate."""
        self.stats.stability_checks += 1
        candidate = {i for i, v in enumerate(assignment) if v == _TRUE}
        # Build the reduct: keep rules whose negative body is satisfied.
        reduct: List[Tuple[Optional[int], Tuple[int, ...]]] = []
        for rule in self._rules:
            keep = True
            positive: List[int] = []
            for atom_id, pos in rule.body:
                if pos:
                    positive.append(atom_id)
                elif atom_id in candidate:
                    keep = False
                    break
            if keep and rule.head is not None:
                reduct.append((rule.head, tuple(positive)))
        # Least model by forward chaining; true externals are its facts.
        least: Set[int] = {i for i in self._externals.values() if assignment[i] == _TRUE}
        changed = True
        while changed:
            changed = False
            for head, body in reduct:
                if head not in least and all(b in least for b in body):
                    least.add(head)
                    changed = True
        return least == candidate

    def _extract(self, assignment: List[int]) -> AnswerSet:
        return frozenset(
            self._atoms[i]
            for i, value in enumerate(assignment)
            if value == _TRUE and self._visible[i]
        )


def solve(
    program: Program,
    max_models: Optional[int] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: Optional[Budget] = None,
    use_fast_path: bool = True,
) -> SolveResult:
    """Ground and solve ``program``; return its answer sets.

    ``budget`` (explicit or ambient) governs both phases: grounding and
    solving tick the same budget.  The returned :class:`SolveResult`
    behaves as a plain list of answer sets and additionally carries the
    run's :class:`SolveStats`.  ``use_fast_path=False`` forces a
    Gelfond–Lifschitz check on every candidate even when static analysis
    proves it redundant (useful for differential testing).
    """
    ground = ground_program(program, budget=budget)
    return AnswerSetSolver(
        ground, max_steps=max_steps, budget=budget, use_fast_path=use_fast_path
    ).solve(max_models=max_models)


def solve_text(
    text: str,
    max_models: Optional[int] = None,
    budget: Optional[Budget] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    use_fast_path: bool = True,
) -> SolveResult:
    """Parse, ground, and solve ASP source text::

        >>> models = solve_text("a :- not b. b :- not a.")
        >>> sorted(sorted(str(x) for x in m) for m in models)
        [['a'], ['b']]
    """
    return solve(
        parse_program(text),
        max_models=max_models,
        budget=budget,
        max_steps=max_steps,
        use_fast_path=use_fast_path,
    )


def is_satisfiable_text(
    text: str,
    budget: Optional[Budget] = None,
    use_fast_path: bool = True,
) -> bool:
    """True iff the program given as source text has at least one answer set."""
    return bool(
        solve_text(text, max_models=1, budget=budget, use_fast_path=use_fast_path)
    )


CostVector = Tuple[Tuple[int, int], ...]
"""((priority, total weight), ...) sorted by descending priority."""


def cost_of(ground: GroundProgram, model: AnswerSet) -> CostVector:
    """The weak-constraint cost of an answer set (clingo semantics).

    Each ground weak constraint whose body holds in ``model``
    contributes its weight at its priority level; vectors compare
    lexicographically by descending priority.
    """
    priorities = sorted(
        {w.priority for w in ground.weak_constraints}, reverse=True
    )
    totals = {priority: 0 for priority in priorities}
    atoms = set(model)
    for weak in ground.weak_constraints:
        holds = True
        for literal in weak.body:
            if isinstance(literal, Literal):
                if (literal.atom in atoms) != literal.positive:
                    holds = False
                    break
        if holds:
            totals[weak.priority] += getattr(weak.weight, "value", 0)
    return tuple((priority, totals[priority]) for priority in priorities)


def solve_optimal(
    program: Program,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_candidates: int = 100_000,
    budget: Optional[Budget] = None,
) -> Tuple[List[AnswerSet], CostVector]:
    """All cost-optimal answer sets of a program with weak constraints.

    Enumerates answer sets (up to ``max_candidates``), scores each with
    :func:`cost_of`, and returns the minimum-cost ones together with
    the optimal cost vector.  Without weak constraints every answer set
    is optimal at the empty cost.
    """
    ground = ground_program(program, budget=budget)
    solver = AnswerSetSolver(ground, max_steps=max_steps, budget=budget)
    models = solver.solve(max_models=max_candidates)
    if not models:
        return SolveResult([], solver.stats), ()
    scored = [(cost_of(ground, model), model) for model in models]
    best = min(cost for cost, __ in scored)
    optimal = [model for cost, model in scored if cost == best]
    return SolveResult(optimal, solver.stats), best
