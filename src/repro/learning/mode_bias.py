"""Hypothesis-space generation from mode declarations.

ILASP-style learners do not search arbitrary programs: a *mode bias*
declares which atoms may appear in rule heads (``modeh``) and bodies
(``modeb``), plus constant pools per type; the hypothesis space ``S_M``
is the set of rules constructible within those declarations (paper
Section II.B: "a hypothesis space which represents the set of learnable
rules").

This module generates explicit, finite hypothesis spaces:

* schema atoms may contain :class:`Placeholder` arguments, expanded from
  per-type constant pools;
* bodies are combinations of instantiated ``modeb`` atoms, optionally
  negated, up to ``max_body`` literals;
* heads are instantiated ``modeh`` atoms, or absent (constraints);
* every candidate carries the production ids it may attach to (for ASG
  tasks) and a cost (its literal count), matching Definition 3's
  ``(rule, production id)`` hypothesis elements.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asp.atoms import Atom, Literal
from repro.asp.rules import NormalRule, Rule
from repro.asp.terms import Constant, Integer, Term, Variable
from repro.errors import LearningError

__all__ = [
    "Placeholder",
    "ModeAtom",
    "ModeBias",
    "CandidateRule",
    "constraint_space",
]


class Placeholder(Term):
    """A typed constant placeholder inside a schema atom.

    During space generation each placeholder is replaced by every
    constant in its type's pool.
    """

    __slots__ = ("type_name",)

    def __init__(self, type_name: str):
        self.type_name = type_name

    def is_ground(self) -> bool:  # placeholders are neither ground nor variables
        return False

    def variables(self):
        return iter(())

    def substitute(self, theta):
        return self

    def __repr__(self) -> str:
        return f"#{self.type_name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Placeholder) and self.type_name == other.type_name

    def __hash__(self) -> int:
        return hash(("ph", self.type_name))


class ModeAtom:
    """A schema atom for ``modeh``/``modeb`` declarations.

    ``annotations`` lists the child annotations (1-indexed rhs positions)
    the atom may carry in an ASG annotation rule; ``(None,)`` means
    unannotated.  For plain (non-grammar) learning leave the default.
    """

    def __init__(
        self,
        atom: Atom,
        annotations: Sequence[Optional[int]] = (None,),
    ):
        self.atom = atom
        self.annotations: Tuple[Optional[int], ...] = tuple(annotations)

    def instantiate(self, pools: Dict[str, Sequence[Term]]) -> List[Atom]:
        """Expand placeholders from constant pools and annotation options."""
        slots: List[List[Term]] = []
        for arg in self.atom.args:
            if isinstance(arg, Placeholder):
                pool = pools.get(arg.type_name)
                if not pool:
                    raise LearningError(
                        f"no constant pool for type {arg.type_name!r}"
                    )
                slots.append(list(pool))
            else:
                slots.append([arg])
        out: List[Atom] = []
        for combo in itertools.product(*slots) if slots else [()]:
            for annotation in self.annotations:
                trace = None if annotation is None else (annotation,)
                out.append(Atom(self.atom.predicate, combo, trace))
        return out

    def __repr__(self) -> str:
        return f"ModeAtom({self.atom!r}, annotations={self.annotations})"


class CandidateRule:
    """A hypothesis-space element: a rule, where it may attach, and its cost.

    Identity is the ``(rule, prod_id)`` pair, compared structurally; the
    hash is computed once, here, so hypotheses hash cheaply as frozensets
    of candidates.  ``cost`` is not part of the identity (callers may
    re-weight candidates after generation).
    """

    __slots__ = ("rule", "prod_id", "cost", "_hash")

    def __init__(self, rule: Rule, prod_id: Optional[int] = None, cost: Optional[int] = None):
        self.rule = rule
        self.prod_id = prod_id
        if cost is None:
            cost = len(rule.body) + (0 if getattr(rule, "head", None) is None else 1)
            cost = max(cost, 1)
        self.cost = cost
        self._hash = hash((rule, prod_id))

    def key(self) -> tuple:
        return (self.rule, self.prod_id)

    def __repr__(self) -> str:
        target = f" @prod{self.prod_id}" if self.prod_id is not None else ""
        return f"<{self.rule!r}{target} cost={self.cost}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CandidateRule)
            and self._hash == other._hash
            and self.prod_id == other.prod_id
            and self.rule == other.rule
        )

    def __hash__(self) -> int:
        return self._hash


class ModeBias:
    """A full mode bias: head/body schema atoms, pools, and size limits."""

    def __init__(
        self,
        head_modes: Sequence[ModeAtom] = (),
        body_modes: Sequence[ModeAtom] = (),
        pools: Optional[Dict[str, Sequence[Term]]] = None,
        max_body: int = 2,
        allow_constraints: bool = True,
        allow_negation: bool = True,
        allow_empty_body: bool = False,
        max_space: int = 200_000,
    ):
        self.head_modes = list(head_modes)
        self.body_modes = list(body_modes)
        self.pools = dict(pools or {})
        self.max_body = max_body
        self.allow_constraints = allow_constraints
        self.allow_negation = allow_negation
        self.allow_empty_body = allow_empty_body
        self.max_space = max_space

    def _body_literals(self) -> List[Literal]:
        literals: List[Literal] = []
        for mode in self.body_modes:
            for atom in mode.instantiate(self.pools):
                literals.append(Literal(atom, True))
                if self.allow_negation:
                    literals.append(Literal(atom, False))
        return literals

    def _heads(self) -> List[Optional[Atom]]:
        heads: List[Optional[Atom]] = []
        if self.allow_constraints:
            heads.append(None)
        for mode in self.head_modes:
            heads.extend(mode.instantiate(self.pools))
        return heads

    def generate(
        self, prod_ids: Sequence[Optional[int]] = (None,)
    ) -> List[CandidateRule]:
        """Enumerate the hypothesis space ``S_M``.

        ``prod_ids`` lists the productions each rule may attach to
        (ASG tasks); the default single ``None`` suits plain ASP tasks.
        """
        literals = self._body_literals()
        heads = self._heads()
        candidates: List[CandidateRule] = []
        min_body = 0 if self.allow_empty_body else 1
        for size in range(min_body, self.max_body + 1):
            for body in itertools.combinations(literals, size):
                atoms_in_body = {lit.atom for lit in body}
                if len(atoms_in_body) < len(body):
                    continue  # p and not p in one body
                for head in heads:
                    if head is None and size == 0:
                        continue  # the empty constraint kills everything
                    if head is not None and Literal(head, True) in body:
                        continue  # tautology h :- h
                    rule = NormalRule(head, list(body))
                    if not _is_safe(rule):
                        continue
                    for prod_id in prod_ids:
                        candidates.append(CandidateRule(rule, prod_id))
                        if len(candidates) > self.max_space:
                            raise LearningError(
                                f"hypothesis space exceeds {self.max_space} rules; "
                                "tighten the mode bias"
                            )
        return candidates


def _is_safe(rule: NormalRule) -> bool:
    positive_vars = set()
    for lit in rule.body:
        if lit.positive:
            positive_vars.update(v.name for v in lit.variables())
    needed = set()
    if rule.head is not None:
        needed.update(v.name for v in rule.head.variables())
    for lit in rule.body:
        if not lit.positive:
            needed.update(v.name for v in lit.variables())
    return needed <= positive_vars


def constraint_space(
    literal_pool: Iterable[Literal],
    prod_ids: Sequence[Optional[int]] = (None,),
    max_body: int = 2,
    max_space: int = 200_000,
) -> List[CandidateRule]:
    """Shortcut: the space of constraints ``:- l1, ..., lk`` over a pool.

    This is the most common ASG hypothesis space in the paper's setting:
    semantic conditions that *forbid* syntactically valid policies in
    certain contexts are exactly integrity constraints.
    """
    pool = list(literal_pool)
    candidates: List[CandidateRule] = []
    for size in range(1, max_body + 1):
        for body in itertools.combinations(pool, size):
            atoms = {lit.atom for lit in body}
            if len(atoms) < len(body):
                continue
            rule = NormalRule(None, list(body))
            if not _is_safe(rule):
                continue
            for prod_id in prod_ids:
                candidates.append(CandidateRule(rule, prod_id))
                if len(candidates) > max_space:
                    raise LearningError(
                        f"hypothesis space exceeds {max_space} rules"
                    )
    return candidates
