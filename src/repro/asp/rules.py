"""Rules and programs for the ASP subsystem.

The supported language is the fragment the paper uses (Section II.A):
normal rules and constraints, plus choice rules (used internally for
policy *generation*, and by the learner's hypothesis spaces):

* normal rule      ``h :- b1, ..., bn, not c1, ..., not cm.``
* fact             ``h.``
* constraint       ``:- b1, ..., not cm.``
* choice rule      ``l { a1 ; ... ; ak } u :- body.``

Bodies may also contain builtin comparisons (``X < Y``, ``X != a``) and
arithmetic (``Y = X + 1`` via comparison with ``=``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.asp.atoms import Atom, Comparison, Literal
from repro.asp.terms import Substitution, Variable
from repro.errors import Span

__all__ = ["BodyElement", "NormalRule", "ChoiceRule", "Rule", "Program", "fact"]

BodyElement = Union[Literal, Comparison]


class NormalRule:
    """A normal rule or (with ``head=None``) an integrity constraint.

    ``span`` locates the rule in its source text when it came from the
    parser; it is preserved through substitution and ignored by
    equality/hashing.
    """

    __slots__ = ("head", "body", "span")

    def __init__(
        self,
        head: Optional[Atom],
        body: Sequence[BodyElement] = (),
        span: Optional[Span] = None,
    ):
        self.head = head
        self.body: Tuple[BodyElement, ...] = tuple(body)
        self.span = span

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    @property
    def is_fact(self) -> bool:
        return self.head is not None and not self.body

    def variables(self) -> Set[Variable]:
        out: Set[Variable] = set()
        if self.head is not None:
            out.update(self.head.variables())
        for elem in self.body:
            out.update(elem.variables())
        return out

    def positive_body(self) -> Iterator[Atom]:
        for elem in self.body:
            if isinstance(elem, Literal) and elem.positive:
                yield elem.atom

    def negative_body(self) -> Iterator[Atom]:
        for elem in self.body:
            if isinstance(elem, Literal) and not elem.positive:
                yield elem.atom

    def comparisons(self) -> Iterator[Comparison]:
        for elem in self.body:
            if isinstance(elem, Comparison):
                yield elem

    def substitute(self, theta: Substitution) -> "NormalRule":
        head = self.head.substitute(theta) if self.head is not None else None
        return NormalRule(head, [e.substitute(theta) for e in self.body], self.span)

    def is_ground(self) -> bool:
        if self.head is not None and not self.head.is_ground():
            return False
        return all(e.is_ground() for e in self.body)

    def __repr__(self) -> str:
        body = ", ".join(repr(e) for e in self.body)
        if self.head is None:
            return f":- {body}."
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- {body}."

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NormalRule)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash((self.head, self.body))


class ChoiceRule:
    """A choice rule ``l { a1 ; ... ; ak } u :- body.``

    ``lower``/``upper`` of ``None`` mean unbounded.  Elements are plain
    atoms (conditional elements are not supported in this fragment).
    """

    __slots__ = ("elements", "lower", "upper", "body", "span")

    def __init__(
        self,
        elements: Sequence[Atom],
        body: Sequence[BodyElement] = (),
        lower: Optional[int] = None,
        upper: Optional[int] = None,
        span: Optional[Span] = None,
    ):
        self.elements: Tuple[Atom, ...] = tuple(elements)
        self.body: Tuple[BodyElement, ...] = tuple(body)
        self.lower = lower
        self.upper = upper
        self.span = span

    def variables(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for atom in self.elements:
            out.update(atom.variables())
        for elem in self.body:
            out.update(elem.variables())
        return out

    def positive_body(self) -> Iterator[Atom]:
        for elem in self.body:
            if isinstance(elem, Literal) and elem.positive:
                yield elem.atom

    def substitute(self, theta: Substitution) -> "ChoiceRule":
        return ChoiceRule(
            [a.substitute(theta) for a in self.elements],
            [e.substitute(theta) for e in self.body],
            self.lower,
            self.upper,
            self.span,
        )

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.elements) and all(
            e.is_ground() for e in self.body
        )

    def __repr__(self) -> str:
        inner = "; ".join(repr(a) for a in self.elements)
        lo = f"{self.lower} " if self.lower is not None else ""
        hi = f" {self.upper}" if self.upper is not None else ""
        head = f"{lo}{{ {inner} }}{hi}"
        if not self.body:
            return f"{head}."
        body = ", ".join(repr(e) for e in self.body)
        return f"{head} :- {body}."

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChoiceRule)
            and self.elements == other.elements
            and self.body == other.body
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.body, self.lower, self.upper))


class WeakConstraint:
    """A weak constraint ``:~ body. [weight@priority]``.

    Unlike a hard constraint, a violated weak constraint does not kill
    the answer set — it adds ``weight`` to the model's cost at its
    ``priority`` level.  Optimal answer sets minimize cost vectors
    lexicographically by descending priority (clingo semantics).  Weak
    constraints are the substrate for the paper's *utility-based
    policies* ("direct the managed parties to produce the best
    consequence according to some value function", Section I).
    """

    __slots__ = ("body", "weight", "priority", "span")

    def __init__(
        self,
        body: Sequence[BodyElement],
        weight,
        priority: int = 0,
        span: Optional[Span] = None,
    ):
        self.body: Tuple[BodyElement, ...] = tuple(body)
        self.weight = weight  # a Term (Integer once ground)
        self.priority = priority
        self.span = span

    @property
    def head(self) -> None:  # uniform rule interface
        return None

    def variables(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for elem in self.body:
            out.update(elem.variables())
        out.update(self.weight.variables())
        return out

    def positive_body(self) -> Iterator[Atom]:
        for elem in self.body:
            if isinstance(elem, Literal) and elem.positive:
                yield elem.atom

    def substitute(self, theta: Substitution) -> "WeakConstraint":
        return WeakConstraint(
            [e.substitute(theta) for e in self.body],
            self.weight.substitute(theta),
            self.priority,
            self.span,
        )

    def is_ground(self) -> bool:
        return all(e.is_ground() for e in self.body) and self.weight.is_ground()

    def __repr__(self) -> str:
        body = ", ".join(repr(e) for e in self.body)
        suffix = f"[{self.weight!r}@{self.priority}]" if self.priority else f"[{self.weight!r}]"
        return f":~ {body}. {suffix}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeakConstraint)
            and self.body == other.body
            and self.weight == other.weight
            and self.priority == other.priority
        )

    def __hash__(self) -> int:
        return hash((self.body, self.weight, self.priority))


Rule = Union[NormalRule, ChoiceRule, WeakConstraint]


def fact(atom: Atom) -> NormalRule:
    """Build the fact ``atom.``"""
    return NormalRule(atom, ())


class Program:
    """An ordered collection of rules.

    Programs are cheap value objects; combination (``+``) concatenates
    rule lists.  The grounder and solver operate on programs.
    """

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()):
        self.rules: List[Rule] = list(rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __add__(self, other: "Program") -> "Program":
        return Program(itertools.chain(self.rules, other.rules))

    def add(self, rule: Rule) -> None:
        self.rules.append(rule)

    def extend(self, rules: Iterable[Rule]) -> None:
        self.rules.extend(rules)

    def facts(self) -> Iterator[Atom]:
        for rule in self.rules:
            if isinstance(rule, NormalRule) and rule.is_fact and rule.head.is_ground():
                yield rule.head

    def predicates(self) -> Set[Tuple[str, int]]:
        """All predicate signatures occurring anywhere in the program."""
        sigs: Set[Tuple[str, int]] = set()
        for rule in self.rules:
            if isinstance(rule, NormalRule):
                if rule.head is not None:
                    sigs.add(rule.head.signature)
            else:
                for atom in rule.elements:
                    sigs.add(atom.signature)
            for elem in rule.body:
                if isinstance(elem, Literal):
                    sigs.add(elem.atom.signature)
        return sigs

    def __repr__(self) -> str:
        return "\n".join(repr(r) for r in self.rules)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.rules == other.rules
