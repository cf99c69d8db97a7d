"""Context representation.

A *context* in the paper is an ASP program of facts describing the
current situation (environmental conditions, resources, external
information).  This module gives contexts a friendly constructor from
attribute dictionaries and conversion to/from ASP programs, plus
composition (local context + PIP-acquired external context).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.asp.atoms import Atom
from repro.asp.parser import parse_program
from repro.asp.rules import Program, fact
from repro.asp.terms import Constant, Integer

__all__ = ["Context"]

Value = Union[str, int, bool]


def _term(value: Value):
    if isinstance(value, bool):
        return Constant("true" if value else "false")
    if isinstance(value, int):
        return Integer(value)
    return Constant(str(value))


class Context:
    """A named set of context facts.

    Construct from attribute pairs::

        Context.from_attributes({"weather": "rain", "hour": 14, "emergency": True})

    becomes the facts ``weather(rain). hour(14). emergency.`` —
    boolean ``True`` yields a 0-ary fact, ``False`` yields nothing.
    """

    __slots__ = ("name", "program")

    def __init__(self, program: Optional[Program] = None, name: str = ""):
        self.program = program if program is not None else Program()
        self.name = name

    @classmethod
    def from_attributes(cls, attributes: Mapping[str, Value], name: str = "") -> "Context":
        program = Program()
        for key, value in sorted(attributes.items()):
            if isinstance(value, bool):
                if value:
                    program.add(fact(Atom(key)))
            else:
                program.add(fact(Atom(key, [_term(value)])))
        return cls(program, name)

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "Context":
        return cls(parse_program(text), name)

    @classmethod
    def empty(cls, name: str = "") -> "Context":
        return cls(Program(), name)

    def merged(self, other: "Context") -> "Context":
        """This context extended with another's facts (e.g. PIP input)."""
        merged_name = self.name or other.name
        return Context(self.program + other.program, merged_name)

    def facts(self) -> Tuple[Atom, ...]:
        return tuple(self.program.facts())

    def __len__(self) -> int:
        return len(self.program)

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        inner = " ".join(f"{a!r}." for a in self.facts())
        return f"Context({label}{inner})"

    def _rules(self) -> FrozenSet[str]:
        # rule order and repeated facts do not change a context
        return frozenset(map(repr, self.program))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and self._rules() == other._rules()

    def __hash__(self) -> int:
        return hash(self._rules())
