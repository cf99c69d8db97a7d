"""Core policy-domain vocabulary: decisions, effects, attribute domains.

The paper distinguishes constraint, goal-based, and utility-based
policies (Section I).  This layer implements the constraint family in an
XACML-like attribute model — the family every experiment in the paper
exercises — while keeping the vocabulary (effects, decisions, requests)
generic enough for the other AGENP components.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import PolicyValidationError

__all__ = [
    "Effect",
    "Decision",
    "AttributeValue",
    "Request",
    "AttributeDomain",
    "CategoricalDomain",
    "IntegerDomain",
    "DomainSchema",
]

AttributeValue = Union[str, int]

CATEGORIES = ("subject", "resource", "action", "environment")


class Effect(enum.Enum):
    """The effect a rule prescribes when it applies."""

    PERMIT = "permit"
    DENY = "deny"

    def __repr__(self) -> str:
        return self.value


class Decision(enum.Enum):
    """The outcome of evaluating a request against a policy."""

    PERMIT = "permit"
    DENY = "deny"
    NOT_APPLICABLE = "not_applicable"
    INDETERMINATE = "indeterminate"

    @classmethod
    def from_effect(cls, effect: Effect) -> "Decision":
        return cls.PERMIT if effect is Effect.PERMIT else cls.DENY

    def __repr__(self) -> str:
        return self.value


class Request:
    """An access request: attribute bags per category.

    ``Request({"subject": {"role": "dba"}, "action": {"id": "read"}})``
    """

    __slots__ = ("attributes",)

    def __init__(self, attributes: Mapping[str, Mapping[str, AttributeValue]]):
        self.attributes: Dict[str, Dict[str, AttributeValue]] = {}
        for category, bag in attributes.items():
            if category not in CATEGORIES:
                raise PolicyValidationError(f"unknown attribute category {category!r}")
            self.attributes[category] = dict(bag)

    def get(self, category: str, attribute: str) -> Optional[AttributeValue]:
        return self.attributes.get(category, {}).get(attribute)

    def with_value(self, category: str, attribute: str, value: AttributeValue) -> "Request":
        """A copy of this request with one attribute changed (used by the
        counterfactual explainer)."""
        attributes = {cat: dict(bag) for cat, bag in self.attributes.items()}
        attributes.setdefault(category, {})[attribute] = value
        return Request(attributes)

    def items(self) -> Iterable[Tuple[str, str, AttributeValue]]:
        for category, bag in self.attributes.items():
            for attribute, value in bag.items():
                yield category, attribute, value

    def key(self) -> tuple:
        return tuple(sorted(self.items()))

    def __repr__(self) -> str:
        parts = [f"{c}.{a}={v!r}" for c, a, v in sorted(self.items())]
        return f"Request({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Request) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class AttributeDomain:
    """Abstract domain of values an attribute may take."""

    def values(self) -> Sequence[AttributeValue]:
        raise NotImplementedError

    def contains(self, value: AttributeValue) -> bool:
        raise NotImplementedError


class CategoricalDomain(AttributeDomain):
    """A finite set of symbolic values."""

    def __init__(self, values: Iterable[str]):
        self._values: Tuple[str, ...] = tuple(dict.fromkeys(values))
        if not self._values:
            raise PolicyValidationError("categorical domain must be non-empty")

    def values(self) -> Sequence[AttributeValue]:
        return self._values

    def contains(self, value: AttributeValue) -> bool:
        return value in self._values

    def __repr__(self) -> str:
        return f"{{{', '.join(self._values)}}}"


class IntegerDomain(AttributeDomain):
    """An inclusive integer range."""

    def __init__(self, low: int, high: int):
        if low > high:
            raise PolicyValidationError(f"empty integer domain [{low}, {high}]")
        self.low = low
        self.high = high

    def values(self) -> Sequence[AttributeValue]:
        return range(self.low, self.high + 1)

    def contains(self, value: AttributeValue) -> bool:
        return isinstance(value, int) and self.low <= value <= self.high

    def __repr__(self) -> str:
        return f"[{self.low}..{self.high}]"


class DomainSchema:
    """Declared domains for every (category, attribute) pair.

    Quality analysis (consistency/completeness, paper Section V.A) needs
    to reason about *all possible* requests; the schema makes that space
    explicit and finite.
    """

    def __init__(self, domains: Mapping[Tuple[str, str], AttributeDomain]):
        self.domains: Dict[Tuple[str, str], AttributeDomain] = dict(domains)
        for (category, __), domain in self.domains.items():
            if category not in CATEGORIES:
                raise PolicyValidationError(f"unknown category {category!r}")

    def domain(self, category: str, attribute: str) -> Optional[AttributeDomain]:
        return self.domains.get((category, attribute))

    def attributes(self) -> Sequence[Tuple[str, str]]:
        return sorted(self.domains.keys())

    def all_requests(self, max_requests: int = 1_000_000) -> Iterable[Request]:
        """Enumerate every request over the schema (cartesian product)."""
        import itertools

        keys = self.attributes()
        pools = [list(self.domains[key].values()) for key in keys]
        count = 1
        for pool in pools:
            count *= len(pool)
        if count > max_requests:
            raise PolicyValidationError(
                f"request space has {count} elements (> {max_requests})"
            )
        for combo in itertools.product(*pools):
            attributes: Dict[str, Dict[str, AttributeValue]] = {}
            for (category, attribute), value in zip(keys, combo):
                attributes.setdefault(category, {})[attribute] = value
            yield Request(attributes)
