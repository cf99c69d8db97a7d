"""The three AGENP repositories (Figure 2).

* :class:`PolicyRepository` — the generated policies the PDP consults.
* :class:`RepresentationsRepository` — versioned learned GPMs, "so that
  the PAdaP can access the latest representation of the ASG-based
  generative policy model".
* :class:`ContextRepository` — named contexts, with a *current* one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.contexts import Context
from repro.core.gpm import GenerativePolicyModel
from repro.errors import AgenpError
from repro.grammar.cfg import SymbolString

__all__ = ["StoredPolicy", "PolicyRepository", "RepresentationsRepository", "ContextRepository"]


class StoredPolicy:
    """A generated policy string plus provenance metadata."""

    __slots__ = ("tokens", "context_name", "model_version", "source")

    def __init__(
        self,
        tokens: SymbolString,
        context_name: str = "",
        model_version: int = 0,
        source: str = "local",
    ):
        self.tokens = tuple(tokens)
        self.context_name = context_name
        self.model_version = model_version
        self.source = source

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __repr__(self) -> str:
        return f"StoredPolicy({self.text!r}, ctx={self.context_name!r}, v{self.model_version})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StoredPolicy) and (
            self.tokens,
            self.context_name,
            self.source,
        ) == (other.tokens, other.context_name, other.source)

    def __hash__(self) -> int:
        return hash((self.tokens, self.context_name, self.source))


class PolicyRepository:
    """The active policy set, replaceable wholesale on regeneration.

    Every mutation bumps ``generation``, a monotonic counter the PDP and
    the serving engine (:mod:`repro.engine`) use for O(1) staleness
    checks: a PAdaP policy update lands here via
    ``replace``/``add``/``remove``, so the PDP recompiles and the
    engine's decision cache is cleared without content comparison.
    """

    def __init__(self) -> None:
        self._policies: List[StoredPolicy] = []
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped by every write)."""
        return self._generation

    def replace(self, policies: Iterable[StoredPolicy]) -> None:
        """Install a freshly generated policy set (dropping the old one)."""
        self._policies = list(policies)
        self._generation += 1

    def add(self, policy: StoredPolicy) -> None:
        if policy not in self._policies:
            self._policies.append(policy)
            self._generation += 1

    def remove(self, policy: StoredPolicy) -> None:
        before = len(self._policies)
        self._policies = [p for p in self._policies if p != policy]
        if len(self._policies) != before:
            self._generation += 1

    def all(self) -> List[StoredPolicy]:
        return list(self._policies)

    def by_source(self, source: str) -> List[StoredPolicy]:
        return [p for p in self._policies if p.source == source]

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self):
        return iter(self._policies)


class RepresentationsRepository:
    """Versioned storage of learned GPMs."""

    def __init__(self) -> None:
        self._versions: List[GenerativePolicyModel] = []

    def store(self, model: GenerativePolicyModel) -> None:
        self._versions.append(model)

    def latest(self) -> GenerativePolicyModel:
        if not self._versions:
            raise AgenpError("representations repository is empty")
        return self._versions[-1]

    def version(self, index: int) -> GenerativePolicyModel:
        return self._versions[index]

    def history(self) -> List[GenerativePolicyModel]:
        return list(self._versions)

    def __len__(self) -> int:
        return len(self._versions)


class ContextRepository:
    """Named contexts plus the AMS's current operating context.

    A context change alters which policies are valid only through the
    policy set it regenerates, so the policy repository's ``generation``
    is the one counter the PDP and the serving engine watch.
    """

    def __init__(self) -> None:
        self._contexts: Dict[str, Context] = {}
        self._current: Optional[str] = None

    def store(self, context: Context) -> None:
        if not context.name:
            raise AgenpError("contexts stored in the repository must be named")
        self._contexts[context.name] = context

    def get(self, name: str) -> Context:
        try:
            return self._contexts[name]
        except KeyError:
            raise AgenpError(f"no context named {name!r}") from None

    def set_current(self, name: str) -> None:
        if name not in self._contexts:
            raise AgenpError(f"no context named {name!r}")
        self._current = name

    def current(self) -> Context:
        if self._current is None:
            return Context.empty("default")
        return self._contexts[self._current]

    def names(self) -> List[str]:
        return sorted(self._contexts)

    def __len__(self) -> int:
        return len(self._contexts)
