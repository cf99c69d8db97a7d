"""Earley recognition and parse-tree extraction.

Two cooperating pieces:

* :func:`recognize` — a standard Earley recognizer (with the Aycock &
  Horspool nullable fix) deciding membership in the CFG's language in
  O(n³).
* :func:`parse_trees` — extraction of *all* parse trees for a string, by
  memoized span enumeration.  Cyclic derivations (``A -> A``) would make
  the forest infinite; the extractor breaks cycles by refusing to re-enter
  an in-progress (symbol, span) pair, and callers can cap the number of
  trees with ``max_trees`` (exceeding the cap raises
  :class:`~repro.errors.AmbiguityLimitError` when ``strict`` is set).

The ASG semantics needs *every* parse tree of the underlying CFG
(a string is in the ASG language if *some* tree's induced program is
satisfiable), which is why full-forest extraction exists rather than a
single-parse algorithm.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import AmbiguityLimitError, GrammarError
from repro.grammar.cfg import CFG, Production, Symbol, SymbolString
from repro.grammar.parse_tree import ParseTree
from repro.runtime.budget import Budget, current_budget
from repro.telemetry import span as _tele_span

__all__ = ["recognize", "parse_trees"]


def recognize(
    grammar: CFG, tokens: SymbolString, budget: Optional[Budget] = None
) -> bool:
    """True iff ``tokens`` is in the language of ``grammar``'s CFG.

    ``budget`` (explicit or ambient) is ticked once per processed chart
    state, bounding the O(n³) worst case.  Under an ambient tracer an
    ``earley.recognize`` span records the chart size.
    """
    with _tele_span("earley.recognize", tokens=len(tokens)) as sp:
        accepted = _recognize(grammar, tokens, budget, sp)
        sp.set(accepted=accepted)
        return accepted


def _recognize(
    grammar: CFG,
    tokens: SymbolString,
    budget: Optional[Budget],
    sp,
) -> bool:
    if budget is None:
        budget = current_budget()
    for token in tokens:
        if token not in grammar.terminals:
            return False
    nullable = grammar.nullable_set()
    n = len(tokens)
    # State: (prod_id, dot, origin)
    chart: List[Set[Tuple[int, int, int]]] = [set() for _ in range(n + 1)]

    def add(index: int, state: Tuple[int, int, int], agenda: List) -> None:
        if state not in chart[index]:
            chart[index].add(state)
            agenda.append(state)

    agenda0: List[Tuple[int, int, int]] = []
    for prod in grammar.productions_for(grammar.start):
        add(0, (prod.prod_id, 0, 0), agenda0)

    for i in range(n + 1):
        agenda = agenda0 if i == 0 else list(chart[i])
        while agenda:
            if budget is not None:
                budget.tick()
            prod_id, dot, origin = agenda.pop()
            prod = grammar.production(prod_id)
            if dot < len(prod.rhs):
                symbol = prod.rhs[dot]
                if symbol in grammar.nonterminals:
                    # predict
                    for next_prod in grammar.productions_for(symbol):
                        add(i, (next_prod.prod_id, 0, i), agenda)
                    if symbol in nullable:
                        add(i, (prod_id, dot + 1, origin), agenda)
                elif i < n and tokens[i] == symbol:
                    # scan (goes to chart[i+1]; processed in next iteration)
                    chart[i + 1].add((prod_id, dot + 1, origin))
            else:
                # complete
                completed_lhs = prod.lhs
                for other in list(chart[origin]):
                    o_prod_id, o_dot, o_origin = other
                    o_prod = grammar.production(o_prod_id)
                    if o_dot < len(o_prod.rhs) and o_prod.rhs[o_dot] == completed_lhs:
                        add(i, (o_prod_id, o_dot + 1, o_origin), agenda)
    sp.incr("earley.chart_states", sum(len(states) for states in chart))
    for prod in grammar.productions_for(grammar.start):
        if (prod.prod_id, len(prod.rhs), 0) in chart[n]:
            return True
    return False


class _TreeExtractor:
    """Enumerate all parse trees of each (nonterminal, span) pair."""

    def __init__(
        self,
        grammar: CFG,
        tokens: SymbolString,
        max_trees: int,
        budget: Optional[Budget] = None,
    ):
        self.grammar = grammar
        self.tokens = tokens
        self.max_trees = max_trees
        self.budget = budget
        self._memo: Dict[Tuple[Symbol, int, int], List[ParseTree]] = {}
        self._active: Set[Tuple[Symbol, int, int]] = set()
        self.truncated = False

    def trees(self, symbol: Symbol, start: int, end: int) -> List[ParseTree]:
        if self.budget is not None:
            self.budget.tick()
        key = (symbol, start, end)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._active:
            # cyclic derivation (e.g. A -> A): contribute no *additional*
            # trees beyond the acyclic ones already being built.
            return []
        self._active.add(key)
        out: List[ParseTree] = []
        capped = False
        for prod in self.grammar.productions_for(symbol):
            for children in self._match_rhs(prod.rhs, 0, start, end):
                out.append(ParseTree(symbol, prod, children))
                # one tree past the cap tells a full forest from a cut one
                if len(out) > self.max_trees:
                    capped = True
                    break
            if capped:
                break
        self._active.discard(key)
        if capped:
            # the span's forest was cut short: later callers must not
            # trust the memo as exhaustive, but the capped list is a
            # valid sample of the forest
            self.truncated = True
            del out[self.max_trees :]
        self._memo[key] = out
        return out

    def _match_rhs(
        self, rhs: Tuple[Symbol, ...], index: int, start: int, end: int
    ) -> Iterator[List[ParseTree]]:
        """Yield child lists matching rhs[index:] against tokens[start:end]."""
        if index == len(rhs):
            if start == end:
                yield []
            return
        symbol = rhs[index]
        remaining = len(rhs) - index - 1
        if symbol in self.grammar.terminals:
            if start < end and self.tokens[start] == symbol:
                for rest in self._match_rhs(rhs, index + 1, start + 1, end):
                    yield [ParseTree(symbol)] + rest
            return
        # nonterminal: try every split point, leaving at least 0 tokens
        # for each remaining symbol.
        for split in range(start, end + 1):
            if end - split < 0:
                continue
            subtrees = self.trees(symbol, start, split)
            if not subtrees:
                continue
            for rest in self._match_rhs(rhs, index + 1, split, end):
                for subtree in subtrees:
                    yield [subtree] + rest


def parse_trees(
    grammar: CFG,
    tokens: SymbolString,
    max_trees: int = 256,
    strict: bool = False,
    budget: Optional[Budget] = None,
) -> List[ParseTree]:
    """All parse trees of ``tokens`` (up to ``max_trees``).

    Returns an empty list for strings outside the language.  With
    ``strict=True``, exceeding ``max_trees`` raises
    :class:`AmbiguityLimitError` instead of silently truncating.
    ``budget`` (explicit or ambient) bounds recognition and extraction.
    """
    if budget is None:
        budget = current_budget()
    with _tele_span("earley.parse_trees", tokens=len(tokens)) as sp:
        for token in tokens:
            if token not in grammar.terminals:
                return []
        if not recognize(grammar, tokens, budget=budget):
            return []
        extractor = _TreeExtractor(grammar, tokens, max_trees, budget=budget)
        trees = extractor.trees(grammar.start, 0, len(tokens))
        sp.incr("earley.spans_explored", len(extractor._memo))
        if extractor.truncated:
            sp.set(truncated=True)
            if strict:
                raise AmbiguityLimitError(
                    f"more than {max_trees} parse trees for {' '.join(tokens)!r}"
                )
            trees = trees[:max_trees]
        sp.incr("earley.trees", len(trees))
        sp.set(ambiguity=len(trees))
        return trees
