"""Unit tests for Earley recognition and parse-tree extraction."""

import pytest

from repro.errors import AmbiguityLimitError
from repro.grammar import parse_cfg, parse_trees, recognize

POLICY = parse_cfg(
    """
policy  -> "allow" subject action | "deny" subject action
subject -> "alice" | "bob"
action  -> "read" | "write"
"""
)

AMBIG = parse_cfg('e -> e "+" e | "x"')

NESTED = parse_cfg(
    """
s -> "(" s ")" | eps
"""
)


class TestRecognition:
    @pytest.mark.parametrize(
        "text", ["allow alice read", "deny bob write", "allow bob read"]
    )
    def test_valid_strings(self, text):
        assert recognize(POLICY, tuple(text.split()))

    @pytest.mark.parametrize(
        "text", ["allow alice", "alice read", "allow alice read write", ""]
    )
    def test_invalid_strings(self, text):
        assert not recognize(POLICY, tuple(text.split()))

    def test_unknown_token_rejected(self):
        assert not recognize(POLICY, ("allow", "eve", "read"))

    def test_epsilon_language(self):
        assert recognize(NESTED, ())
        assert recognize(NESTED, ("(", ")"))
        assert recognize(NESTED, ("(", "(", ")", ")"))
        assert not recognize(NESTED, ("(",))
        assert not recognize(NESTED, (")", "("))

    def test_left_recursion(self):
        grammar = parse_cfg('l -> l "a" | "a"')
        assert recognize(grammar, ("a",) * 5)
        assert not recognize(grammar, ())

    def test_right_recursion(self):
        grammar = parse_cfg('r -> "a" r | "a"')
        assert recognize(grammar, ("a",) * 5)


class TestTreeExtraction:
    def test_single_tree_for_unambiguous(self):
        trees = parse_trees(POLICY, ("allow", "alice", "read"))
        assert len(trees) == 1

    def test_tree_yield_matches_input(self):
        tokens = ("deny", "bob", "write")
        (tree,) = parse_trees(POLICY, tokens)
        assert tree.yield_string() == tokens

    def test_ambiguous_string_has_multiple_trees(self):
        trees = parse_trees(AMBIG, ("x", "+", "x", "+", "x"))
        assert len(trees) == 2

    def test_catalan_ambiguity_counts(self):
        # x+x+x+x has Catalan(3) = 5 binary association trees
        trees = parse_trees(AMBIG, ("x", "+") * 3 + ("x",))
        assert len(trees) == 5

    def test_no_trees_outside_language(self):
        assert parse_trees(POLICY, ("allow", "alice")) == []

    def test_strict_ambiguity_limit(self):
        tokens = ("x", "+") * 5 + ("x",)
        with pytest.raises(AmbiguityLimitError):
            parse_trees(AMBIG, tokens, max_trees=3, strict=True)

    def test_strict_limit_admits_a_forest_of_exactly_max_trees(self):
        tokens = ("x", "+") * 3 + ("x",)  # Catalan(3) = 5 trees
        assert len(parse_trees(AMBIG, tokens, max_trees=5, strict=True)) == 5
        with pytest.raises(AmbiguityLimitError):
            parse_trees(AMBIG, tokens, max_trees=4, strict=True)

    def test_nonstrict_truncation(self):
        tokens = ("x", "+") * 5 + ("x",)
        trees = parse_trees(AMBIG, tokens, max_trees=3)
        assert len(trees) == 3

    def test_cyclic_grammar_terminates(self):
        grammar = parse_cfg('a -> a | "x"')
        trees = parse_trees(grammar, ("x",))
        assert trees  # at least the acyclic derivation

    def test_traces_are_one_indexed(self):
        (tree,) = parse_trees(POLICY, ("allow", "alice", "read"))
        traces = [trace for __, trace in tree.nodes_with_traces()]
        assert () in traces
        assert (1,) in traces and (2, 1) in traces
        assert (0,) not in traces


class TestAgreementWithEnumeration:
    def test_every_generated_string_is_recognized(self):
        from repro.grammar import generate_strings

        for grammar in (POLICY, NESTED):
            for string in generate_strings(grammar, max_length=6, max_strings=50):
                assert recognize(grammar, string)
                assert parse_trees(grammar, string)
