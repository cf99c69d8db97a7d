"""Unit tests for Context."""

from repro.core import Context


class TestConstruction:
    def test_from_attributes(self):
        ctx = Context.from_attributes({"weather": "rain", "hour": 14})
        facts = {repr(a) for a in ctx.facts()}
        assert facts == {"weather(rain)", "hour(14)"}

    def test_boolean_true_becomes_nullary_fact(self):
        ctx = Context.from_attributes({"emergency": True})
        assert {repr(a) for a in ctx.facts()} == {"emergency"}

    def test_boolean_false_omitted(self):
        ctx = Context.from_attributes({"emergency": False})
        assert ctx.facts() == ()

    def test_from_text(self):
        ctx = Context.from_text("a. b(1).", name="test")
        assert len(ctx) == 2
        assert ctx.name == "test"

    def test_empty(self):
        assert len(Context.empty()) == 0


class TestMerging:
    def test_merge_combines_facts(self):
        a = Context.from_attributes({"x": 1}, name="local")
        b = Context.from_attributes({"y": 2})
        merged = a.merged(b)
        assert len(merged) == 2
        assert merged.name == "local"

    def test_merge_keeps_other_name_when_unnamed(self):
        a = Context.empty()
        b = Context.from_attributes({"y": 2}, name="ext")
        assert a.merged(b).name == "ext"


class TestEquality:
    def test_equal_by_fact_set(self):
        a = Context.from_text("a. b.")
        b = Context.from_text("b. a. b.")  # order and repeats do not count
        assert a == b
        assert hash(a) == hash(b)

    def test_different_facts_unequal(self):
        assert Context.from_text("a.") != Context.from_text("b.")
