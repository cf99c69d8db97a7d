"""External atoms: declared by the grounder, fixed per call by the solver."""

import pytest

from repro.asp.atoms import Atom
from repro.asp.grounder import ground_program
from repro.asp.parser import parse_program
from repro.asp.solver import AnswerSetSolver
from repro.runtime.budget import Budget, budget_scope
from repro.errors import BudgetExceededError, GroundingError

E = Atom("e")
F = Atom("f")


def compiled(text, externals=(E, F), **kwargs):
    ground = ground_program(parse_program(text), externals=externals)
    return AnswerSetSolver(ground, **kwargs)


def models(solver, assumptions=()):
    return sorted(sorted(map(repr, m)) for m in solver.solve(assumptions=assumptions))


class TestGrounder:
    def test_externals_are_possible_but_get_no_rules(self):
        ground = ground_program(parse_program("a :- e. b :- not f."), externals=[E, F])
        assert {E, F} <= ground.atoms
        assert ground.externals == frozenset({E, F})
        heads = {rule.head for rule in ground.normal_rules}
        assert heads == {Atom("a"), Atom("b")}
        # `not f` is kept: f is possible, so the solver decides it
        (b_rule,) = [r for r in ground.normal_rules if r.head == Atom("b")]
        assert len(b_rule.body) == 1

    @pytest.mark.parametrize("text", ["e :- a. a.", "{ a; f }.", "e.", "e :- not a."])
    def test_a_derived_external_is_refused(self, text):
        # the solver would fix e (or f) false whatever the rule says
        with pytest.raises(GroundingError, match="external atom"):
            ground_program(parse_program(text), externals=[E, F])

    def test_an_external_under_a_rule_that_cannot_fire_is_accepted(self):
        ground = ground_program(parse_program("e :- z. a :- e."), externals=[E])
        assert [repr(r) for r in ground.normal_rules] == ["a :- e."]

    def test_without_externals_the_body_is_pruned(self):
        ground = ground_program(parse_program("a :- e. b :- not f."))
        assert [repr(r) for r in ground.normal_rules] == ["b."]


class TestSolver:
    def test_assumed_external_acts_as_a_fact(self):
        solver = compiled("a :- e. b :- not f.")
        assert models(solver) == [["b"]]
        assert models(solver, [E]) == [["a", "b"]]
        assert models(solver, [E, F]) == [["a"]]
        # the same solver answers again, unaffected by earlier calls
        assert models(solver) == [["b"]]

    def test_external_supports_a_positive_loop(self):
        # p and q are only stable when e holds: the reduct's least model
        # must count the assumed external as a fact, and without it the
        # loop must not support itself
        solver = compiled("p :- q. q :- p. p :- e.")
        assert not solver.uses_fast_path()  # not tight
        assert models(solver) == [[]]
        assert models(solver, [E]) == [["p", "q"]]

    def test_guarded_constraint_and_choice(self):
        solver = compiled("{ a ; b } 1 :- e. :- a, f.")
        assert models(solver) == [[]]
        assert models(solver, [E]) == [[], ["a"], ["b"]]
        assert models(solver, [E, F]) == [[], ["b"]]

    def test_externals_are_projected_out(self):
        solver = compiled("a :- e.")
        (model,) = solver.solve(assumptions=[E])
        assert model == frozenset({Atom("a")})

    def test_unused_external_is_accepted_and_ignored(self):
        solver = compiled("a.")
        assert solver.used_externals == frozenset()
        assert models(solver, [E]) == [["a"]]

    def test_used_externals(self):
        assert compiled("a :- e.").used_externals == frozenset({E})

    def test_assuming_a_non_external_raises(self):
        solver = compiled("a :- e.")
        with pytest.raises(ValueError):
            solver.solve(assumptions=[Atom("a")])

    def test_per_call_stats_and_cumulative_solver_stats(self):
        solver = compiled("a :- e.")
        first = solver.solve(max_models=1, assumptions=[E])
        second = solver.solve(max_models=1)
        assert first.stats.models == second.stats.models == 1
        assert solver.stats.models == 2
        assert solver.stats.steps == first.stats.steps + second.stats.steps

    def test_ambient_budget_is_read_per_call(self):
        solver = compiled(" ".join("{ a%d }." % i for i in range(10)) + " b :- e.")
        with budget_scope(Budget(max_steps=50)):
            with pytest.raises(BudgetExceededError):
                solver.solve()
        budget = Budget()
        with budget_scope(budget):
            assert solver.solve(max_models=1, assumptions=[E])
        assert budget.steps_used > 0

    def test_step_limit_applies_per_call(self):
        solver = compiled("a :- e.", max_steps=5)
        for __ in range(10):
            assert solver.solve(assumptions=[E])
