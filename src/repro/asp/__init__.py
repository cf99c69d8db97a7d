"""A from-scratch Answer Set Programming engine.

This package is the substrate the paper's framework stands on (it plays
the role clingo plays for the authors): a parser for a clingo-like
surface syntax, a grounder, and an answer-set solver with exact
Gelfond–Lifschitz stability checking.  The supported fragment — normal
rules, constraints, choice rules, builtin comparisons and integer
arithmetic, plus the paper's *annotated atoms* (``a(1)@2``) — covers
everything Answer Set Grammars and the inductive learner need.
"""

from repro.asp.atoms import Atom, Comparison, Literal
from repro.asp.grounder import GroundProgram, ground_program
from repro.asp.parser import parse_atom, parse_program, parse_rule, parse_term
from repro.asp.rules import ChoiceRule, NormalRule, Program, WeakConstraint, fact
from repro.asp.solver import (
    AnswerSet,
    AnswerSetSolver,
    CostVector,
    SolveResult,
    SolveStats,
    cost_of,
    is_satisfiable_text,
    solve,
    solve_optimal,
    solve_text,
)
from repro.asp.terms import ArithTerm, Constant, Function, Integer, Term, Variable

__all__ = [
    "Atom",
    "Comparison",
    "Literal",
    "NormalRule",
    "ChoiceRule",
    "WeakConstraint",
    "Program",
    "fact",
    "Constant",
    "Integer",
    "Variable",
    "Function",
    "ArithTerm",
    "Term",
    "parse_program",
    "parse_rule",
    "parse_atom",
    "parse_term",
    "ground_program",
    "GroundProgram",
    "AnswerSetSolver",
    "AnswerSet",
    "SolveResult",
    "SolveStats",
    "solve",
    "solve_optimal",
    "cost_of",
    "CostVector",
    "solve_text",
    "is_satisfiable_text",
]
