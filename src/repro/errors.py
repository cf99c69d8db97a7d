"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError`, so
callers can catch one base class at framework boundaries (e.g. the AGENP
components catch ``ReproError`` when validating externally shared
policies).
"""

from __future__ import annotations

from typing import Optional


class Span:
    """A source location: 1-based ``(line, col)`` .. ``(end_line, end_col)``.

    Spans originate in the tokenizers and are threaded onto parsed nodes
    (rules, atoms, comparisons) so that errors and lint diagnostics can
    point at real source text.  ``end_line``/``end_col`` default to the
    start position, giving a zero-width caret span.
    """

    __slots__ = ("line", "col", "end_line", "end_col")

    def __init__(
        self,
        line: int,
        col: int,
        end_line: Optional[int] = None,
        end_col: Optional[int] = None,
    ):
        self.line = line
        self.col = col
        self.end_line = end_line if end_line is not None else line
        self.end_col = end_col if end_col is not None else col

    def as_dict(self) -> dict:
        return {
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "end_col": self.end_col,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            data["line"], data["col"], data.get("end_line"), data.get("end_col")
        )

    def __repr__(self) -> str:
        return f"Span({self.line}:{self.col}..{self.end_line}:{self.end_col})"

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Span) and (
            (self.line, self.col, self.end_line, self.end_col)
            == (other.line, other.col, other.end_line, other.end_col)
        )

    def __hash__(self) -> int:
        return hash((self.line, self.col, self.end_line, self.end_col))


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ResourceError(ReproError):
    """Base class for resource-governance errors (budgets, deadlines,
    cooperative cancellation).  Raised by any subsystem running under a
    :class:`repro.runtime.Budget`."""


class BudgetExceededError(ResourceError):
    """Raised when a step budget is exhausted mid-computation."""

    def __init__(
        self,
        message: str = "step budget exceeded",
        steps_used: int = 0,
        max_steps: int = 0,
    ):
        self.steps_used = steps_used
        self.max_steps = max_steps
        if max_steps:
            message = f"{message} ({steps_used} steps used, limit {max_steps})"
        super().__init__(message)


class SolveTimeoutError(ResourceError):
    """Raised when a wall-clock deadline passes mid-computation."""

    def __init__(
        self,
        message: str = "wall-clock deadline exceeded",
        elapsed: float = 0.0,
        limit: float = 0.0,
    ):
        self.elapsed = elapsed
        self.limit = limit
        if limit:
            message = f"{message} ({elapsed:.3f}s elapsed, limit {limit:.3f}s)"
        super().__init__(message)


class OperationCancelledError(ResourceError):
    """Raised when a budget was cooperatively cancelled from outside."""


class ASPError(ReproError):
    """Base class for errors raised by the ASP subsystem."""


class ASPSyntaxError(ASPError):
    """Raised when ASP source text cannot be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class UnsafeRuleError(ASPError):
    """Raised when a rule contains a variable not bound by a positive body literal.

    ``span`` (when available) is the source location of the offending
    rule, threaded from the parser; ``variables`` names the variables
    that could not be bound.
    """

    def __init__(
        self,
        message: str,
        span: Optional[Span] = None,
        variables: tuple = (),
    ):
        self.span = span
        self.variables = tuple(variables)
        if span is not None:
            message = f"{message} (at line {span.line}, column {span.col})"
        super().__init__(message)


class GroundingError(ASPError):
    """Raised when grounding fails (e.g. arithmetic on non-integers)."""

    def __init__(self, message: str, span: Optional[Span] = None):
        self.span = span
        if span is not None:
            message = f"{message} (at line {span.line}, column {span.col})"
        super().__init__(message)


class SolverError(ASPError):
    """Raised when solving fails or resource limits are exceeded."""


class GrammarError(ReproError):
    """Base class for CFG/ASG errors."""


class GrammarSyntaxError(GrammarError):
    """Raised when grammar source text cannot be parsed."""


class AmbiguityLimitError(GrammarError):
    """Raised when a parse forest exceeds the configured tree limit."""


class GenerationLimitError(GrammarError):
    """Raised when a language has more strings than generation may walk."""


class LearningError(ReproError):
    """Base class for inductive-learning errors."""


class UnsatisfiableTaskError(LearningError):
    """Raised when a learning task has no inductive solution in its hypothesis space.

    This is a verdict, not a failure (``learn_auto`` expects it while it
    grows the violation budget), so telemetry spans it unwinds get the
    status ``unsat`` rather than ``error``.
    """

    span_status = "unsat"


class PolicyError(ReproError):
    """Base class for policy-layer errors."""


class PolicyValidationError(PolicyError):
    """Raised when a policy fails structural validation."""


class AgenpError(ReproError):
    """Base class for AGENP framework errors."""
