"""Resource budgets and deadlines for cooperative cancellation.

Every potentially unbounded computation in this package (ASP grounding
and solving, Earley parsing, ASG membership, hypothesis search) accepts
a :class:`Budget` — a combined step budget and wall-clock deadline that
the computation *ticks* as it works.  Exhausting either limit raises a
typed :class:`~repro.errors.ResourceError` subclass, so callers at
framework boundaries (the PDP, the PAdaP) can catch one base class and
degrade gracefully instead of stalling the whole AGENP loop.

Budgets can also be installed *ambiently* with :func:`budget_scope`::

    with budget_scope(Budget(max_steps=100_000, wall_clock=0.5)):
        models = solve_text(hard_program)   # bounded, no signature changes

Any governed primitive that is not handed an explicit budget consults
:func:`current_budget`, so one scope bounds an arbitrarily deep call
tree (e.g. PDP -> interpreter -> ASG membership -> grounder -> solver).

Cooperative cancellation: another thread (or a supervising callback) may
call :meth:`Budget.cancel`; the next tick raises
:class:`~repro.errors.OperationCancelledError`.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

from repro.errors import (
    BudgetExceededError,
    OperationCancelledError,
    SolveTimeoutError,
)

__all__ = [
    "Budget",
    "Deadline",
    "budget_scope",
    "current_budget",
    "spend",
]

# How many units of work pass between wall-clock checks.  Reading the
# clock is ~100x the cost of the counter increment, so deadline precision
# is traded for hot-loop throughput.
_TIME_CHECK_INTERVAL = 256


class Deadline:
    """A wall-clock deadline against an injectable monotonic clock."""

    __slots__ = ("limit", "_clock", "_start")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        if seconds < 0:
            raise ValueError("deadline seconds must be >= 0")
        self.limit = float(seconds)
        self._clock = clock
        self._start = clock()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    @property
    def remaining(self) -> float:
        return max(0.0, self.limit - self.elapsed)

    @property
    def expired(self) -> bool:
        return self.elapsed > self.limit

    def check(self) -> None:
        elapsed = self.elapsed
        if elapsed > self.limit:
            raise SolveTimeoutError(elapsed=elapsed, limit=self.limit)

    def __repr__(self) -> str:
        return f"Deadline({self.remaining:.3f}s of {self.limit:.3f}s left)"


class Budget:
    """A step budget plus optional wall-clock deadline.

    ``max_steps=None`` means unlimited steps; ``wall_clock=None`` means
    no deadline.  A budget with neither limit still supports
    cancellation, which makes it a pure cooperative-cancellation token.
    """

    __slots__ = ("max_steps", "deadline", "_steps", "_cancelled", "_until_time_check")

    def __init__(
        self,
        max_steps: Optional[int] = None,
        wall_clock: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_steps is not None and max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        self.max_steps = max_steps
        self.deadline = Deadline(wall_clock, clock) if wall_clock is not None else None
        self._steps = 0
        self._cancelled = False
        self._until_time_check = 1  # check the clock on the first tick

    # -- accounting ---------------------------------------------------------

    @property
    def steps_used(self) -> int:
        return self._steps

    @property
    def remaining_steps(self) -> Optional[int]:
        if self.max_steps is None:
            return None
        return max(0, self.max_steps - self._steps)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Cooperatively cancel: the next tick/check raises."""
        self._cancelled = True

    def tick(self, n: int = 1) -> None:
        """Record ``n`` units of work; raise if any limit is now exceeded."""
        self._steps += n
        if self._cancelled:
            raise OperationCancelledError("budget cancelled")
        if self.max_steps is not None and self._steps > self.max_steps:
            raise BudgetExceededError(
                steps_used=self._steps, max_steps=self.max_steps
            )
        if self.deadline is not None:
            self._until_time_check -= n
            if self._until_time_check <= 0:
                self._until_time_check = _TIME_CHECK_INTERVAL
                self.deadline.check()

    def check(self) -> None:
        """Raise if the budget is already exhausted (no work recorded)."""
        if self._cancelled:
            raise OperationCancelledError("budget cancelled")
        if self.max_steps is not None and self._steps > self.max_steps:
            raise BudgetExceededError(
                steps_used=self._steps, max_steps=self.max_steps
            )
        if self.deadline is not None:
            self.deadline.check()

    @property
    def exhausted(self) -> bool:
        """Non-raising probe of the same conditions :meth:`check` raises on."""
        if self._cancelled:
            return True
        if self.max_steps is not None and self._steps > self.max_steps:
            return True
        return self.deadline is not None and self.deadline.expired

    def fresh(self) -> "Budget":
        """A new budget with the same limits and a restarted clock."""
        clock = self.deadline._clock if self.deadline is not None else time.monotonic
        wall_clock = self.deadline.limit if self.deadline is not None else None
        return Budget(max_steps=self.max_steps, wall_clock=wall_clock, clock=clock)

    def __repr__(self) -> str:
        parts = [f"steps={self._steps}"]
        if self.max_steps is not None:
            parts.append(f"max_steps={self.max_steps}")
        if self.deadline is not None:
            parts.append(repr(self.deadline))
        if self._cancelled:
            parts.append("CANCELLED")
        return f"Budget({', '.join(parts)})"


_AMBIENT: ContextVar[Optional[Budget]] = ContextVar("repro_ambient_budget", default=None)


def current_budget() -> Optional[Budget]:
    """The innermost ambient budget, or None outside any scope."""
    return _AMBIENT.get()


@contextlib.contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` as the ambient budget for the dynamic extent.

    ``budget_scope(None)`` masks any outer scope (useful to exempt a
    subcomputation from governance).
    """
    token = _AMBIENT.set(budget)
    try:
        yield budget
    finally:
        _AMBIENT.reset(token)


def spend(n: int = 1, budget: Optional[Budget] = None) -> None:
    """Tick ``budget`` or, when None, the ambient budget (no-op outside)."""
    active = budget if budget is not None else _AMBIENT.get()
    if active is not None:
        active.tick(n)
