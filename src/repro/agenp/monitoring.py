"""Monitoring of PDP/PEP operations (Figure 2's "Monitoring" arrows).

The AGENP loop requires "a history of the decisions that have been made,
the actions that have been taken, and the effects that they have had on
the state of the system".  :class:`MonitoringLog` is that history; the
PAdaP turns flagged records into new training examples, and degradation
events (budget-exhausted or circuit-broken decisions served from a
fallback) are recorded here so the adaptation loop can see when the
system is running in a degraded mode.

Record ids are assigned *by the log* from a per-log counter, so two
logs built in one process produce reproducible, independent id
sequences (cross-run determinism; no module-level global counter).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.core.contexts import Context
from repro.policy.model import Decision, Request

__all__ = ["DecisionRecord", "LogStats", "MonitoringLog"]


class DecisionRecord:
    """One decision/enforcement event and (later) its observed outcome.

    ``degraded`` marks decisions that were *not* produced by the normal
    solver-backed path: the PDP fell back to its default decision or the
    last-known-good policy set (``note`` says why).  ``trace_id`` links
    the record to the telemetry trace of the solve that produced it
    (when the PDP ran under an ambient tracer; None otherwise) —
    Figure 2's monitoring arrows joined to low-level engine behaviour.
    """

    __slots__ = (
        "record_id",
        "request",
        "decision",
        "policy_text",
        "context",
        "enforced",
        "outcome_ok",
        "degraded",
        "note",
        "trace_id",
    )

    def __init__(
        self,
        request: Request,
        decision: Decision,
        policy_text: str,
        context: Context,
        enforced: bool = False,
        degraded: bool = False,
        note: str = "",
        trace_id: Optional[int] = None,
    ):
        self.record_id: Optional[int] = None  # assigned by MonitoringLog.append
        self.request = request
        self.decision = decision
        self.policy_text = policy_text
        self.context = context
        self.enforced = enforced
        self.outcome_ok: Optional[bool] = None
        self.degraded = degraded
        self.note = note
        self.trace_id = trace_id

    def __repr__(self) -> str:
        outcome = (
            "?" if self.outcome_ok is None else ("ok" if self.outcome_ok else "BAD")
        )
        ident = "?" if self.record_id is None else str(self.record_id)
        flag = " DEGRADED" if self.degraded else ""
        return (
            f"DecisionRecord(#{ident} {self.decision.value} "
            f"via {self.policy_text!r} [{outcome}]{flag})"
        )


class LogStats(NamedTuple):
    """Aggregate view of a :class:`MonitoringLog` (Figure 2 dashboard).

    ``by_decision`` counts records per decision effect;
    ``degraded_rate`` is the fraction of decisions served from a
    fallback path and ``enforcement_rate`` the fraction that reached
    the PEP — the two numbers the adaptation loop watches.
    """

    total: int
    by_decision: Dict[str, int]
    degraded: int
    degraded_rate: float
    enforced: int
    enforcement_rate: float
    violations: int
    confirmations: int
    unreviewed: int

    def lines(self) -> List[str]:
        """Human-readable report lines (benchmark/CLI output)."""
        effects = " ".join(f"{k}={v}" for k, v in sorted(self.by_decision.items()))
        return [
            f"decisions: {self.total} ({effects or 'none'})",
            f"degraded: {self.degraded} ({self.degraded_rate:.1%})  "
            f"enforced: {self.enforced} ({self.enforcement_rate:.1%})",
            f"outcomes: {self.confirmations} ok, {self.violations} flagged, "
            f"{self.unreviewed} unreviewed",
        ]


class MonitoringLog:
    """Append-only history of decision records with outcome feedback."""

    def __init__(self) -> None:
        self._records: List[DecisionRecord] = []
        # record id -> the first record appended with it (O(1) feedback)
        self._by_id: Dict[int, DecisionRecord] = {}
        self._ids = itertools.count(1)

    def append(self, record: DecisionRecord) -> DecisionRecord:
        if record.record_id is None:
            record.record_id = next(self._ids)
        self._records.append(record)
        self._by_id.setdefault(record.record_id, record)
        return record

    def records(self) -> List[DecisionRecord]:
        return list(self._records)

    def mark_outcome(self, record_id: int, ok: bool) -> None:
        record = self._by_id.get(record_id)
        if record is None:
            raise KeyError(f"no record with id {record_id}")
        record.outcome_ok = ok

    def violations(self) -> List[DecisionRecord]:
        """Records whose outcome was flagged bad — adaptation triggers."""
        return [r for r in self._records if r.outcome_ok is False]

    def confirmations(self) -> List[DecisionRecord]:
        return [r for r in self._records if r.outcome_ok is True]

    def unreviewed(self) -> List[DecisionRecord]:
        return [r for r in self._records if r.outcome_ok is None]

    def degradations(self) -> List[DecisionRecord]:
        """Decisions served from a fallback path (budget/breaker events)."""
        return [r for r in self._records if r.degraded]

    def stats(self) -> LogStats:
        """Fold the history into a :class:`LogStats` aggregate."""
        total = len(self._records)
        by_decision: Dict[str, int] = {}
        degraded = enforced = violations = confirmations = unreviewed = 0
        for record in self._records:
            effect = record.decision.value
            by_decision[effect] = by_decision.get(effect, 0) + 1
            if record.degraded:
                degraded += 1
            if record.enforced:
                enforced += 1
            if record.outcome_ok is None:
                unreviewed += 1
            elif record.outcome_ok:
                confirmations += 1
            else:
                violations += 1
        return LogStats(
            total=total,
            by_decision=by_decision,
            degraded=degraded,
            degraded_rate=degraded / total if total else 0.0,
            enforced=enforced,
            enforcement_rate=enforced / total if total else 0.0,
            violations=violations,
            confirmations=confirmations,
            unreviewed=unreviewed,
        )

    def clear(self) -> None:
        self._records.clear()
        self._by_id.clear()

    def __len__(self) -> int:
        return len(self._records)
