"""Span exporters and trace summarisation.

Three consumers of finished-span records (the dicts produced by
:meth:`repro.telemetry.tracer.Span.as_record`):

* :class:`InMemoryCollector` — keeps records in a list; the test and
  notebook workhorse.
* :class:`JsonlExporter` — appends one JSON object per line to a file;
  benchmarks write ``BENCH_*.jsonl`` artifacts through it so the perf
  trajectory survives the process.
* :func:`summarize` / :func:`format_summary` — fold a span list into a
  per-operation report (count, p50/p95/total latency) plus counter
  totals, the same shape ILASP prints as its per-run search statistics.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence

__all__ = [
    "InMemoryCollector",
    "JsonlExporter",
    "read_jsonl",
    "summarize",
    "format_summary",
]


class InMemoryCollector:
    """Collects span records in memory (tests, interactive inspection)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def export(self, record: Dict[str, Any]) -> None:
        self.spans.append(record)

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)


class JsonlExporter:
    """Writes each span record as one JSON line.

    Accepts a path (opened lazily, truncated) or an open file object.
    Usable as a context manager; ``close`` is idempotent and never
    closes a stream it did not open.
    """

    def __init__(self, path_or_file: Any):
        if hasattr(path_or_file, "write"):
            self._file: Optional[IO[str]] = path_or_file
            self._owns = False
            self._path = None
        else:
            self._file = None
            self._owns = True
            self._path = str(path_or_file)

    def export(self, record: Dict[str, Any]) -> None:
        if self._file is None:
            self._file = open(self._path, "w", encoding="utf-8")
        self._file.write(json.dumps(record, sort_keys=True, default=str))
        self._file.write("\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._owns:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load span records back from a :class:`JsonlExporter` file."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def summarize(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold span records into a per-operation latency + counter report.

    Returns ``{"operations": {name: {count, errors, unsat, total, p50,
    p95, max}}, "counters": {name: total}, "observations": {...}}`` with
    all latencies in seconds.  ``unsat`` counts spans ended by an
    expected "no solution" verdict; they are not errors.
    """
    by_name: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    unsat: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    observations: Dict[str, Dict[str, float]] = {}
    child_counted = 0
    for record in spans:
        name = record.get("name", "?")
        by_name.setdefault(name, []).append(float(record.get("duration", 0.0)))
        status = record.get("status")
        if status == "error":
            errors[name] = errors.get(name, 0) + 1
        elif status == "unsat":
            unsat[name] = unsat.get(name, 0) + 1
        # Root spans already aggregate their subtree's counters; only
        # fold in roots so one event is not counted once per ancestor.
        if record.get("parent_id") is None:
            for cname, value in (record.get("counters") or {}).items():
                counters[cname] = counters.get(cname, 0) + int(value)
            for oname, agg in (record.get("observations") or {}).items():
                existing = observations.get(oname)
                if existing is None:
                    observations[oname] = dict(agg)
                else:
                    existing["count"] += agg["count"]
                    existing["total"] += agg["total"]
                    existing["min"] = min(existing["min"], agg["min"])
                    existing["max"] = max(existing["max"], agg["max"])
        else:
            child_counted += 1
    operations: Dict[str, Dict[str, float]] = {}
    for name, durations in sorted(by_name.items()):
        durations.sort()
        operations[name] = {
            "count": len(durations),
            "errors": errors.get(name, 0),
            "unsat": unsat.get(name, 0),
            "total": sum(durations),
            "p50": _percentile(durations, 0.50),
            "p95": _percentile(durations, 0.95),
            "max": durations[-1],
        }
    return {
        "operations": operations,
        "counters": dict(sorted(counters.items())),
        "observations": dict(sorted(observations.items())),
    }


def format_summary(summary: Dict[str, Any], title: str = "telemetry summary") -> str:
    """Render a :func:`summarize` result as an aligned text table."""
    lines = [title, ""]
    operations = summary.get("operations", {})
    if operations:
        lines.append(
            f"{'operation':<28} {'count':>7} {'errors':>6} {'unsat':>6} "
            f"{'p50 ms':>9} {'p95 ms':>9} {'max ms':>9} {'total s':>9}"
        )
        for name, row in operations.items():
            lines.append(
                f"{name:<28} {row['count']:>7} {row['errors']:>6} "
                f"{row.get('unsat', 0):>6} "
                f"{row['p50'] * 1e3:>9.3f} {row['p95'] * 1e3:>9.3f} "
                f"{row['max'] * 1e3:>9.3f} {row['total']:>9.3f}"
            )
    else:
        lines.append("(no spans)")
    counters = summary.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"{'counter':<40} {'total':>12}")
        for name, value in counters.items():
            lines.append(f"{name:<40} {value:>12}")
    observations = summary.get("observations", {})
    if observations:
        lines.append("")
        lines.append(f"{'observation':<32} {'count':>7} {'mean':>12} {'min':>12} {'max':>12}")
        for name, agg in observations.items():
            mean = agg["total"] / agg["count"] if agg["count"] else 0.0
            lines.append(
                f"{name:<32} {agg['count']:>7} {mean:>12.4f} "
                f"{agg['min']:>12.4f} {agg['max']:>12.4f}"
            )
    return "\n".join(lines)
