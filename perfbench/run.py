"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pdp-serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list-metrics

``--trace 0`` runs whole units of the workload (see ``workloads.py``)
until ``--seconds`` are used and reports the end-to-end metrics, with no
tracer of any kind active.  The host's speed swings by up to half within
seconds (other tenants share its cores), so every 0.25 s the run also
times a fixed piece of interpreter work that contains none of the
program's code; each reported time is rescaled by the reference time of
that piece (``REFERENCE_CALIBRATION_S``) over its mean time in the samples
taken just before and after the timed operation.  ``--trace 1`` runs unit 0 three times --
traced, untraced, traced -- and reports per-layer counts and self time
from the second traced unit, the tracing overhead, and how many counts
differ between the two traced units (expected 0).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/``; the
benchmark fails without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.telemetry import current_tracer  # noqa: E402

from metrics import END_TO_END, PER_LAYER, format_catalogue  # noqa: E402
from tracing import LayerTracer, installed  # noqa: E402
from workloads import WORKLOADS, Probe, calibration_sample  # noqa: E402

MIN_SETUPS = 5
MIN_SETUP_TOTAL_S = 0.5
WARMUP_S = 3.0
# mean calibration sample on the reference host (2 vCPUs, CPython 3.11);
# times are reported rescaled to this interpreter speed
REFERENCE_CALIBRATION_S = 0.006


def _warm_up(seconds: float) -> None:
    """Keep the core busy so measurement starts at its sustained clock
    rate, not at the boosted rate it reaches after idling."""
    end = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < end:
        for i in range(10_000):
            total += i * i


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seed: int, seconds: float):
    """Whole units until ``seconds`` are used; end-to-end metrics."""
    probe = Probe()
    setups = []
    setup_calibrations = []
    unit_s = []

    def set_up(unit: int):
        # each set-up gets its own adjacent calibration sample: set-ups
        # are short and many happen after the timed units
        setup_calibrations.append(calibration_sample())
        began = time.perf_counter()
        state = workload.setup(seed, unit)
        setups.append(time.perf_counter() - began)
        return state

    _warm_up(WARMUP_S)
    start = time.perf_counter()
    unit = 0
    state = None
    while True:
        # the end-to-end numbers are taken with no ambient tracer
        probe.check(current_tracer() is None, "an ambient tracer is active")
        state = set_up(unit)
        began = time.perf_counter()
        workload.run(state, probe)
        unit_s.append(time.perf_counter() - began)
        unit += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(unit_s) + statistics.fmean(setups) > seconds:
            break
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_TOTAL_S:
        set_up(len(setups))
    peak_rss_mb = _peak_rss_mb()
    ops, mix_s = probe.rescaled(REFERENCE_CALIBRATION_S)
    setup_scale = REFERENCE_CALIBRATION_S / statistics.fmean(setup_calibrations)
    metrics = {
        "setup_s": statistics.median(setups) * setup_scale,
        "op_p50_ms": statistics.median(ops) * 1e3,
        "ops_per_s": len(ops) / mix_s,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"{workload.name}: seed={seed} units={unit} ops={len(probe.ops)} "
        f"mix={probe.mix_s:.3f}s setups={len(setups)}",
        f"  calibration: mean {1e3 * statistics.fmean(probe.calibrations):.3f}ms "
        f"over {len(probe.calibrations)} samples (reference "
        f"{1e3 * REFERENCE_CALIBRATION_S:.3f}ms); times below are raw",
        "  op latency ms: p50={:.4f} p90={:.4f} p99={:.4f} max={:.4f}".format(
            1e3 * statistics.median(probe.ops),
            *(1e3 * _quantile(probe.ops, q) for q in (0.9, 0.99, 1.0)),
        ),
    ]
    for kind, times in sorted(probe.writes.items()):
        lines.append(
            f"  {kind}: n={len(times)} p50={1e3 * statistics.median(times):.4f}ms "
            f"p99={1e3 * _quantile(times, 0.99):.4f}ms"
        )
    cache_stats = getattr(workload, "cache_stats", None)
    if cache_stats is not None:
        hits, misses, __ = cache_stats(state)
        lines.append(f"  decision cache (last unit): hits={hits} misses={misses}")
    return probe, metrics, lines


def _layer_metrics(tracer: LayerTracer, workload, state) -> dict:
    out = {}
    for name in PER_LAYER:
        layer, __, field = name.rpartition(".")
        stats = tracer.layers.get(layer)
        if field == "calls":
            out[name] = stats.calls if stats else 0
        elif field == "self_s":
            out[name] = stats.self_s if stats else 0.0
        elif stats is not None and field in stats.tally:
            out[name] = stats.tally[field]
    oracle = tracer.stats("learning.oracle")
    out["learning.oracle.memo_hit_ratio"] = (
        oracle.tally.get("memo_hits", 0) / oracle.calls if oracle.calls else 0.0
    )
    earley = tracer.stats("grammar.earley")
    out["grammar.earley.distinct_ratio"] = (
        len(tracer.earley_keys) / earley.calls if earley.calls else 0.0
    )
    out["learning.retries"] = (
        tracer.stats("learning.search").calls - tracer.stats("learning.auto").calls
    )
    cache = tracer.stats("engine.cache").tally
    out["engine.decision_cache.purges"] = cache.get("decision_purges", 0)
    hits = misses = evictions = 0
    cache_stats = getattr(workload, "cache_stats", None)
    if cache_stats is not None:
        hits, misses, evictions = cache_stats(state)
        evictions -= cache.get("decision_purged", 0)
    out["engine.decision_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["engine.decision_cache.evictions"] = evictions
    for name in PER_LAYER:
        out.setdefault(name, 0)
    return out


def traced_run(workload, seed: int):
    """Unit 0 traced, untraced, traced again; per-layer metrics."""
    probes = []
    tracers = []
    state = None
    for traced in (True, False, True):
        tracer = LayerTracer() if traced else None
        probe = Probe(tracer)
        state = workload.setup(seed, 0)
        with installed(tracer):
            workload.run(state, probe)
        probes.append(probe)
        if traced:
            tracers.append(tracer)
    first, second = (t.counts() for t in tracers)
    mismatches = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
    tracer = tracers[-1]
    metrics = _layer_metrics(tracer, workload, state)
    unattributed = tracer.root_s - tracer.covered_s
    self_total = sum(s.self_s for s in tracer.layers.values())
    metrics.update(
        {
            "trace.root_s": tracer.root_s,
            "trace.unattributed_s": unattributed,
            "trace.overhead_ratio": tracer.root_s / probes[1].mix_s,
            "trace.count_mismatches": len(mismatches),
        }
    )
    probe = Probe()
    for p in probes:
        probe.attempted += p.attempted
        probe.failed += p.failed
        probe.problems += p.problems
    probe.check(not mismatches, f"counts differ between traced units: {mismatches[:5]}")
    share = (self_total + unattributed) / tracer.root_s
    probe.check(abs(share - 1.0) <= 0.05, f"self times cover {share:.3f} of root")
    lines = [
        f"{workload.name}: seed={seed} traced root={tracer.root_s:.3f}s "
        f"untraced={probes[1].mix_s:.3f}s self+unattributed={share:.4f} of root",
        "  self time by layer:",
    ]
    for layer, stats in sorted(tracer.layers.items(), key=lambda kv: -kv[1].self_s):
        if stats.calls or stats.self_s:
            lines.append(f"    {layer:<18} {stats.self_s:9.4f}s calls={stats.calls}")
    lines.append(f"    {'(unattributed)':<18} {unattributed:9.4f}s")
    return probe, metrics, lines


def _declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)
    if args.list_metrics:
        print(format_catalogue())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.trace:
        probe, values, lines = traced_run(workload, args.seed)
        catalogue = PER_LAYER
    else:
        probe, values, lines = timed_run(workload, args.seed, args.seconds)
        catalogue = END_TO_END
    declared = _declared_metrics(args.trace)
    probe.check(
        declared == {name: spec[0] for name, spec in catalogue.items()},
        "BENCHMARK.json and metrics.py disagree",
    )
    for line in lines + [f"  problem: {p}" for p in probe.problems]:
        print(line)
    result = {
        "correct": probe.failed == 0,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "metrics": {
            name: {"value": values[name], "unit": catalogue[name][0]} for name in catalogue
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing: set and dict layouts, and so iteration
        # orders and timings, do not vary from process to process
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
