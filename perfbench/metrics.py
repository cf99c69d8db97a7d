"""The benchmark's metric catalogue: names, units, directions, meaning.

``BENCHMARK.json`` lists the same names; ``python3 perfbench/run.py
--list-metrics`` prints this table, including which end-to-end metric
and workload each per-layer metric is expected to move.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "OPERATION", "format_catalogue"]

# the primary operation behind op_p50_ms / ops_per_s on each workload
OPERATION = {
    "las-learn": "XacmlLearningPipeline.learn(log), until the learned model returns",
    "asg-adapt": "AutonomousManagedSystem.adapt(): ingest -> learn_gpm -> regenerate",
    "pdp-serve": "PolicyEngine.decide(request)",
}

# name -> (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", "median time to build one unit's inputs and system"),
    "op_p50_ms": ("ms", "lower", "median latency of the workload's primary operation"),
    "ops_per_s": (
        "1/s",
        "higher",
        "primary operations per second of the whole timed mix, writes included",
    ),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the benchmark process"),
}

_LAS, _ADAPT, _SERVE = "las-learn", "asg-adapt", "pdp-serve"
_LEARN = f"op_p50_ms/ops_per_s on {_LAS} and {_ADAPT}"

# name -> (unit, better, what it should move)
PER_LAYER = {
    "asp.parse.calls": ("count", "lower", f"op_p50_ms on {_LAS}"),
    "asp.parse.self_s": ("s", "lower", f"op_p50_ms on {_LAS}"),
    "asp.ground.calls": ("count", "lower", f"{_LEARN}; regeneration on {_SERVE}"),
    "asp.ground.self_s": ("s", "lower", f"{_LEARN}; regeneration on {_SERVE}"),
    "asp.ground.rules": ("count", "lower", f"{_LEARN}; regeneration on {_SERVE}"),
    "asp.solve.calls": ("count", "lower", f"{_LEARN}; regeneration on {_SERVE}"),
    "asp.solve.self_s": ("s", "lower", f"{_LEARN} (most on {_LAS}); regeneration on {_SERVE}"),
    "asp.solve.propagations": ("count", "lower", f"{_LEARN}; regeneration on {_SERVE}"),
    "asp.solve.decisions": ("count", "lower", f"{_LEARN}; regeneration on {_SERVE}"),
    "asg.program.calls": ("count", "lower", f"op_p50_ms on {_ADAPT}; ops_per_s on {_SERVE}"),
    "asg.program.self_s": ("s", "lower", f"op_p50_ms on {_ADAPT}; ops_per_s on {_SERVE}"),
    "asg.rebuild.calls": ("count", "lower", f"op_p50_ms on {_ADAPT}; none on {_LAS}"),
    "asg.rebuild.self_s": ("s", "lower", f"op_p50_ms on {_ADAPT}; none on {_LAS}"),
    "asg.accepts.calls": ("count", "lower", f"op_p50_ms on {_ADAPT}; none on {_LAS}"),
    "asg.accepts.self_s": ("s", "lower", f"op_p50_ms on {_ADAPT}; none on {_LAS}"),
    "grammar.earley.calls": ("count", "lower", f"op_p50_ms on {_ADAPT}; ops_per_s on {_SERVE}"),
    "grammar.earley.self_s": ("s", "lower", f"op_p50_ms on {_ADAPT}; ops_per_s on {_SERVE}"),
    "grammar.earley.distinct_ratio": (
        "ratio",
        "higher",
        f"op_p50_ms on {_ADAPT} (repeated parses of one string)",
    ),
    "grammar.generate.calls": ("count", "lower", f"ops_per_s on {_SERVE}; op_p50_ms on {_ADAPT}"),
    "grammar.generate.self_s": ("s", "lower", f"ops_per_s on {_SERVE}; op_p50_ms on {_ADAPT}"),
    "learning.space.self_s": ("s", "lower", f"op_p50_ms on {_LAS}"),
    "learning.oracle.calls": ("count", "lower", _LEARN),
    "learning.oracle.self_s": ("s", "lower", f"{_LEARN} (oracle keying); none on {_SERVE}"),
    "learning.oracle.memo_hit_ratio": ("ratio", "higher", _LEARN),
    "learning.search.calls": ("count", "lower", _LEARN),
    "learning.search.self_s": ("s", "lower", _LEARN),
    "learning.retries": ("count", "lower", f"ops_per_s on {_LAS}"),
    "learning.exact.calls": ("count", "lower", f"{_LEARN}; expected 0"),
    "learning.exact.self_s": ("s", "lower", _LEARN),
    "learning.auto.self_s": ("s", "lower", _LEARN),
    "analysis.lint.calls": ("count", "lower", _LEARN),
    "analysis.lint.self_s": ("s", "lower", _LEARN),
    "engine.decide.calls": ("count", "lower", f"op_p50_ms on {_SERVE}"),
    "engine.decide.self_s": ("s", "lower", f"op_p50_ms (hits) on {_SERVE}"),
    "engine.decision_cache.hit_ratio": ("ratio", "higher", f"op_p50_ms and ops_per_s on {_SERVE}"),
    "engine.decision_cache.purges": ("count", "lower", f"ops_per_s on {_SERVE}"),
    "engine.decision_cache.evictions": ("count", "lower", f"ops_per_s on {_SERVE}"),
    "engine.cache.self_s": ("s", "lower", f"ops_per_s on {_SERVE}"),
    "agenp.pdp.calls": ("count", "lower", f"ops_per_s (misses) on {_SERVE}"),
    "agenp.pdp.self_s": ("s", "lower", f"ops_per_s (misses) on {_SERVE}"),
    "agenp.interpret.calls": ("count", "lower", f"ops_per_s on {_SERVE}"),
    "agenp.interpret.self_s": ("s", "lower", f"ops_per_s on {_SERVE}"),
    "policy.evaluate.calls": ("count", "lower", f"ops_per_s (misses) on {_SERVE}"),
    "policy.evaluate.self_s": ("s", "lower", f"ops_per_s (misses) on {_SERVE}"),
    "agenp.monitoring.self_s": ("s", "lower", f"ops_per_s on {_SERVE}; op_p50_ms on {_ADAPT}"),
    "agenp.monitoring.records": ("count", "lower", f"ops_per_s on {_SERVE}"),
    "agenp.prep.self_s": ("s", "lower", f"ops_per_s on {_SERVE} (regeneration)"),
    "agenp.pcp.self_s": ("s", "lower", f"ops_per_s on {_SERVE} (regeneration)"),
    "agenp.padap.self_s": ("s", "lower", f"op_p50_ms on {_ADAPT}"),
    "agenp.ams.self_s": ("s", "lower", f"op_p50_ms on {_ADAPT}"),
    "apps.xacml.self_s": ("s", "lower", f"op_p50_ms on {_LAS}"),
    "trace.root_s": ("s", "lower", "wall time of the traced operations"),
    "trace.unattributed_s": ("s", "lower", "root wall time outside every layer"),
    "trace.overhead_ratio": ("ratio", "lower", "traced over untraced wall time of one unit"),
    "trace.count_mismatches": ("count", "lower", "counts differing between two traced units; expected 0"),
}


def format_catalogue() -> str:
    lines = ["end-to-end metrics (--trace 0), on every workload:"]
    for name, (unit, better, meaning) in END_TO_END.items():
        lines.append(f"  {name:<34} {unit:<6} {better:<7} {meaning}")
    lines.append("  primary operation per workload:")
    for workload, operation in OPERATION.items():
        lines.append(f"    {workload:<10} {operation}")
    lines.append("per-layer metrics (--trace 1), on every workload; moves:")
    for name, (unit, better, moves) in PER_LAYER.items():
        lines.append(f"  {name:<34} {unit:<6} {better:<7} {moves}")
    return "\n".join(lines)
