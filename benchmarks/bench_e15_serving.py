"""E15 — the serving engine: cache speedup and batched decisions.

A repeated-decision serving workload (a fixed pool of policy programs,
each requested many times, as a steady-state PDP/PCP would) is run
through a caching :class:`~repro.engine.PolicyEngine` and through an
identical engine with every cache disabled.  The contract under test:

* the cached engine answers the whole workload at **>= 5x** the
  uncached throughput (warm hits skip parse + ground + solve entirely);
* every response is **element-for-element identical** to the uncached
  one — same answer sets, same order (the byte-identical guarantee the
  fingerprint keys provide);
* batched decision serving (``decide_many``) resolves each distinct
  request once while still logging one monitoring record per request;
* the PDP's indexed decision function (``evaluate_compiled``) answers a
  500-policy set element-for-element like a scan over every policy, at
  **>= 3x** its speed per decision.

Cache hit/miss/eviction counters land in the BENCH_e15 artifacts via
the module telemetry session.
"""

import random
import time

import pytest

from repro.agenp.interpreters import FieldInterpreter
from repro.agenp.pdp import PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import PolicyRepository, StoredPolicy
from repro.engine import PolicyEngine
from repro.policy.model import Decision, Request
from tests.agenp.test_pdp_index import linear_evaluate

ROLES = ("dba", "dev", "auditor")


def serving_pool(n_programs=8, n_users=8, n_resources=10):
    """A pool of access-control programs with genuine search effort.

    Each program mixes stratified permit rules with a choice over audit
    assignments and a constraint, so solving costs real propagation and
    the stability machinery stays engaged.
    """
    pool = []
    for p in range(n_programs):
        lines = [f"shard(s{p})."]  # keep every pool program distinct
        for u in range(n_users):
            lines.append(f"role(u{u}, {ROLES[(u + p) % len(ROLES)]}).")
        for r in range(n_resources):
            rtype = "db" if (r + p) % 2 == 0 else "doc"
            lines.append(f"rtype(r{r}, {rtype}).")
            if (r + p) % 3 == 0:
                lines.append(f"sensitive(r{r}).")
        lines += [
            "permit(U, R) :- role(U, dba), rtype(R, db).",
            "permit(U, R) :- role(U, dev), rtype(R, doc), not sensitive(R).",
            "audit(R) :- sensitive(R), not waived(R).",
            "waived(R) :- sensitive(R), not audit(R).",
        ]
        pool.append("\n".join(lines))
    return pool


def run_workload(engine, pool, repeats):
    """Serve ``repeats`` passes over the pool; return (answers, seconds)."""
    answers = []
    start = time.monotonic()
    for _ in range(repeats):
        for text in pool:
            answers.append(list(engine.solve_text(text)))
    return answers, time.monotonic() - start


def test_cached_serving_speedup(report, benchmark):
    pool = serving_pool()
    repeats = 10
    cached = PolicyEngine()
    uncached = PolicyEngine(
        parse_cache_size=0, ground_cache_size=0, solve_cache_size=0
    )

    cold_answers, cold_s = run_workload(uncached, pool, repeats)
    warm_answers, warm_s = run_workload(cached, pool, repeats)

    # element-for-element identical answer sets, in the same order
    assert warm_answers == cold_answers

    requests = repeats * len(pool)
    cold_rps = requests / cold_s
    warm_rps = requests / warm_s
    speedup = warm_rps / cold_rps
    stats = cached.stats()

    report(
        "E15 — cached vs uncached serving",
        f"{'config':>10} {'requests':>9} {'seconds':>9} {'req/s':>9}",
        f"{'uncached':>10} {requests:>9} {cold_s:>9.3f} {cold_rps:>9.1f}",
        f"{'cached':>10} {requests:>9} {warm_s:>9.3f} {warm_rps:>9.1f}",
        f"speedup: {speedup:.1f}x   solve cache: "
        f"{stats.caches['solve']['hits']} hits / "
        f"{stats.caches['solve']['misses']} misses "
        f"(hit rate {stats.caches['solve']['hit_rate']:.0%})",
    )

    # the acceptance bar: a repeated-decision workload serves >= 5x faster
    assert speedup >= 5.0, f"cache speedup {speedup:.1f}x below the 5x bar"
    assert stats.caches["solve"]["misses"] == len(pool)
    assert stats.caches["solve"]["hits"] == requests - len(pool)

    benchmark.pedantic(
        lambda: run_workload(cached, pool, 2), rounds=3, iterations=1
    )


def test_batched_decisions(report, benchmark):
    repository = PolicyRepository()
    for u in range(12):
        effect = "allow" if u % 3 else "deny"
        repository.add(StoredPolicy((effect, f"user{u}", "read")))
    interpreter = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})

    requests = [
        Request({"subject": {"id": f"user{i % 20}"}, "action": {"id": "read"}})
        for i in range(600)
    ]

    serial = PolicyEngine(repository, interpreter, decision_cache_size=0)
    start = time.monotonic()
    singles = [serial.decide(r).decision for r in requests]
    serial_s = time.monotonic() - start

    batched = PolicyEngine(repository, interpreter)
    start = time.monotonic()
    records = batched.decide_many(requests)
    batch_s = time.monotonic() - start

    assert [r.decision for r in records] == singles
    assert len(batched.pdp.log) == len(requests)
    # 20 distinct requests; each resolved exactly once
    assert batched.decision_cache.stats.misses == 20

    report(
        "E15 — batched decision serving",
        f"{'mode':>8} {'requests':>9} {'seconds':>9} {'decisions/s':>12}",
        f"{'serial':>8} {len(requests):>9} {serial_s:>9.3f} "
        f"{len(requests) / serial_s:>12.0f}",
        f"{'batched':>8} {len(requests):>9} {batch_s:>9.3f} "
        f"{len(requests) / batch_s:>12.0f}",
        f"unique requests resolved: {batched.decision_cache.stats.misses} of "
        f"{len(requests)}",
    )

    benchmark.pedantic(
        lambda: PolicyEngine(repository, interpreter).decide_many(requests),
        rounds=3,
        iterations=1,
    )


def test_invalidation_end_to_end(report):
    """A policy update mid-stream must flip served decisions immediately."""
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    interpreter = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    engine = PolicyEngine(repository, interpreter)
    req = Request({"subject": {"id": "alice"}, "action": {"id": "read"}})

    before = [engine.decide(req).decision for _ in range(50)]
    repository.add(StoredPolicy(("deny", "alice", "read")))  # PAdaP update
    after = [engine.decide(req).decision for _ in range(50)]

    assert set(before) == {Decision.PERMIT}
    assert set(after) == {Decision.DENY}
    report(
        "E15 — generation-counter invalidation",
        f"50 cached permits, policy update, 50 denies; "
        f"decision cache misses={engine.decision_cache.stats.misses} "
        f"hits={engine.decision_cache.stats.hits}",
    )


def test_indexed_vs_linear_decisions(report):
    """500 field policies, 5,000 requests: the index against a full scan."""
    rng = random.Random(15)
    subjects = [f"user{i}" for i in range(30)]
    actions = ("read", "write", "delete", "audit")
    types = ("db", "doc", "log", "key", "vm", "bucket")
    combos = [(s, a, t) for s in subjects for a in actions for t in types]
    repository = PolicyRepository()
    for combo in rng.sample(combos, 500):
        effect = "allow" if rng.random() < 0.8 else "deny"
        repository.add(StoredPolicy((effect,) + combo))
    interpreter = FieldInterpreter(
        {1: ("subject", "id"), 2: ("action", "id"), 3: ("resource", "type")}
    )
    compiled = PolicyDecisionPoint(repository, interpreter).compiled()
    pairs = compiled.policies
    requests = [
        Request(
            {
                "subject": {"id": rng.choice(subjects + ["guest"])},
                "action": {"id": rng.choice(actions)},
                "resource": {"type": rng.choice(types), "id": f"r{rng.randrange(9)}"},
            }
        )
        for __ in range(5000)
    ]

    start = time.perf_counter()
    linear = [linear_evaluate(pairs, request) for request in requests]
    linear_s = time.perf_counter() - start
    start = time.perf_counter()
    indexed = [evaluate_compiled(compiled, request) for request in requests]
    indexed_s = time.perf_counter() - start

    assert indexed == linear
    permits = sum(decision is Decision.PERMIT for decision, __ in indexed)
    assert 0 < permits < len(requests)
    speedup = linear_s / indexed_s
    report(
        "E15 — indexed vs linear decisions (500 policies)",
        f"{'path':>8} {'requests':>9} {'seconds':>9} {'us/decision':>12}",
        f"{'linear':>8} {len(requests):>9} {linear_s:>9.3f} "
        f"{1e6 * linear_s / len(requests):>12.1f}",
        f"{'indexed':>8} {len(requests):>9} {indexed_s:>9.3f} "
        f"{1e6 * indexed_s / len(requests):>12.1f}",
        f"speedup: {speedup:.1f}x   permits: {permits} of {len(requests)}",
    )
    assert speedup >= 3.0, f"index speedup {speedup:.1f}x below the 3x bar"
