"""E15 — the serving engine: batched decisions, invalidation and the index.

:class:`~repro.engine.PolicyEngine` serves PDP decisions through a
decision cache.  The contract under test:

* batched decision serving (``decide_many``) resolves each distinct
  request once while still logging one monitoring record per request;
* a policy update mid-stream flips served decisions immediately (the
  policy generation counter purges the decision cache);
* the PDP's indexed decision function (``evaluate_compiled``) answers a
  500-policy set element-for-element like a scan over every policy, at
  **>= 3x** its speed per decision.

Decision-cache hit/miss/eviction counters land in the BENCH_e15
artifacts via the module telemetry session.
"""

import random
import time

from repro.agenp.interpreters import FieldInterpreter
from repro.agenp.pdp import PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import PolicyRepository, StoredPolicy
from repro.engine import PolicyEngine
from repro.policy.model import Decision, Request
from tests.agenp.test_pdp_index import linear_evaluate


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

    serial = PolicyDecisionPoint(repository, interpreter)
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
        "E15 — policy-generation invalidation",
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
