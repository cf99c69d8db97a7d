"""PolicyEngine decision serving: caching, batching, invalidation."""

import pytest

from repro.agenp.interpreters import FieldInterpreter
from repro.agenp.pdp import PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import PolicyRepository, StoredPolicy
from repro.engine import PolicyEngine
from repro.errors import BudgetExceededError
from repro.policy.model import Decision, Request
from repro.runtime.budget import Budget


def make_engine(**kwargs):
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    repository.add(StoredPolicy(("deny", "bob", "write")))
    interpreter = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    return PolicyEngine(repository, interpreter, **kwargs), repository


def request(subject="alice", action="read"):
    return Request({"subject": {"id": subject}, "action": {"id": action}})


def test_decide_matches_pdp_and_caches():
    engine, repository = make_engine()
    reference = PolicyDecisionPoint(
        repository, FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    )
    for req in [request(), request("bob", "write"), request("eve", "ls")]:
        assert engine.decide(req).decision == reference.decide(req).decision
    assert engine.decision_cache.stats.misses == 3
    for req in [request(), request("bob", "write")]:
        engine.decide(req)
    assert engine.decision_cache.stats.hits == 2


def test_every_decide_logs_a_record():
    engine, __ = make_engine()
    engine.decide(request())
    engine.decide(request())
    records = engine.pdp.log.records()
    assert len(records) == 2
    assert records[0].record_id != records[1].record_id
    assert records[0].decision == records[1].decision == Decision.PERMIT


def test_policy_update_invalidates_decisions():
    engine, repository = make_engine()
    assert engine.decide(request()).decision == Decision.PERMIT
    repository.add(StoredPolicy(("deny", "alice", "read")))
    # deny-overrides: the new policy must win immediately, not the cache
    assert engine.decide(request()).decision == Decision.DENY
    repository.remove(StoredPolicy(("deny", "alice", "read")))
    assert engine.decide(request()).decision == Decision.PERMIT


def test_degraded_decisions_are_not_cached():
    from repro.asp import solve_text

    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    inner = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    hard = " ".join("{ a%d }." % i for i in range(14))

    def solver_backed(tokens):
        solve_text(hard)  # blows the small per-decision budget below
        return inner(tokens)

    engine = PolicyEngine(
        repository, solver_backed, budget_factory=lambda: Budget(max_steps=500)
    )
    record = engine.decide(request())
    assert record.degraded
    assert len(engine.decision_cache) == 0


def test_decide_many_groups_duplicates():
    engine, __ = make_engine()
    batch = [request()] * 5 + [request("bob", "write")] * 3 + [request()] * 2
    records = engine.decide_many(batch)
    assert [r.decision for r in records] == (
        [Decision.PERMIT] * 5 + [Decision.DENY] * 3 + [Decision.PERMIT] * 2
    )
    # only two unique requests were actually resolved
    assert engine.decision_cache.stats.misses == 2
    assert len(engine.pdp.log) == len(batch)
    # a warm repeat of the same batch is all hits
    engine.decide_many(batch)
    assert engine.decision_cache.stats.misses == 2


def test_decide_many_degrades_like_decide():
    """A resource error while the PDP recompiles degrades every batched
    decision to the last-known-good set, exactly as ``decide`` does, and
    each failure reaches the PDP's breaker."""
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    repository.add(StoredPolicy(("deny", "bob", "write")))
    inner = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    broken = {"on": False}

    def interpreter(tokens):
        if broken["on"]:
            raise BudgetExceededError("interpretation over budget")
        return inner(tokens)

    batched = PolicyEngine(repository, interpreter)
    single = PolicyEngine(repository, interpreter)
    assert not batched.decide(request()).degraded
    assert not single.decide(request()).degraded
    broken["on"] = True
    repository.add(StoredPolicy(("deny", "alice", "read")))
    batch = [request(), request("bob", "write"), request("eve", "ls"), request()]
    records = batched.decide_many(batch)
    singles = [single.decide(r) for r in batch]
    assert [(r.decision, r.policy_text, r.degraded, r.note) for r in records] == [
        (r.decision, r.policy_text, r.degraded, r.note) for r in singles
    ]
    # the last-known-good set predates the new deny
    assert [r.decision for r in records] == [
        Decision.PERMIT, Decision.DENY, Decision.DENY, Decision.PERMIT
    ]
    assert all(r.degraded and "last-known-good" in r.note for r in records)
    failures = batched.pdp.breaker.total_failures
    assert failures == single.pdp.breaker.total_failures > 0
    assert len(batched.decision_cache) == 0


def test_decide_many_matches_decide():
    engine_a, __ = make_engine()
    engine_b, __ = make_engine()
    batch = [request(s, a) for s in ("alice", "bob", "eve") for a in ("read", "write")]
    singles = [engine_a.decide(r).decision for r in batch]
    batched = [r.decision for r in engine_b.decide_many(batch)]
    assert singles == batched


def test_unhashable_request_gets_the_pdp_answer():
    engine, repository = make_engine()
    reference = PolicyDecisionPoint(
        repository, FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    )
    listed = Request({"subject": {"id": ["alice"]}, "action": {"id": "read"}})
    expected = reference.decide(listed).decision
    assert engine.decide(listed).decision == expected
    batch = [request(), listed, request()]
    records = engine.decide_many(batch)
    assert [r.decision for r in records] == [Decision.PERMIT, expected, Decision.PERMIT]
    assert records[1].request is listed
    # every request is still logged; the unhashable ones bypass the cache
    assert len(engine.pdp.log.records()) == 4
    assert len(engine.decision_cache) == 1


def test_decide_without_pdp_raises():
    with pytest.raises(ValueError, match="needs a decision path"):
        PolicyEngine()
    with pytest.raises(ValueError, match="needs a decision path"):
        PolicyEngine(PolicyRepository())


def test_evaluate_compiled_matches_pdp_resolution():
    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice", "read")))
    repository.add(StoredPolicy(("deny", "alice", "read")))
    interpreter = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
    pdp = PolicyDecisionPoint(repository, interpreter)
    decision, text = evaluate_compiled(pdp.compiled(), request())
    record = pdp.decide(request())
    assert decision == record.decision == Decision.DENY
    assert text == record.policy_text


def test_invalidate_clears_everything():
    engine, __ = make_engine()
    engine.decide(request())
    engine.invalidate()
    assert len(engine.decision_cache) == 0
    engine.decide(request())
    assert engine.decision_cache.stats.misses == 2


def test_stats_snapshot():
    engine, __ = make_engine()
    engine.decide(request())
    engine.decide(request())
    stats = engine.decision_cache.stats
    assert engine.decision_cache.name == "decision"
    assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
    assert stats.as_dict()["hit_rate"] == 0.5
    assert "hits=1 misses=1" in repr(stats)
