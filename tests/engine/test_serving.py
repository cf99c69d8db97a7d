"""PolicyEngine decision serving: caching, batching, invalidation."""

import pytest

from repro.agenp.interpreters import FieldInterpreter
from repro.agenp.pdp import PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import ContextRepository, PolicyRepository, StoredPolicy
from repro.asp.parser import parse_program
from repro.core.contexts import Context
from repro.engine import PolicyEngine
from repro.policy.conflicts import priority_based
from repro.policy.model import Decision, Request
from repro.runtime.budget import Budget
from repro.telemetry import Tracer, tracer_scope


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


def test_context_change_invalidates_decisions():
    contexts = ContextRepository()
    contexts.store(Context.empty("base"))
    contexts.store(Context.empty("field"))
    contexts.set_current("base")
    engine, __ = make_engine(contexts=contexts)
    engine.decide(request())
    assert engine.decision_cache.stats.misses == 1
    engine.decide(request())
    assert engine.decision_cache.stats.hits == 1
    contexts.set_current("field")
    engine.decide(request())  # repository generation moved: cache purged
    assert engine.decision_cache.stats.misses == 2


def test_distinct_contexts_are_distinct_keys():
    engine, __ = make_engine()
    ctx_a = Context.empty("a")
    engine.decide(request(), ctx_a)
    engine.decide(request(), ctx_a)
    assert engine.decision_cache.stats.hits == 1
    # a context with different content misses even at the same generation
    ctx_b = Context(parse_program("weekday. daytime."), name="b")
    engine.decide(request(), ctx_b)
    assert engine.decision_cache.stats.misses == 2
    # contexts that compare equal share one entry: fact order and
    # repeated facts do not change the key
    assert Context(parse_program("daytime. weekday. daytime."), name="c") == ctx_b
    engine.decide(request(), Context(parse_program("daytime. weekday. daytime."), name="c"))
    assert engine.decision_cache.stats.hits == 2
    assert len(engine.decision_cache) == 2
    # a fact added to a context's program after a decision is a new key
    ctx_b.program.add(parse_program("holiday.").rules[0])
    engine.decide(request(), ctx_b)
    assert engine.decision_cache.stats.misses == 3


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


def test_decide_many_matches_decide():
    engine_a, __ = make_engine()
    engine_b, __ = make_engine()
    batch = [request(s, a) for s in ("alice", "bob", "eve") for a in ("read", "write")]
    singles = [engine_a.decide(r).decision for r in batch]
    batched = [r.decision for r in engine_b.decide_many(batch)]
    assert singles == batched


def test_decide_many_with_workers():
    engine, __ = make_engine()
    batch = [request(f"user{i % 9}", "read") for i in range(36)]
    records = engine.decide_many(batch, workers=2)
    assert len(records) == 36
    expected = {
        "alice": Decision.PERMIT,
    }
    for req, record in zip(batch, records):
        want = expected.get(req.get("subject", "id"), Decision.DENY)
        assert record.decision == want
    # warm repeat: served from cache entirely
    engine.decide_many(batch, workers=2)
    assert engine.decision_cache.stats.misses == 9


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


def test_unpicklable_strategy_never_starts_a_pool(monkeypatch):
    import concurrent.futures

    started = []

    def recording_pool(*args, **kwargs):
        started.append(args)
        raise OSError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    strategy = priority_based({})
    batch = [request(f"user{i % 9}", "read") for i in range(36)] + [request()]
    pooled, __ = make_engine(strategy=strategy)
    serial, __ = make_engine(strategy=strategy)
    pooled_records = pooled.decide_many(batch, workers=2)
    serial_records = serial.decide_many(batch)
    assert [(r.decision, r.policy_text) for r in pooled_records] == [
        (r.decision, r.policy_text) for r in serial_records
    ]
    assert not started and pooled.stats().pool_failures == 0


def test_a_failing_pool_is_counted(monkeypatch):
    import concurrent.futures

    def broken_pool(*args, **kwargs):
        raise OSError("no processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
    engine, __ = make_engine()
    batch = [request(f"user{i % 9}", "read") for i in range(36)]
    with tracer_scope(Tracer()) as tracer:
        records = engine.decide_many(batch, workers=2)
    assert [r.decision for r in records] == [Decision.DENY] * 36
    assert engine.stats().pool_failures == 1
    assert engine.stats().as_dict()["pool_failures"] == 1
    assert tracer.metrics.counters["engine.pool_failures"] == 1


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
    snapshot = engine.stats()
    assert list(snapshot.caches) == ["decision"]
    assert snapshot.caches["decision"]["hits"] == 1
    assert snapshot.caches["decision"]["misses"] == 1
    assert snapshot.decisions == 2
    assert "decision" in repr(snapshot)
    assert snapshot.as_dict()["decisions"] == 2
