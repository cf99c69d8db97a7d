"""The PDP's indexed decision function against a linear scan.

``linear_evaluate`` below is the reference: it matches every policy of
the set in order, as the PDP did before its policy set was indexed.
Seeded random policy sets and requests must give the same hits (the
same policy, rule and decision objects, in the same order) and the same
``(decision, policy_text)`` through :func:`evaluate_compiled`, the
PDP's own and degraded paths, and the serving engine.
"""

import random

import pytest

from repro.agenp.interpreters import FieldInterpreter
from repro.agenp.pdp import CompiledPolicySet, PolicyDecisionPoint, evaluate_compiled
from repro.agenp.repositories import ContextRepository, PolicyRepository, StoredPolicy
from repro.core.contexts import Context
from repro.engine import PolicyEngine
from repro.errors import BudgetExceededError
from repro.policy.conflicts import (
    deny_overrides,
    first_applicable,
    permit_overrides,
    priority_based,
)
from repro.policy.evaluation import applicable_rules
from repro.policy.model import Decision, Effect, Request
from repro.policy.xacml import Match, Policy, Target, XacmlRule


def linear_hits(pairs, request):
    """Every (stored, policy, rule, decision) hit, scanning all policies."""
    return [
        (stored, policy, rule, decision)
        for stored, policy in pairs
        for rule, decision in applicable_rules(policy, request)
    ]


def linear_evaluate(pairs, request, strategy=deny_overrides, default_decision=Decision.DENY):
    """The reference decision function: a scan over every policy."""
    hits = linear_hits(pairs, request)
    if not hits:
        return default_decision, ""
    decision = strategy([(p, r, d) for __, p, r, d in hits])
    winning = [stored.text for stored, __, __r, d in hits if d == decision]
    return decision, winning[0] if winning else hits[0][0].text


# -- seeded random policy sets and requests ------------------------------------

ATTRIBUTES = {
    ("subject", "id"): ["alice", "bob", "carol"],
    ("subject", "level"): [0, 1, 2, True, False, "1"],
    ("action", "id"): ["read", "write"],
    ("resource", "type"): ["db", "doc", "log"],
    ("environment", "alert"): [True, False, 1, 0],
}
KEYS = sorted(ATTRIBUTES)


def random_match(rng):
    category, attribute = rng.choice(KEYS)
    pool = ATTRIBUTES[(category, attribute)]
    op = rng.choice(["eq", "eq", "eq", "eq", "neq", "lt", "in"])
    if op == "in":
        return Match(category, attribute, "in", rng.sample(pool, 2))
    if op == "lt":
        return Match(category, attribute, "lt", rng.choice([1, 2, "c"]))
    if rng.random() < 0.05:
        # a float match value: not indexable, so the policy is residual
        return Match(category, attribute, "eq", 1.0)
    return Match(category, attribute, op, rng.choice(pool))


def random_target(rng, least, most):
    return Target([random_match(rng) for __ in range(rng.randint(least, most))])


def random_policy(rng, index):
    rules = [
        XacmlRule(
            f"r{r}",
            rng.choice([Effect.PERMIT, Effect.DENY]),
            random_target(rng, 1, 3),
            random_target(rng, 0, 1),
        )
        for r in range(rng.choice([1, 1, 1, 2, 3]))
    ]
    return Policy(
        f"p{index}",
        rules,
        target=random_target(rng, 0, 2),
        combining=rng.choice(Policy.COMBINING_ALGORITHMS),
    )


WILDCARD = FieldInterpreter(
    {1: ("subject", "id"), 2: ("action", "id"), 3: ("resource", "type")}
)


def random_field_policy(rng):
    tokens = [rng.choice(["allow", "deny"])]
    for key in (("subject", "id"), ("action", "id"), ("resource", "type")):
        tokens.append(rng.choice(ATTRIBUTES[key] + ["any"]))
    return tuple(tokens), WILDCARD(tokens)


def random_policy_set(rng, size):
    """(stored, policy) pairs mixing random XACML and wildcard field policies."""
    pairs = []
    for index in range(size):
        if rng.random() < 0.3:
            tokens, policy = random_field_policy(rng)
            tokens += (f"#{index}",)
        else:
            tokens, policy = (f"policy{index}",), random_policy(rng, index)
        pairs.append((StoredPolicy(tokens), policy))
    return pairs


def random_request(rng, unhashable=False):
    attributes = {}
    for category, attribute in KEYS:
        if rng.random() < 0.8:
            value = rng.choice(ATTRIBUTES[(category, attribute)])
            attributes.setdefault(category, {})[attribute] = value
    if unhashable and attributes:
        category = rng.choice(sorted(attributes))
        attribute = rng.choice(sorted(attributes[category]))
        attributes[category][attribute] = [attributes[category][attribute]]
    return Request(attributes)


def strategies(rng, pairs):
    priorities = {policy.policy_id: rng.randint(0, 3) for __, policy in pairs}
    return {
        "deny_overrides": deny_overrides,
        "permit_overrides": permit_overrides,
        "first_applicable": first_applicable,
        "priority_based": priority_based(priorities),
    }


def recording(strategy, seen):
    """``strategy``, also recording the hits it is given."""

    def record(hits):
        seen.append(list(hits))
        return strategy(hits)

    return record


def identities(hits):
    return [(id(policy), id(rule), decision) for policy, rule, decision in hits]


SEEDS = range(8)


# -- evaluate_compiled ----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_index_matches_linear_scan(seed):
    rng = random.Random(seed)
    pairs = random_policy_set(rng, 60)
    compiled = CompiledPolicySet(pairs)
    named = strategies(rng, pairs)
    for index in range(150):
        request = random_request(rng, unhashable=index % 25 == 0)
        linear = linear_hits(pairs, request)
        for name, strategy in named.items():
            seen = []
            got = evaluate_compiled(compiled, request, recording(strategy, seen))
            assert got == linear_evaluate(pairs, request, strategy), (name, request)
            expected = [(p, r, d) for __, p, r, d in linear]
            assert identities(seen[0] if seen else []) == identities(expected)


def test_random_sets_exercise_every_path():
    """The generator reaches several shapes, the residual list, multi-rule
    policies and decisions of every kind (so the test above is not vacuous)."""
    rng = random.Random(0)
    pairs = random_policy_set(rng, 60)
    compiled = CompiledPolicySet(pairs)
    assert len(compiled.shapes) > 3
    assert compiled.residual
    assert any(len(policy.rules) > 1 for __, policy in pairs)
    assert any(policy.target.matches for __, policy in pairs)
    decisions = {
        evaluate_compiled(
            compiled, random_request(rng), first_applicable, Decision.NOT_APPLICABLE
        )[0]
        for __ in range(200)
    }
    assert decisions == {Decision.PERMIT, Decision.DENY, Decision.NOT_APPLICABLE}


def test_index_prunes_to_the_applicable_policies():
    rng = random.Random(3)
    pairs = []
    for index in range(200):
        tokens = ("allow",) + tuple(
            rng.choice(ATTRIBUTES[key])
            for key in (("subject", "id"), ("action", "id"), ("resource", "type"))
        )
        pairs.append((StoredPolicy(tokens + (str(index),)), WILDCARD(tokens)))
    compiled = CompiledPolicySet(pairs)
    assert len(compiled.shapes) == 1 and not compiled.residual
    for __ in range(50):
        request = random_request(rng)
        applicable = [
            position
            for position, (__, policy) in enumerate(pairs)
            if applicable_rules(policy, request)
        ]
        assert list(compiled.candidates(request)) == applicable


def _single(target_value, condition=()):
    rule = XacmlRule(
        "r0", Effect.PERMIT, Target([Match("subject", "level", "eq", target_value)]),
        Target(condition),
    )
    return Policy(f"level_{target_value!r}", [rule])


@pytest.mark.parametrize(
    "policy_value, request_value, applies",
    [(True, 1, True), (1, True, True), (0, False, True), (1, "1", False), ("1", 1, False)],
)
def test_bool_int_and_str_values(policy_value, request_value, applies):
    pairs = [(StoredPolicy(("p",)), _single(policy_value))]
    request = Request({"subject": {"level": request_value}})
    expected = (Decision.PERMIT, "p") if applies else (Decision.DENY, "")
    assert linear_evaluate(pairs, request) == expected
    assert evaluate_compiled(CompiledPolicySet(pairs), request) == expected


def test_missing_attribute_and_unhashable_value():
    condition = [Match("action", "id", "eq", "read")]
    pairs = [
        (StoredPolicy(("p",)), _single(1, condition)),
        (StoredPolicy(("q",)), _single(2)),
    ]
    compiled = CompiledPolicySet(pairs)
    missing = Request({"subject": {"level": 1}})
    assert compiled.candidates(missing) == []
    assert evaluate_compiled(compiled, missing) == linear_evaluate(pairs, missing)
    unhashable = Request({"subject": {"level": [1]}, "action": {"id": "read"}})
    assert list(compiled.candidates(unhashable)) == [0, 1]
    assert evaluate_compiled(compiled, unhashable) == (Decision.DENY, "")


# -- the PDP, its degraded path and the serving engine -------------------------


def _repository(pairs):
    repository = PolicyRepository()
    for stored, __ in pairs:
        repository.add(stored)
    table = {stored.tokens: policy for stored, policy in pairs}
    return repository, table


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_pdp_decides_like_linear_scan(seed):
    rng = random.Random(100 + seed)
    pairs = random_policy_set(rng, 50)
    repository, table = _repository(pairs)
    for name, strategy in strategies(rng, pairs).items():
        pdp = PolicyDecisionPoint(repository, table.__getitem__, strategy=strategy)
        for __ in range(60):
            request = random_request(rng)
            record = pdp.decide(request)
            expected = linear_evaluate(pairs, request, strategy)
            assert (record.decision, record.policy_text) == expected, name
            assert not record.degraded
        assert pdp._last_good is pdp.compiled()


def test_degraded_path_uses_last_good_set():
    rng = random.Random(7)
    pairs = random_policy_set(rng, 50)
    repository, table = _repository(pairs)
    broken = {"on": False}

    def interpreter(tokens):
        if broken["on"]:
            raise BudgetExceededError("interpretation over budget")
        return table[tokens]

    pdp = PolicyDecisionPoint(repository, interpreter, strategy=permit_overrides)
    pdp.decide(random_request(rng))
    good = pdp.compiled()
    broken["on"] = True
    repository.add(StoredPolicy(("deny", "alice", "read", "db")))
    for __ in range(80):
        request = random_request(rng)
        record = pdp.decide(request)
        assert record.degraded
        assert "last-known-good" in record.note
        assert pdp._last_good is good
        expected = linear_evaluate(pairs, request, permit_overrides)
        assert (record.decision, record.policy_text) == expected


def test_decide_many_matches_linear_scan():
    rng = random.Random(11)
    pairs = random_policy_set(rng, 50)
    repository, table = _repository(pairs)
    engine = PolicyEngine(repository, table.__getitem__)
    requests = [random_request(rng) for __ in range(120)]
    records = engine.decide_many(requests)
    assert [(r.decision, r.policy_text) for r in records] == [
        linear_evaluate(pairs, request) for request in requests
    ]


def _outcome(record):
    return record.decision, record.policy_text, record.degraded


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_engine_decides_like_a_fresh_pdp(seed):
    """Interleaved ``decide``, ``decide_many``, policy writes and context
    switches: every engine record matches a PDP compiled from scratch,
    and a context switch with no policy change keeps the cache."""
    rng = random.Random(200 + seed)
    pairs = random_policy_set(rng, 60)
    table = {stored.tokens: policy for stored, policy in pairs}
    repository = PolicyRepository()
    for stored, __ in pairs[:30]:
        repository.add(stored)
    contexts = ContextRepository()
    contexts.store(Context.empty("quiet"))
    contexts.store(Context.from_attributes({"alert": True}, name="alert"))
    contexts.set_current("quiet")
    engine = PolicyEngine(repository, table.__getitem__, contexts=contexts)
    stats = engine.decision_cache.stats
    pool = [random_request(rng, unhashable=index % 10 == 0) for index in range(25)]
    hashable = [request for index, request in enumerate(pool) if index % 10]

    def check(records, requests):
        fresh = PolicyDecisionPoint(repository, table.__getitem__)
        assert len(records) == len(requests)
        for record, request in zip(records, requests):
            assert record.request is request
            assert record.context == contexts.current()
            assert _outcome(record) == _outcome(fresh.decide(request))

    switches = 0
    for __ in range(150):
        roll = rng.random()
        if roll < 0.35:
            request = rng.choice(pool)
            check([engine.decide(request)], [request])
        elif roll < 0.6:
            batch = rng.choices(pool, k=rng.randint(0, 8))
            check(engine.decide_many(batch), batch)
        elif roll < 0.7:
            repository.add(rng.choice(pairs)[0])
        elif roll < 0.8 and len(repository):
            repository.remove(rng.choice(repository.all()))
        else:
            request = rng.choice(hashable)
            engine.decide(request)
            hits, misses = stats.hits, stats.misses
            other = "alert" if contexts.current().name == "quiet" else "quiet"
            contexts.set_current(other)
            switches += 1
            record = engine.decide(request)
            assert (stats.hits, stats.misses) == (hits + 1, misses)
            check([record], [request])
    assert switches and stats.hits and stats.misses and stats.evictions
