"""Unit tests for individual AGENP components."""

import pytest

from repro.agenp import (
    CASWiki,
    FieldInterpreter,
    MonitoringLog,
    PolicyBasedManagementSystem,
    PolicyInformationPoint,
    PolicyRepository,
    RepresentationsRepository,
    ContextRepository,
    StoredPolicy,
)
from repro.agenp.monitoring import DecisionRecord
from repro.agenp.pep import ManagedResource, PolicyEnforcementPoint
from repro.core import Context, GenerativePolicyModel
from repro.errors import AgenpError
from repro.policy import Decision, Effect, Request


class TestRepositories:
    def test_policy_repo_replace(self):
        repo = PolicyRepository()
        repo.replace([StoredPolicy(("a",)), StoredPolicy(("b",))])
        assert len(repo) == 2
        repo.replace([StoredPolicy(("c",))])
        assert [p.text for p in repo] == ["c"]

    def test_policy_repo_dedup_on_add(self):
        repo = PolicyRepository()
        repo.add(StoredPolicy(("a",)))
        repo.add(StoredPolicy(("a",)))
        assert len(repo) == 1

    def test_policy_repo_by_source(self):
        repo = PolicyRepository()
        repo.add(StoredPolicy(("a",), source="local"))
        repo.add(StoredPolicy(("b",), source="shared:x"))
        assert [p.text for p in repo.by_source("local")] == ["a"]

    def test_representations_versioning(self):
        from repro.asg import parse_asg

        repo = RepresentationsRepository()
        with pytest.raises(AgenpError):
            repo.latest()
        model = GenerativePolicyModel(parse_asg('s -> "x"'))
        repo.store(model)
        repo.store(model.with_hypothesis([]))
        assert repo.latest().version == 1
        assert len(repo.history()) == 2

    def test_context_repo_requires_names(self):
        repo = ContextRepository()
        with pytest.raises(AgenpError):
            repo.store(Context.empty())
        repo.store(Context.from_attributes({"x": 1}, name="day"))
        repo.set_current("day")
        assert repo.current().name == "day"

    def test_context_repo_unknown_name(self):
        repo = ContextRepository()
        with pytest.raises(AgenpError):
            repo.set_current("nope")
        assert repo.current().name == "default"


class TestMonitoring:
    def _record(self):
        request = Request({"subject": {"id": "alice"}})
        return DecisionRecord(request, Decision.PERMIT, "allow alice read", Context.empty())

    def test_feedback_cycle(self):
        log = MonitoringLog()
        record = log.append(self._record())
        assert log.unreviewed() == [record]
        log.mark_outcome(record.record_id, ok=False)
        assert log.violations() == [record]
        assert log.confirmations() == []

    def test_unknown_record_id(self):
        log = MonitoringLog()
        with pytest.raises(KeyError):
            log.mark_outcome(424242, ok=True)

    def test_duplicate_record_id_marks_first_appended(self):
        log = MonitoringLog()
        first = log.append(self._record())
        second = self._record()
        second.record_id = first.record_id
        log.append(second)
        log.mark_outcome(first.record_id, ok=False)
        assert first.outcome_ok is False
        assert second.outcome_ok is None
        assert log.violations() == [first]

    def test_mark_after_clear_raises(self):
        log = MonitoringLog()
        record = log.append(self._record())
        log.clear()
        with pytest.raises(KeyError):
            log.mark_outcome(record.record_id, ok=True)
        assert record.outcome_ok is None
        fresh = log.append(self._record())
        assert fresh.record_id != record.record_id
        log.mark_outcome(fresh.record_id, ok=True)
        assert log.confirmations() == [fresh]


class TestPEP:
    def test_permit_performs_action(self):
        pep = PolicyEnforcementPoint(ManagedResource("robot"))
        request = Request({"subject": {"id": "a"}})
        record = DecisionRecord(request, Decision.PERMIT, "p", Context.empty())
        result = pep.enforce(record, "advance")
        assert result.executed
        assert pep.resource.performed == ["advance"]
        assert record.enforced

    def test_deny_blocks_action(self):
        pep = PolicyEnforcementPoint()
        request = Request({"subject": {"id": "a"}})
        record = DecisionRecord(request, Decision.DENY, "p", Context.empty())
        result = pep.enforce(record, "advance")
        assert not result.executed
        assert pep.resource.blocked == ["advance"]


class TestPIP:
    def test_acquire_merges_providers(self):
        pip = PolicyInformationPoint()
        pip.register("weather", lambda: Context.from_attributes({"weather": "rain"}))
        pip.register("threat", lambda: Context.from_attributes({"threat": "low"}))
        merged = pip.acquire(Context.from_attributes({"local": 1}, name="base"))
        assert len(merged) == 3

    def test_provider_failure_isolated(self):
        pip = PolicyInformationPoint()

        def broken():
            raise ConnectionError("link down")

        pip.register("sat", broken)
        pip.register("ok", lambda: Context.from_attributes({"x": 1}))
        merged = pip.acquire()
        assert len(merged) == 1
        assert pip.failures and pip.failures[0][0] == "sat"


class TestInterpreter:
    def test_allow_maps_to_permit(self):
        interp = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
        policy = interp(("allow", "alice", "read"))
        assert policy.rules[0].effect is Effect.PERMIT
        assert len(policy.rules[0].target.matches) == 2

    def test_other_effect_token_maps_to_deny(self):
        interp = FieldInterpreter({1: ("subject", "id")})
        policy = interp(("deny", "alice"))
        assert policy.rules[0].effect is Effect.DENY

    def test_wildcard_skips_match(self):
        interp = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
        policy = interp(("allow", "any", "read"))
        assert len(policy.rules[0].target.matches) == 1

    def test_short_string_rejected(self):
        interp = FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")})
        with pytest.raises(AgenpError):
            interp(("allow",))


class TestPBMS:
    def test_publish_and_fetch(self):
        from repro.agenp import PolicySpecification

        pbms = PolicyBasedManagementSystem()
        spec = PolicySpecification('s -> "x"')
        pbms.publish("cav", spec)
        assert pbms.specification("cav") is spec
        with pytest.raises(AgenpError):
            pbms.specification("nope")

    def test_global_constraints_refine_initial_asg(self):
        from repro.agenp import PolicySpecification
        from repro.asg import accepts

        spec = PolicySpecification(
            's -> "go"\ns -> "stop"',
            global_constraints=":- not allowed. allowed :- stop_ok.",
        )
        asg = spec.initial_asg()
        # neither string valid: the global constraint requires stop_ok,
        # which no production provides
        assert not accepts(asg, ("go",))


class TestCASWiki:
    def test_contribute_and_retrieve(self):
        wiki = CASWiki()
        wiki.contribute("a1", ("allow", "x"), "ctx")
        wiki.contribute("a2", ("deny", "x"), "other")
        assert len(wiki.retrieve()) == 2
        assert len(wiki.retrieve(context_name="ctx")) == 1
        assert len(wiki.retrieve(exclude_agent="a1")) == 1

    def test_trust_updates_on_rating(self):
        wiki = CASWiki(initial_trust=0.5, trust_alpha=0.5)
        contribution = wiki.contribute("a1", ("allow", "x"))
        assert wiki.trust("a1") == 0.5
        wiki.rate(contribution, useful=True)
        assert wiki.trust("a1") == 0.75
        wiki.rate(contribution, useful=False)
        assert wiki.trust("a1") == 0.375

    def test_min_trust_filters(self):
        wiki = CASWiki(initial_trust=0.5)
        contribution = wiki.contribute("sketchy", ("allow", "x"))
        wiki.rate(contribution, useful=False)
        assert wiki.retrieve(min_trust=0.5) == []

    def test_rate_unknown_contribution(self):
        from repro.agenp.caswiki import Contribution

        wiki = CASWiki()
        rogue = Contribution("x", StoredPolicy(("a",)), "")
        with pytest.raises(AgenpError):
            wiki.rate(rogue, True)
