"""The blessed top-level API surface."""

import pytest

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_blessed_surface():
    # the serving loop's entry points are all one import away
    assert {
        "PolicyEngine",
        "solve_text",
        "parse_asg",
        "lint_paths",
        "Budget",
        "tracer_scope",
    } <= set(repro.__all__)


def test_facade_solve_text():
    result = repro.solve_text("a :- not b. b :- not a.")
    assert len(result) == 2
    assert result.stats.models == 2  # SolveResult, not a bare list


def test_facade_lint_paths(tmp_path):
    good = tmp_path / "good.lp"
    good.write_text("p(1). q(X) :- p(X).\n")
    diagnostics = repro.lint_paths([good])
    assert all(not d.is_error for d in diagnostics)
    missing = repro.lint_paths([tmp_path / "nope.lp"])
    assert len(missing) == 1 and missing[0].code == "SYN001"


def test_facade_engine_roundtrip():
    from repro.agenp import FieldInterpreter, PolicyRepository, StoredPolicy
    from repro.policy import Decision, Request

    repository = PolicyRepository()
    repository.add(StoredPolicy(("allow", "alice")))
    engine = repro.PolicyEngine(repository, FieldInterpreter({1: ("subject", "id")}))
    request = Request({"subject": {"id": "alice"}})
    first = engine.decide(request)
    second = engine.decide(request)
    assert first.decision == second.decision == Decision.PERMIT
    assert engine.decision_cache.stats.hits == 1


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_name

