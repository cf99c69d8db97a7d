"""PCP violation detection: recorded negatives and undecidable membership."""

import itertools
import random

from repro.agenp import (
    AutonomousManagedSystem,
    CASWiki,
    FieldInterpreter,
    PolicyCheckingPoint,
    PolicySpecification,
    StoredPolicy,
)
from repro.core import Context, GenerativePolicyModel, LabeledExample
from repro.asg import parse_asg

from tests.agenp.conftest import GRAMMAR

NEGATIVE = "matches a recorded negative example"


def test_many_recorded_negatives_reject_exactly_their_pairs():
    rng = random.Random(3)
    policies = [
        ("allow", s, a) for s in ("alice", "bob", "carol") for a in ("read", "write")
    ]
    attributes = [
        {},
        {"emergency": True},
        {"level": 3},
        {"level": 2},
        {"level": 3, "emergency": True},
    ]
    contexts = [
        Context.from_attributes(a, name=str(i)) for i, a in enumerate(attributes)
    ]
    pcp = PolicyCheckingPoint()
    recorded = []
    for __ in range(40):
        tokens = rng.choice(policies)
        # equal contexts built separately match each other
        context = Context.from_attributes(rng.choice(attributes), name="recorded")
        example = LabeledExample(tokens, context, valid=rng.random() < 0.3)
        pcp.record_violation(example)
        recorded.append(example)
    model = GenerativePolicyModel(parse_asg(GRAMMAR))
    rejected = set()
    for tokens, context in itertools.product(policies, contexts):
        outcome = pcp.check_policy(StoredPolicy(tokens), model, context)
        expected = any(
            not e.valid and e.tokens == tokens and e.context == context
            for e in recorded
        )
        assert (NEGATIVE in outcome.reasons) == expected, (tokens, context)
        if expected:
            rejected.add((tokens, context.name))
    # both verdicts occur, and positives never count as violations
    assert 0 < len(rejected) < len(policies) * len(contexts)
    assert len(pcp._known_violations) == len(
        {(e.tokens, e.context) for e in recorded if not e.valid}
    )


# ``xs`` splits a run of n ``x`` tokens in Catalan(n - 1) ways: three give
# 2 parse trees, eight give 429, past the 256 the membership check allows
AMBIGUOUS = """
policy -> "allow" subject action
subject -> "alice" { }
subject -> "bob" { }
action -> "read" { }
action -> xs { }
xs -> xs xs { }
xs -> "x" { }
"""


def test_undecidable_import_is_rejected_not_raised():
    ams = AutonomousManagedSystem(
        "local",
        PolicySpecification(AMBIGUOUS),
        FieldInterpreter({1: ("subject", "id"), 2: ("action", "id")}),
        max_policy_length=5,
    )
    ams.bootstrap(Context.empty("normal"))
    wiki = CASWiki()
    wiki.contribute("peer", ("allow", "bob", "read"))
    wiki.contribute("peer", ("allow", "alice") + ("x",) * 8)
    adopted, rejected = ams.import_shared(wiki)
    assert [p.text for p in adopted] == ["allow bob read"]
    (outcome,) = rejected
    (reason,) = outcome.reasons
    assert reason.startswith("membership undecided:")
    assert "256" in reason
