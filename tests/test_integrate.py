"""Routing and policy-tuning tests for the integrator."""

import datetime as dt
import logging
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from ecann.agents import RankingMode
from ecann.alignment import Hit
from ecann.core import Prediction, PredictionSource, ProteinRecord, parse_ec, parse_ec_list
from ecann.integrate import (
    AgentOutputs,
    IntegrationError,
    IntegrationPolicy,
    PolicyGrid,
    greedy_tune,
    integrate,
)
from ecann.metrics import micro_ec_f1

ALIGN = PredictionSource.ALIGNMENT
AGENTS = PredictionSource.AGENTS
DAY = dt.date(2015, 6, 1)


def _hit(identity, ecs="1.1.1.1", hid="H1"):
    labels = parse_ec_list(ecs)
    return Hit(id=hid, identity=identity, score=40.0, columns=50,
               matches=int(identity * 50), labels=labels)


def _outputs(is_enzyme=True, conf=0.9, count=1, ecs=("2.2.2.2",)):
    ranked = tuple((parse_ec(t), 0.9 - 0.1 * i) for i, t in enumerate(ecs))
    return AgentOutputs(is_enzyme=is_enzyme, enzyme_confidence=conf,
                        count=count, ranked_ecs=ranked)


def _rec(rid, ecs=""):
    return ProteinRecord(
        id=rid, name=rid, seq="ACDEFG", is_enzyme=bool(ecs),
        ecs=parse_ec_list(ecs), date_integrated=DAY, date_sequence_update=DAY,
    )


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = IntegrationPolicy()
        assert policy.precedence == (ALIGN, AGENTS)

    def test_empty_precedence_rejected(self):
        with pytest.raises(IntegrationError):
            IntegrationPolicy(precedence=())

    def test_duplicate_route_rejected(self):
        with pytest.raises(IntegrationError):
            IntegrationPolicy(precedence=(ALIGN, ALIGN))

    def test_threshold_ranges(self):
        with pytest.raises(IntegrationError):
            IntegrationPolicy(alignment_min_identity=1.5)
        with pytest.raises(IntegrationError):
            IntegrationPolicy(agent1_threshold=-0.1)

    def test_dict_round_trip(self):
        policy = IntegrationPolicy(alignment_min_identity=0.9,
                                   precedence=(AGENTS,),
                                   agent1_threshold=0.7,
                                   use_count_hint=False)
        assert IntegrationPolicy.from_dict(policy.to_dict()) == policy

    def test_outputs_validation(self):
        with pytest.raises(IntegrationError):
            _outputs(conf=1.2)
        with pytest.raises(IntegrationError):
            AgentOutputs(is_enzyme=True, enzyme_confidence=0.5, count=-1,
                         ranked_ecs=())


class TestIntegrate:
    def test_exact_duplicate_transfers_alignment_labels(self):
        hit = _hit(1.0, "3.4.21.1;1.1.1.1")
        pred = integrate("Q", _outputs(), hit, IntegrationPolicy())
        assert pred.source is ALIGN
        assert pred.is_enzyme is True
        assert [str(ec) for ec, _ in pred.ranked_ecs] == ["1.1.1.1", "3.4.21.1"]
        assert all(score == 1.0 for _, score in pred.ranked_ecs)

    def test_non_enzyme_hit_transfers_the_non_enzyme_verdict(self):
        pred = integrate("Q", _outputs(), _hit(1.0, ""), IntegrationPolicy())
        assert pred.source is ALIGN
        assert pred.is_enzyme is False
        assert pred.ranked_ecs == ()

    def test_no_hit_and_confident_non_enzyme_gate(self):
        pred = integrate("Q", _outputs(is_enzyme=False, conf=0.8), None,
                         IntegrationPolicy())
        assert pred == Prediction(id="Q", is_enzyme=False, ranked_ecs=(),
                                  source=AGENTS)

    def test_low_confidence_non_enzyme_falls_through_to_ranking(self):
        out = _outputs(is_enzyme=False, conf=0.55, count=1)
        pred = integrate("Q", out, None,
                         IntegrationPolicy(agent1_threshold=0.7))
        assert pred.is_enzyme is True
        assert len(pred.ranked_ecs) == 1

    def test_count_truncates_the_ranking(self):
        out = _outputs(count=2, ecs=("1.1.1.1", "2.2.2.2", "3.3.3.3"))
        pred = integrate("Q", out, None, IntegrationPolicy())
        assert [str(ec) for ec, _ in pred.ranked_ecs] == ["1.1.1.1", "2.2.2.2"]

    def test_count_hint_disabled_keeps_only_the_top_candidate(self):
        out = _outputs(count=3, ecs=("1.1.1.1", "2.2.2.2", "3.3.3.3"))
        pred = integrate("Q", out, None,
                         IntegrationPolicy(use_count_hint=False))
        assert len(pred.ranked_ecs) == 1

    def test_recommendation_mode_ignores_the_count(self):
        out = _outputs(count=1, ecs=("1.1.1.1", "2.2.2.2", "3.3.3.3"))
        pred = integrate("Q", out, None, IntegrationPolicy(),
                         mode=RankingMode.RECOMMENDATION)
        assert len(pred.ranked_ecs) == 3

    def test_hit_below_the_identity_gate_is_skipped(self):
        pred = integrate("Q", _outputs(ecs=("2.2.2.2",)), _hit(0.5, "1.1.1.1"),
                         IntegrationPolicy(alignment_min_identity=0.9))
        assert pred.source is AGENTS
        assert [str(ec) for ec, _ in pred.ranked_ecs] == ["2.2.2.2"]

    def test_agents_first_precedence_ignores_a_perfect_hit(self):
        pred = integrate("Q", _outputs(ecs=("2.2.2.2",)), _hit(1.0, "1.1.1.1"),
                         IntegrationPolicy(precedence=(AGENTS, ALIGN)))
        assert pred.source is AGENTS

    def test_alignment_only_policy_abstains_without_a_hit(self):
        pred = integrate("Q", _outputs(), None,
                         IntegrationPolicy(precedence=(ALIGN,)))
        assert pred.is_enzyme is None
        assert pred.ranked_ecs == ()
        assert pred.source is ALIGN

    def test_only_the_answering_route_needs_its_inputs(self):
        hit = _hit(1.0)
        assert integrate("Q", None, hit, IntegrationPolicy()).source is ALIGN
        abstain = integrate("Q", None, None, IntegrationPolicy(precedence=(ALIGN,)))
        assert abstain.is_enzyme is None
        with pytest.raises(IntegrationError, match="no agent outputs"):
            integrate("Q", None, _hit(0.2), IntegrationPolicy())
        with pytest.raises(IntegrationError, match="no agent outputs"):
            integrate("Q", None, hit, IntegrationPolicy(precedence=(AGENTS, ALIGN)))

    @pytest.mark.parametrize("precedence, consults, on_hit, on_miss", [
        ((ALIGN, AGENTS), True, ALIGN, AGENTS),
        ((AGENTS, ALIGN), False, AGENTS, AGENTS),
        ((ALIGN,), True, ALIGN, None),
        ((AGENTS,), False, AGENTS, AGENTS),
    ])
    def test_route_for_walks_the_precedence(self, precedence, consults, on_hit, on_miss):
        policy = IntegrationPolicy(alignment_min_identity=0.9, precedence=precedence)
        assert policy.consults_alignment is consults
        assert policy.route_for(_hit(0.95)) is on_hit
        assert policy.route_for(_hit(0.85)) is on_miss
        assert policy.route_for(None) is on_miss

    def test_pure_function_of_inputs(self):
        out = _outputs(count=2, ecs=("1.1.1.1", "2.2.2.2"))
        hit = _hit(0.8)
        policy = IntegrationPolicy(alignment_min_identity=0.6)
        assert integrate("Q", out, hit, policy) == integrate("Q", out, hit, policy)


def _tuning_fixture():
    """Validation slice where alignment nails 3 queries, agents 2 others.

    The combined alignment-first policy answers all five, so it strictly
    beats both single-route policies.
    """
    gold, outputs, hits = [], {}, {}
    for i in range(3):
        rid = f"A{i}"
        gold.append(_rec(rid, "1.1.1.1"))
        hits[rid] = _hit(1.0, "1.1.1.1", hid=f"DB{i}")
        outputs[rid] = _outputs(ecs=("7.7.7.7",))  # agents wrong here
    for i in range(2):
        rid = f"G{i}"
        gold.append(_rec(rid, "2.2.2.2"))
        hits[rid] = None  # alignment cannot answer
        outputs[rid] = _outputs(ecs=("2.2.2.2",))
    return gold, outputs, hits


class TestGreedyTune:
    def test_minimal_grid_returns_its_best_member(self):
        gold, outputs, hits = _tuning_fixture()
        grid = PolicyGrid(identities=(0.4,), thresholds=(0.5,),
                          precedences=((ALIGN,), (AGENTS,)))
        result = greedy_tune(gold, outputs, hits, grid)
        assert result.policy in [policy for policy, _ in result.scoreboard]
        assert result.objective == max(score for _, score in result.scoreboard)

    def test_tuned_beats_both_single_route_baselines(self):
        gold, outputs, hits = _tuning_fixture()
        result = greedy_tune(gold, outputs, hits)
        by_precedence = {}
        for policy, score in result.scoreboard:
            by_precedence.setdefault(policy.precedence, []).append(score)
        align_only = max(by_precedence[(ALIGN,)])
        agents_only = max(by_precedence[(AGENTS,)])
        assert result.objective >= align_only
        assert result.objective >= agents_only
        assert result.objective > max(align_only, agents_only)  # this fixture
        assert result.policy.precedence[0] is ALIGN

    def test_alignment_always_right_puts_alignment_first(self):
        gold, outputs, hits = [], {}, {}
        for i in range(4):
            rid = f"Q{i}"
            gold.append(_rec(rid, "3.1.3.16"))
            hits[rid] = _hit(1.0, "3.1.3.16", hid=f"DB{i}")
            outputs[rid] = _outputs(ecs=("1.1.1.1",))
        result = greedy_tune(gold, outputs, hits)
        assert result.policy.precedence[0] is ALIGN
        assert result.objective == 1.0

    def test_scoreboard_covers_the_whole_grid(self):
        gold, outputs, hits = _tuning_fixture()
        grid = PolicyGrid()
        result = greedy_tune(gold, outputs, hits, grid)
        assert len(result.scoreboard) == len(grid.policies())

    def test_deterministic(self):
        gold, outputs, hits = _tuning_fixture()
        a = greedy_tune(gold, outputs, hits)
        b = greedy_tune(gold, outputs, hits)
        assert a == b

    def test_empty_validation_errors(self):
        with pytest.raises(IntegrationError, match="empty"):
            greedy_tune([], {}, {})

    def test_missing_outputs_errors(self):
        gold, outputs, hits = _tuning_fixture()
        del outputs["A0"]
        with pytest.raises(IntegrationError, match="A0"):
            greedy_tune(gold, outputs, hits)

    def test_grid_must_keep_single_route_policies(self):
        with pytest.raises(IntegrationError, match="single-route"):
            PolicyGrid(precedences=((ALIGN, AGENTS),))


# --------------------------------------------------------------------------
# Oracle: greedy_tune as it was before its coordinate refinement was
# deleted, copied verbatim.  The refinement only ever steps to grid points
# the scan already scored, so it can never accept a step.

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TuneResult:
    """The oracle's result: the library's fields plus the accepted steps."""

    policy: IntegrationPolicy
    objective: float
    scoreboard: tuple[tuple[IntegrationPolicy, float], ...]
    trajectory: tuple[tuple[str, float], ...]


def refining_greedy_tune(
    validation: Sequence[ProteinRecord],
    outputs_by_id: Mapping[str, AgentOutputs],
    hits_by_id: Mapping[str, Optional[Hit]],
    grid: PolicyGrid = PolicyGrid(),
    mode: RankingMode = RankingMode.PREDICTION,
) -> TuneResult:
    """Pick the policy maximizing validation micro EC F1.

    Scores the whole grid, starts greedy refinement from the grid
    argmax, and sweeps one field at a time accepting only strict
    improvements until a full sweep changes nothing.  Deterministic:
    ties keep the earlier candidate.
    """
    if not validation:
        raise IntegrationError("validation split is empty")
    missing = [rec.id for rec in validation if rec.id not in outputs_by_id]
    if missing:
        raise IntegrationError(
            f"no agent outputs for validation ids (e.g. {missing[:3]})"
        )

    def objective(policy: IntegrationPolicy) -> float:
        preds = [
            integrate(rec.id, outputs_by_id[rec.id], hits_by_id.get(rec.id),
                      policy, mode)
            for rec in validation
        ]
        return micro_ec_f1(preds, validation)

    scoreboard = [(policy, objective(policy)) for policy in grid.policies()]
    best_policy, best_score = max(scoreboard, key=lambda row: row[1])
    log.info("grid scan: %d policies, best F1 %.4f", len(scoreboard), best_score)

    axes: tuple[tuple[str, tuple], ...] = (
        ("alignment_min_identity", grid.identities),
        ("agent1_threshold", grid.thresholds),
        ("precedence", grid.precedences),
        ("use_count_hint", grid.count_hints),
    )
    trajectory: list[tuple[str, float]] = [("start", best_score)]
    improved = True
    while improved:
        improved = False
        for field_name, values in axes:
            for value in values:
                if getattr(best_policy, field_name) == value:
                    continue
                candidate = replace(best_policy, **{field_name: value})
                score = objective(candidate)
                if score > best_score:
                    assert score >= trajectory[-1][1]  # objective never decreases
                    best_policy, best_score = candidate, score
                    trajectory.append((field_name, score))
                    log.info("greedy accepted %s=%r, F1 %.4f",
                             field_name, value, score)
                    improved = True
    return TuneResult(
        policy=best_policy,
        objective=best_score,
        scoreboard=tuple(scoreboard),
        trajectory=tuple(trajectory),
    )


_POOL = ("1.1.1.1", "2.2.2.2", "3.3.3.3")
_LEVELS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 1.0)


def _ec_text(draw, min_size=0):
    return ";".join(draw(st.lists(st.sampled_from(_POOL), min_size=min_size, unique=True)))


@st.composite
def _tuning_cases(draw):
    gold, outputs, hits = [], {}, {}
    for i in range(draw(st.integers(1, 8))):
        rid = f"Q{i}"
        gold.append(_rec(rid, _ec_text(draw)))
        outputs[rid] = _outputs(
            is_enzyme=draw(st.booleans()), conf=draw(st.sampled_from(_LEVELS)),
            count=draw(st.integers(0, 3)), ecs=tuple(_ec_text(draw, 1).split(";")),
        )
        if draw(st.booleans()):
            hits[rid] = _hit(draw(st.sampled_from(_LEVELS)), _ec_text(draw, 1), hid=f"DB{i}")
        else:
            hits[rid] = None
    axis = lambda values: tuple(draw(st.lists(  # noqa: E731
        st.sampled_from(values), min_size=1, unique=True)))
    pairs = draw(st.lists(st.sampled_from([(ALIGN, AGENTS), (AGENTS, ALIGN)]), unique=True))
    grid = PolicyGrid(
        identities=axis(_LEVELS), thresholds=axis(_LEVELS),
        precedences=tuple(draw(st.permutations([(ALIGN,), (AGENTS,), *pairs]))),
        count_hints=axis((True, False)),
    )
    return gold, outputs, hits, grid


@settings(max_examples=150, deadline=None)
@given(case=_tuning_cases())
def test_grid_scan_matches_the_refining_tuner(case):
    gold, outputs, hits, grid = case
    want = refining_greedy_tune(gold, outputs, hits, grid)
    got = greedy_tune(gold, outputs, hits, grid)
    assert (got.policy, got.objective, got.scoreboard) == (
        want.policy, want.objective, want.scoreboard)
    assert len(want.trajectory) == 1  # the refinement accepted no step
