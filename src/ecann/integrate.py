"""Combine agent outputs with alignment transfer into one prediction.

The final answer for a query walks an ordered precedence list of routes.
The alignment route fires only when a hit clears the policy's identity
gate and then copies the neighbour's labels verbatim; the agent route
always fires: the enzyme gate can veto, otherwise the count model
truncates the ranked EC candidates.  A policy where no route fires
yields an abstention (only possible without the agent route).

Tuning scores every point of a finite policy grid and keeps the best
micro F1 of exact EC matches on a held-out validation slice.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .agents import MAX_RECOMMENDATIONS, RankingMode
from .alignment import Hit
from .core import (
    ECNumber,
    Prediction,
    PredictionSource,
    ProteinRecord,
    format_ec,
)
from .metrics import micro_ec_f1

log = logging.getLogger(__name__)


class IntegrationError(ValueError):
    """Invalid policy, grid, or tuning input."""


_ROUTES = (PredictionSource.ALIGNMENT, PredictionSource.AGENTS)


@dataclass(frozen=True)
class IntegrationPolicy:
    """Routing rules: which source answers first and at what thresholds."""

    alignment_min_identity: float = 0.4
    precedence: tuple[PredictionSource, ...] = (
        PredictionSource.ALIGNMENT,
        PredictionSource.AGENTS,
    )
    agent1_threshold: float = 0.5
    use_count_hint: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alignment_min_identity <= 1.0:
            raise IntegrationError(
                f"alignment_min_identity must be in [0, 1], got {self.alignment_min_identity}"
            )
        if not 0.0 <= self.agent1_threshold <= 1.0:
            raise IntegrationError(
                f"agent1_threshold must be in [0, 1], got {self.agent1_threshold}"
            )
        if not self.precedence:
            raise IntegrationError("precedence must name at least one route")
        if len(set(self.precedence)) != len(self.precedence):
            raise IntegrationError(f"duplicate route in precedence: {self.precedence}")
        for route in self.precedence:
            if route not in _ROUTES:
                raise IntegrationError(f"unknown route {route!r}")

    @property
    def consults_alignment(self) -> bool:
        """Whether :meth:`route_for` reads the hit: alignment precedes the agents."""
        return self.precedence[0] is PredictionSource.ALIGNMENT

    def route_for(self, hit: Optional[Hit]) -> Optional[PredictionSource]:
        """The first route in precedence order that fires; None is an abstention."""
        hit_fires = hit is not None and hit.identity >= self.alignment_min_identity
        for route in self.precedence:
            if route is PredictionSource.AGENTS or hit_fires:
                return route
        return None

    def to_dict(self) -> dict:
        return {
            "alignment_min_identity": self.alignment_min_identity,
            "precedence": [route.value for route in self.precedence],
            "agent1_threshold": self.agent1_threshold,
            "use_count_hint": self.use_count_hint,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "IntegrationPolicy":
        return cls(
            alignment_min_identity=float(payload["alignment_min_identity"]),
            precedence=tuple(
                PredictionSource(route) for route in payload["precedence"]
            ),
            agent1_threshold=float(payload["agent1_threshold"]),
            use_count_hint=bool(payload["use_count_hint"]),
        )


@dataclass(frozen=True)
class AgentOutputs:
    """Per-query route inputs, computed once and reused for every policy."""

    is_enzyme: bool
    enzyme_confidence: float
    count: int
    # agent-3 candidates at recommendation width; integrate() truncates
    ranked_ecs: tuple[tuple[ECNumber, float], ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.enzyme_confidence <= 1.0:
            raise IntegrationError(
                f"enzyme confidence {self.enzyme_confidence} outside [0, 1]"
            )
        if self.count < 0:
            raise IntegrationError(f"count must be >= 0, got {self.count}")


def _transfer(query_id: str, hit: Hit) -> Prediction:
    ranked = tuple(
        (ec, 1.0) for ec in sorted(hit.labels, key=format_ec)
    )
    return Prediction(
        id=query_id,
        is_enzyme=bool(ranked),
        ranked_ecs=ranked,
        source=PredictionSource.ALIGNMENT,
    )


def integrate(
    query_id: str,
    outputs: Optional[AgentOutputs],
    hit: Optional[Hit],
    policy: IntegrationPolicy,
    mode: RankingMode = RankingMode.PREDICTION,
) -> Prediction:
    """Resolve one query by the route ``policy.route_for(hit)`` picks.

    Pure in all arguments.  ``outputs`` is needed only when the agents answer.
    """
    route = policy.route_for(hit)
    if route is PredictionSource.ALIGNMENT:
        return _transfer(query_id, hit)
    if route is None:
        return Prediction(
            id=query_id, is_enzyme=None, ranked_ecs=(), source=policy.precedence[-1]
        )
    if outputs is None:
        raise IntegrationError(f"query {query_id!r}: the agents answer but no agent outputs given")
    vetoed = not outputs.is_enzyme and outputs.enzyme_confidence >= policy.agent1_threshold
    if vetoed:
        width = 0
    elif mode is RankingMode.RECOMMENDATION:
        width = MAX_RECOMMENDATIONS
    else:
        width = outputs.count if policy.use_count_hint else 1
    return Prediction(
        id=query_id,
        is_enzyme=not vetoed,
        ranked_ecs=tuple(outputs.ranked_ecs[:width]),
        source=PredictionSource.AGENTS,
    )


# --------------------------------------------------------------------------
# Policy tuning

DEFAULT_IDENTITY_GRID = (0.4, 0.6, 0.9, 1.0)
DEFAULT_THRESHOLD_GRID = (0.5, 0.7, 0.9)
DEFAULT_PRECEDENCE_GRID = (
    (PredictionSource.ALIGNMENT, PredictionSource.AGENTS),
    (PredictionSource.AGENTS, PredictionSource.ALIGNMENT),
    (PredictionSource.ALIGNMENT,),
    (PredictionSource.AGENTS,),
)


@dataclass(frozen=True)
class PolicyGrid:
    """Finite candidate values per policy field.

    The precedence axis must keep the two single-route policies so the
    tuned result is provably at least as good as either route alone.
    """

    identities: tuple[float, ...] = DEFAULT_IDENTITY_GRID
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLD_GRID
    precedences: tuple[tuple[PredictionSource, ...], ...] = DEFAULT_PRECEDENCE_GRID
    count_hints: tuple[bool, ...] = (True,)

    def __post_init__(self) -> None:
        if not (self.identities and self.thresholds and self.precedences
                and self.count_hints):
            raise IntegrationError("every grid axis needs at least one value")
        singles = {(route,) for route in _ROUTES}
        if not singles <= set(self.precedences):
            raise IntegrationError(
                "precedence grid must include both single-route policies"
            )

    def policies(self) -> list[IntegrationPolicy]:
        return [
            IntegrationPolicy(
                alignment_min_identity=identity,
                precedence=precedence,
                agent1_threshold=threshold,
                use_count_hint=hint,
            )
            for identity, threshold, precedence, hint in itertools.product(
                self.identities, self.thresholds, self.precedences, self.count_hints
            )
        ]


@dataclass(frozen=True)
class TuneResult:
    policy: IntegrationPolicy
    objective: float
    # every grid point in evaluation order
    scoreboard: tuple[tuple[IntegrationPolicy, float], ...]


def greedy_tune(
    validation: Sequence[ProteinRecord],
    outputs_by_id: Mapping[str, AgentOutputs],
    hits_by_id: Mapping[str, Optional[Hit]],
    grid: PolicyGrid = PolicyGrid(),
) -> TuneResult:
    """Pick the grid policy maximizing validation micro EC F1; ties keep the
    earlier one.

    The scan is the whole search: a step that changes one field of the
    argmax to another value of its axis lands on a grid point already
    scored, so it cannot beat the argmax.
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
            integrate(rec.id, outputs_by_id[rec.id], hits_by_id.get(rec.id), policy)
            for rec in validation
        ]
        return micro_ec_f1(preds, validation)

    scoreboard = [(policy, objective(policy)) for policy in grid.policies()]
    best_policy, best_score = max(scoreboard, key=lambda row: row[1])
    log.info("grid scan: %d policies, best F1 %.4f", len(scoreboard), best_score)
    return TuneResult(policy=best_policy, objective=best_score, scoreboard=tuple(scoreboard))
