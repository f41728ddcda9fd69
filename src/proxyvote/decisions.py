"""Group decisions and decision error.

The traditional group decision is the plain average of the
representatives' opinions.  The expected decision is the average over
the whole population, the standard a representative outcome is measured
against.  The weighted decision scales each representative's opinion by
its delegation weight and divides by the population size; because the
weights conserve total trust, it is a weighted average of the active
opinions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delegation import CONSERVATION_TOL, WeightVector
from .network import ActiveSet, TrustNetwork


@dataclass(frozen=True)
class DecisionReport:
    """Decision values and errors for one network and active set."""

    group_decision: float
    expected_decision: float
    error_traditional: float
    weighted_group_decision: float
    error_weighted: float


def group_decision(network: TrustNetwork, active: ActiveSet) -> float:
    """Unweighted average of the active members' opinions."""
    active.validate_for(network.n)
    ids = active.sorted_ids()
    return float(np.sum(network.opinions[ids]) / len(ids))


def expected_decision(network: TrustNetwork) -> float:
    """Average opinion of the whole population."""
    if network.n < 1:
        raise ValueError("network must have at least one node")
    return float(np.sum(network.opinions) / network.n)


def weighted_group_decision(
    network: TrustNetwork,
    active: ActiveSet,
    weights: WeightVector,
) -> float:
    """Delegation-weighted average: (1/n) * sum of weight(p) * opinion(p).

    The weight vector must cover exactly the active set and its weights
    must sum to the population size within ``CONSERVATION_TOL``;
    otherwise the vector is rejected as corrupted.
    """
    active.validate_for(network.n)
    if set(weights.weights) != active.members:
        raise ValueError("weight vector does not cover exactly the active set")
    ids = active.sorted_ids()
    w = np.array([weights.weights[int(i)] for i in ids], dtype=np.float64)
    if not abs(float(np.sum(w)) - network.n) <= CONSERVATION_TOL:  # NaN fails too
        raise ValueError(
            f"corrupted weight vector: weights sum to {float(np.sum(w))!r}, "
            f"expected {network.n} within {CONSERVATION_TOL}"
        )
    return float(np.sum(w * network.opinions[ids]) / network.n)


def decision_error(outcome: float, expected: float) -> float:
    """Absolute difference between an outcome and the expected decision."""
    return abs(outcome - expected)


def decision_report(
    network: TrustNetwork,
    active: ActiveSet,
    weights: WeightVector,
) -> DecisionReport:
    """Evaluate both decision methods against the expected decision."""
    outcome = group_decision(network, active)
    expected = expected_decision(network)
    weighted = weighted_group_decision(network, active, weights)
    return DecisionReport(
        group_decision=outcome,
        expected_decision=expected,
        error_traditional=decision_error(outcome, expected),
        weighted_group_decision=weighted,
        error_weighted=decision_error(weighted, expected),
    )
