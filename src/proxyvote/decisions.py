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


def decision_error(outcome, expected):
    """Absolute difference between an outcome and the expected decision
    (elementwise on arrays)."""
    return abs(outcome - expected)


def decision_report(network: TrustNetwork, active: ActiveSet, weights: WeightVector) -> DecisionReport:
    """Evaluate both decision methods against the expected decision.

    The weight vector must cover exactly the active set and its weights
    must sum to the population size within ``CONSERVATION_TOL``;
    otherwise the vector is rejected as corrupted.
    """
    active.validate_for(network.n)
    if set(weights.weights) != set(active):
        raise ValueError("weight vector does not cover exactly the active set")
    w = np.array([weights.weights[i] for i in active], dtype=np.float64)
    decided = _decide(network.opinions[None], active.ids[None], w[None])
    outcome, expected, weighted = (float(v[0]) for v in decided)
    return DecisionReport(
        group_decision=outcome,
        expected_decision=expected,
        error_traditional=decision_error(outcome, expected),
        weighted_group_decision=weighted,
        error_weighted=decision_error(weighted, expected),
    )


def _decide(opinions: np.ndarray, ids: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """(group, expected, weighted) decisions of B trials from the rows of
    ``opinions`` (B, n), sorted active ``ids`` (B, A) and ``weights`` (B, A):
    the active mean, the population mean and sum(weight * opinion) / n.
    The first trial whose weights miss n by more than ``CONSERVATION_TOL``
    raises the corrupted-weight ValueError."""
    b, n = opinions.shape
    chosen = opinions[np.arange(b)[:, None], ids]
    totals = weights.sum(axis=1)
    bad = ~(np.abs(totals - n) <= CONSERVATION_TOL)  # NaN fails too
    if bad.any():
        raise ValueError(
            f"corrupted weight vector: weights sum to {float(totals[bad.argmax()])!r}, "
            f"expected {n} within {CONSERVATION_TOL}"
        )
    group = chosen.sum(axis=1) / ids.shape[1]
    return group, opinions.sum(axis=1) / n, (weights * chosen).sum(axis=1) / n
