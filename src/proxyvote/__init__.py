"""Proxy decision-making on trust networks.

Build or load a directed trust network, propagate each node's unit of
trust until it is absorbed by the active representatives, and compare
the resulting weighted group decision against the traditional equal-
weight decision, either for a single network or across Monte Carlo
experiments.
"""

from .network import (
    ActiveSet,
    TrustNetwork,
    generate_network,
    trust_value,
    validate_network,
)
from .delegation import (
    DelegationError,
    NoConvergenceError,
    PropagationConfig,
    SingularSystemError,
    StrandedPolicy,
    StrandedTrustError,
    WeightVector,
    compute_weights_exact,
    compute_weights_iterative,
    reachability_partition,
)
from .decisions import (
    DecisionReport,
    decision_error,
    decision_report,
    expected_decision,
    group_decision,
    weighted_group_decision,
)
from .experiment import (
    ActiveSizeStats,
    ExperimentConfig,
    ExperimentResult,
    analytic_traditional_error,
    run_experiment,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "ActiveSizeStats",
    "DecisionReport",
    "DelegationError",
    "ExperimentConfig",
    "ExperimentResult",
    "NoConvergenceError",
    "PropagationConfig",
    "SingularSystemError",
    "StrandedPolicy",
    "StrandedTrustError",
    "TrustNetwork",
    "WeightVector",
    "analytic_traditional_error",
    "compute_weights_exact",
    "compute_weights_iterative",
    "decision_error",
    "decision_report",
    "expected_decision",
    "generate_network",
    "group_decision",
    "reachability_partition",
    "run_experiment",
    "run_trial",
    "trust_value",
    "validate_network",
    "weighted_group_decision",
]
