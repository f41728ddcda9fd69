"""Delegation weights from trust propagation.

Every node starts with one unit of trust.  Non-representative nodes pass
the trust they hold along their normalized out-edges; representatives
(the active set) collect trust and never redistribute it.  When all
mobile trust has been absorbed, the weight of an active node is its own
unit plus everything that flowed to it, and the weights sum to the
population size.

Two interchangeable computations are provided:

* :func:`compute_weights_iterative` runs the redistribution sweeps
  directly until the mobile residual falls below a tolerance.
* :func:`compute_weights_exact` treats active nodes as absorbing states
  and solves the linear system for absorption probabilities in one shot.

Trust held by nodes with no directed path to any active node can never
be absorbed; the stranded policy decides whether that is an error or is
split evenly among the representatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .network import ActiveSet, TrustNetwork

#: bound on |sum of weights - n| that a weight vector must meet
CONSERVATION_TOL = 1e-6


class DelegationError(Exception):
    """Base class for weight-computation failures."""


class StrandedTrustError(DelegationError):
    """Some trust has no directed path to the active set and the policy is reject."""

    def __init__(self, stranded: list[int]):
        self.stranded = sorted(stranded)
        super().__init__(
            f"trust stranded at nodes with no path to any active node: {self.stranded}"
        )

    def __reduce__(self):  # the default would rebuild from the message
        return type(self), (self.stranded,)


class NoConvergenceError(DelegationError):
    """Residual mobile trust failed to drop below tolerance within the sweep budget."""


class SingularSystemError(DelegationError):
    """The absorption system is singular or too ill-conditioned to conserve trust."""


class StrandedPolicy(enum.Enum):
    """What to do with trust that cannot reach any active node."""

    REJECT = "reject"
    UNIFORM_TO_ACTIVE = "uniform"


@dataclass(frozen=True)
class PropagationConfig:
    """Termination and degeneracy knobs for the iterative sweeps."""

    tolerance: float = 1e-9
    max_iterations: int = 100_000
    stranded_policy: StrandedPolicy = StrandedPolicy.REJECT

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ReachabilityPartition:
    """Non-active nodes split by whether they can reach the active set,
    each as a sorted ``int64`` id array."""

    transient: np.ndarray
    stranded: np.ndarray


@dataclass(frozen=True)
class WeightVector:
    """Delegation weight per active node.

    ``weights`` maps each active node id to its (possibly fractional)
    weight; weights include the stranded mass redistributed by policy, so
    they sum to the population size within tolerance.  ``stranded_mass``
    reports how much trust had no path to the active set and was handled
    by policy (0.0 when nothing was stranded).  ``iterations_used`` is
    the sweep count of the iterative path, None for the exact solver.
    """

    weights: dict[int, float]
    stranded_mass: float = 0.0
    iterations_used: int | None = None

    def total(self) -> float:
        return float(sum(self.weights.values()))


def reachability_partition(network: TrustNetwork, active: ActiveSet) -> ReachabilityPartition:
    """Split non-active nodes into transient (some directed path of
    positive normalized trust reaches an active node) and stranded (none
    does).  Dangling non-active nodes are always stranded.

    Level-synchronous reverse search over the positive-trust edges: each
    sweep marks the sources of all edges whose target is reached, until
    the reached count stops growing.  That is D + 1 sweeps of O(E) work,
    with D the longest shortest path to the active set and E the edge
    count: O(D * E) at worst (a long chain), never more than the >= D
    sweeps of the iterative solver or the O(T^3) exact solve.
    """
    active.validate_for(network.n)
    positive = network.normalized_trust > 0.0
    src = network.edge_source[positive]
    tgt = network.edge_target[positive]
    active_ids = active.sorted_ids()
    reached = np.zeros(network.n, dtype=bool)
    reached[active_ids] = True
    count = len(active_ids)
    while True:
        reached[src[reached[tgt]]] = True
        grown = int(np.count_nonzero(reached))
        if grown == count:
            break
        count = grown
    stranded = np.flatnonzero(~reached)
    reached[active_ids] = False
    return ReachabilityPartition(np.flatnonzero(reached), stranded)


def compute_weights_iterative(
    network: TrustNetwork,
    active: ActiveSet,
    config: PropagationConfig = PropagationConfig(),
    callback: Callable[[float], None] | None = None,
) -> WeightVector:
    """Propagate trust by synchronous sweeps until absorbed by the active set.

    Each active node keeps its own unit; each transient node starts with
    one mobile unit.  Per sweep, every transient node sends all trust it
    holds along its normalized out-edges simultaneously; trust arriving
    at active nodes is absorbed.  Sweeps stop when the total mobile trust
    drops below ``config.tolerance``.

    Parameters
    ----------
    network : TrustNetwork
        Trust flows along its normalized out-edges.
    active : ActiveSet
        Non-empty set of representative ids.
    config : PropagationConfig
        Tolerance, sweep budget, and stranded policy.
    callback : callable, optional
        Called with the mobile residual after every sweep (used to
        observe convergence).

    Raises
    ------
    StrandedTrustError
        Stranded nodes exist and the policy is REJECT.
    NoConvergenceError
        Sweep budget exhausted with residual still at or above tolerance.
    """
    active_ids, to_transient, to_active, to_stranded, stranded_count = _flow_matrices(
        network, active, config.stranded_policy
    )
    weights = np.ones(len(active_ids), dtype=np.float64)

    iterations = 0
    leaked = 0.0
    mobile = np.ones(len(to_transient), dtype=np.float64)
    residual = float(mobile.sum())
    converged = residual < config.tolerance
    while not converged and iterations < config.max_iterations:
        weights += to_active.T @ mobile
        leaked += float(to_stranded @ mobile)
        mobile = to_transient.T @ mobile
        residual = float(mobile.sum())
        iterations += 1
        if callback is not None:
            callback(residual)
        converged = residual < config.tolerance
    if not converged:
        raise NoConvergenceError(
            f"residual mobile trust {residual!r} after {iterations} sweeps "
            f"(tolerance {config.tolerance!r})"
        )

    return _weight_vector(active_ids, weights, stranded_count, leaked, iterations)


def compute_weights_exact(
    network: TrustNetwork,
    active: ActiveSet,
    stranded_policy: StrandedPolicy = StrandedPolicy.REJECT,
) -> WeightVector:
    """Closed-form delegation weights via the absorbing-chain linear system.

    With Q the transient-to-transient and R the transient-to-active
    blocks of the normalized trust matrix, the absorption probabilities
    X solve (I - Q) X = R, and the weight of active node a is
    ``1 + sum_t X[t, a]`` plus any stranded mass assigned by policy.
    After stranded nodes are removed every transient node reaches an
    absorber, so I - Q is nonsingular; a singular report, or a solution
    whose absorbed mass misses the transient count by more than
    ``CONSERVATION_TOL`` (a near-closed trust cycle), is surfaced as
    :class:`SingularSystemError`.
    """
    active_ids, to_transient, to_active, _, stranded_count = _flow_matrices(
        network, active, stranded_policy
    )
    weights = np.ones(len(active_ids), dtype=np.float64)

    leaked = 0.0
    if len(to_transient):
        identity = np.eye(len(to_transient))
        try:
            absorption = np.linalg.solve(identity - to_transient, to_active)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"absorption system reported singular: {exc}") from exc
        weights += absorption.sum(axis=0)
        # every transient unit is eventually absorbed or leaks into the
        # stranded region, so the leak is the mass the solve left over
        absorbed = float(absorption.sum())
        leaked = len(to_transient) - absorbed
        # written so that a NaN leak (a subnormal pivot) fails too
        if not leaked >= -CONSERVATION_TOL or (stranded_count == 0 and leaked > CONSERVATION_TOL):
            raise SingularSystemError(
                f"absorption system too ill-conditioned: {absorbed!r} of "
                f"{len(to_transient)} transient units absorbed"
            )
        leaked = max(0.0, leaked)

    return _weight_vector(active_ids, weights, stranded_count, leaked, None)


def _weight_vector(
    active_ids: np.ndarray, weights: np.ndarray, stranded_count: int, leaked: float,
    iterations: int | None,
) -> WeightVector:
    """Split stranded mass (initial stranded units plus mass that leaked
    out of the transient region) evenly over the active weights and key
    them by active id.  Stranded mass is exactly 0.0 when nothing was
    structurally stranded."""
    stranded_mass = 0.0
    # with no stranded region nothing can leak, so any leak is fp residue
    if stranded_count:
        stranded_mass = float(stranded_count) + leaked
        weights += stranded_mass / len(weights)
    return WeightVector(
        weights={int(a): float(w) for a, w in zip(active_ids, weights)},
        stranded_mass=stranded_mass,
        iterations_used=iterations,
    )


def _flow_matrices(
    network: TrustNetwork, active: ActiveSet, policy: StrandedPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Partition the nodes, apply the stranded policy's reject branch and
    build the dense flow blocks of the transient rows.

    Returns (active_ids, to_transient, to_active, to_stranded,
    stranded_count): row i of the blocks describes where the i-th
    transient node's trust goes in one step, split into transient
    columns, active columns, and the total lost to the stranded region.
    """
    partition = reachability_partition(network, active)
    if partition.stranded.size and policy is StrandedPolicy.REJECT:
        raise StrandedTrustError(partition.stranded.tolist())
    transient_ids, active_ids = partition.transient, active.sorted_ids()
    n = network.n
    t_count, a_count = len(transient_ids), len(active_ids)
    TRANSIENT, ACTIVE, STRANDED = 0, 1, 2
    kind = np.full(n, STRANDED, dtype=np.int8)
    kind[transient_ids] = TRANSIENT
    kind[active_ids] = ACTIVE
    position = np.zeros(n, dtype=np.int64)
    position[transient_ids] = np.arange(t_count)
    position[active_ids] = np.arange(a_count)

    norm = network.normalized_trust
    live = (norm > 0.0) & (kind[network.edge_source] == TRANSIENT)
    src = position[network.edge_source[live]]
    tgt_node = network.edge_target[live]
    tgt_kind = kind[tgt_node]
    w = norm[live]

    to_transient = np.zeros((t_count, t_count), dtype=np.float64)
    to_active = np.zeros((t_count, a_count), dtype=np.float64)
    to_stranded = np.zeros(t_count, dtype=np.float64)
    m = tgt_kind == TRANSIENT
    np.add.at(to_transient, (src[m], position[tgt_node[m]]), w[m])
    m = tgt_kind == ACTIVE
    np.add.at(to_active, (src[m], position[tgt_node[m]]), w[m])
    m = tgt_kind == STRANDED
    np.add.at(to_stranded, src[m], w[m])
    return active_ids, to_transient, to_active, to_stranded, len(partition.stranded)
