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
        return type(self), (self.stranded,), self.__dict__


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
    does).  Dangling non-active nodes are always stranded."""
    active.validate_for(network.n)
    reached = _reach(network.edge_source, network.edge_target, network.normalized_trust,
                     active.ids, network.n)
    stranded = np.flatnonzero(~reached)
    reached[active.ids] = False
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
    drops below ``config.tolerance``; ``callback``, if given, is called
    with the mobile residual after every sweep.  Raises
    :class:`StrandedTrustError` if nodes are stranded under the REJECT
    policy and :class:`NoConvergenceError` if ``config.max_iterations``
    sweeps leave the residual at or above the tolerance.
    """
    return _weight_vector(network, active, config.stranded_policy, config, callback)


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
    return _weight_vector(network, active, stranded_policy)


def _weight_vector(
    network: TrustNetwork, active: ActiveSet, policy: StrandedPolicy,
    config: PropagationConfig | None = None, callback: Callable[[float], None] | None = None,
) -> WeightVector:
    """:func:`_absorb` on a batch of one; ``config`` None selects the exact solve."""
    stranded = np.zeros((1, network.n), dtype=bool)
    stranded[0, reachability_partition(network, active).stranded] = True
    weights, mass, sweeps = _absorb(
        network.n, network.edge_source, network.edge_target, network.normalized_trust,
        active.ids[None], stranded, policy, config, callback,
    )
    return WeightVector(dict(zip(active.ids.tolist(), weights[0].tolist())), float(mass[0]),
                        None if config is None else int(sweeps[0]))


def _reach(src: np.ndarray, tgt: np.ndarray, norm: np.ndarray, active: np.ndarray,
           nodes: int) -> np.ndarray:
    """Mask of the nodes with a path of positive-trust edges to an ``active``
    id, these included.  Level-synchronous reverse search: each sweep marks
    the sources of all edges whose target is reached, until the count stops
    growing; O(D * E) for E edges and D the longest shortest path to the
    active set, never more than the >= D sweeps of the iterative solver."""
    positive = norm > 0.0
    src, tgt = src[positive], tgt[positive]
    reached = np.zeros(nodes, dtype=bool)
    reached[active] = True
    count = len(active)
    while True:
        reached[src[reached[tgt]]] = True
        grown = int(np.count_nonzero(reached))
        if grown == count:
            return reached
        count = grown


def _absorb(
    n: int, src: np.ndarray, tgt: np.ndarray, norm: np.ndarray, active: np.ndarray,
    stranded: np.ndarray, policy: StrandedPolicy, config: PropagationConfig | None = None,
    callback: Callable[[float], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delegation weights of B trials of n nodes each (node v of trial b
    is b*n + v in the edge arrays); ``active`` (B, A) holds each trial's
    sorted active ids and ``stranded`` (B, n) marks the nodes that reach
    none.  Trials are grouped by transient count T: each group's Q and R
    blocks take one stacked exact solve or, given a sweep ``config``, the
    sweeps trial by trial.  Returns (weights (B, A), stranded mass (B,),
    sweeps used (B,)), the stranded mass split evenly over the weights.
    """
    b, a = active.shape
    if policy is StrandedPolicy.REJECT and stranded.any():
        raise StrandedTrustError(np.flatnonzero(stranded[stranded.any(axis=1).argmax()]).tolist())
    rows = np.arange(b)[:, None]
    is_active = np.zeros((b, n), dtype=bool)
    is_active[rows, active] = True
    transient = ~(stranded | is_active)
    t_count = np.count_nonzero(transient, axis=1)
    position = np.cumsum(transient, axis=1) - 1
    position[rows, active] = np.arange(a)
    transient, is_active, position = transient.ravel(), is_active.ravel(), position.ravel()
    live = (norm > 0.0) & transient[src]
    src, tgt, w = src[live], tgt[live], norm[live]
    trial, row, col = src // n, position[src], position[tgt]
    to_transient, to_active = transient[tgt], is_active[tgt]

    weights, leaked, sweeps = np.ones((b, a)), np.zeros(b), np.zeros(b, dtype=np.int64)
    stranded_count = n - a - t_count
    counts = np.flatnonzero(np.bincount(t_count))
    for t in counts[counts > 0]:
        members = np.flatnonzero(t_count == t)
        mine = t_count[trial] == t
        g, r, c, v = np.searchsorted(members, trial[mine]), row[mine], col[mine], w[mine]
        m_t, m_a = to_transient[mine], to_active[mine]
        q = np.zeros((len(members), t, t))
        q[g[m_t], r[m_t], c[m_t]] = v[m_t]
        rr = np.zeros((len(members), t, a))
        rr[g[m_a], r[m_a], c[m_a]] = v[m_a]
        if config is not None:
            m_s = ~(m_t | m_a)
            out = np.bincount(g[m_s] * t + r[m_s], weights=v[m_s], minlength=len(members) * t)
            for j, i in enumerate(members):
                sweeps[i], leaked[i] = _sweep(q[j], rr[j], out[j * t:(j + 1) * t], weights[i],
                                              config, callback)
            continue
        try:
            x = np.linalg.solve(np.subtract(np.eye(t), q, out=q), rr)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"absorption system reported singular: {exc}") from exc
        weights[members] += x.sum(axis=1)
        # every transient unit is eventually absorbed or leaks into the
        # stranded region, so the leak is the mass the solve left over
        absorbed = x.sum(axis=(1, 2))
        lost = t - absorbed
        # written so that a NaN leak (a subnormal pivot) fails too
        bad = ~(lost >= -CONSERVATION_TOL) | ((stranded_count[members] == 0)
                                              & (lost > CONSERVATION_TOL))
        if bad.any():
            raise SingularSystemError(
                f"absorption system too ill-conditioned: {float(absorbed[bad.argmax()])!r} of "
                f"{t} transient units absorbed"
            )
        leaked[members] = np.maximum(0.0, lost)
    # with no stranded region nothing can leak, so any leak is fp residue
    mass = np.where(stranded_count > 0, stranded_count + leaked, 0.0)
    weights += (mass / a)[:, None]
    return weights, mass, sweeps


def _sweep(
    to_transient: np.ndarray, to_active: np.ndarray, to_stranded: np.ndarray,
    weights: np.ndarray, config: PropagationConfig, callback: Callable[[float], None] | None,
) -> tuple[int, float]:
    """One trial's sweeps: adds absorbed trust to ``weights``, returns (sweeps, leak)."""
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
    return iterations, leaked
