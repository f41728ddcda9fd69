"""Delegation weights from trust propagation.

Every node starts with one unit of trust.  Non-representative nodes pass
the trust they hold along their normalized out-edges; representatives
(the active set) collect trust and never redistribute it.  When all
mobile trust has been absorbed, the weight of an active node is its own
unit plus everything that flowed to it, and the weights sum to the
population size.

Two interchangeable computations are provided:

* :func:`compute_weights_iterative` runs the redistribution sweeps over
  the edge list until the mobile residual falls below a tolerance, or
  until the walk has settled into its slowest mode and the rest of it is
  summed in closed form.
* :func:`compute_weights_exact` treats active nodes as absorbing states
  and solves the dense linear system for absorption probabilities.

Trust held by nodes with no directed path to any active node can never
be absorbed; the stranded policy decides whether that is an error or is
split evenly among the representatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .network import ActiveSet, TrustNetwork, _integer

#: bound on |sum of weights - n| that a weight vector must meet
CONSERVATION_TOL = 1e-6
#: byte limit of one trial's T x T block in the exact solve; a larger one raises MemoryError
EXACT_BLOCK_BYTES = 2**30
#: largest T x T block solved without elimination first (T <= 362; README)
_GATE_BYTES = 2**20
#: largest fill p s (transient predecessors times successors) of a node eliminated before the dense solve
_FILL = 128


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
    """Termination and degeneracy knobs for the iterative sweeps: a solve
    stops below ``tolerance`` or when its tail closes
    (:func:`compute_weights_iterative`), and ``max_iterations`` sweeps
    without either raise :class:`NoConvergenceError`.  The policy may be
    given by its value (``"uniform"``) and is stored as a member; a tolerance
    that is not a number (a bool or a string) or a budget that is not an
    integer raises ValueError."""

    tolerance: float = 1e-9
    max_iterations: int = 100_000
    stranded_policy: StrandedPolicy = StrandedPolicy.REJECT

    def __post_init__(self):
        if isinstance(self.tolerance, bool) or not isinstance(
                self.tolerance, (int, float, np.integer, np.floating)):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        try:
            object.__setattr__(self, "tolerance", float(self.tolerance))
        except OverflowError:  # an int beyond the doubles
            raise ValueError("tolerance is beyond the float range") from None
        if not (self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        object.__setattr__(self, "stranded_policy", StrandedPolicy(self.stranded_policy))
        object.__setattr__(self, "max_iterations", _integer("max_iterations", self.max_iterations))
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
    the number of sweeps the iterative path ran before it stopped, at the
    tolerance or by closing the tail; None for the exact solver.
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
) -> WeightVector:
    """Propagate trust by synchronous sweeps until absorbed by the active set.

    Each active node keeps its own unit; each transient node starts with
    one mobile unit.  Per sweep, every transient node sends all trust it
    holds along its normalized out-edges simultaneously; trust arriving
    at active nodes is absorbed.  Sweeps stop at the first of two events:

    * the total mobile trust drops below ``config.tolerance``; the
      residual left then is dropped, so the weights sum to the population
      size within it;
    * the tail closes: on each of the last two sweeps the split of what
      was absorbed over two sweeps (per active node, plus what leaked to
      stranded nodes) moved by <= 8 eps (A + 1) in L1, and the residual
      ratio residual_t / residual_{t-2} by <= 8 eps (eps the float64
      machine epsilon).  The walk is then in its slowest mode to rounding,
      every later sweep absorbs that same split of what is left, and the
      whole residual is handed out in it: the geometric tail of the
      Neumann series summed in closed form (Brezinski and Redivo-Zaglia,
      *Extrapolation Methods*, 1991).

    Raises :class:`StrandedTrustError` if nodes are stranded under the
    REJECT policy and :class:`NoConvergenceError` if
    ``config.max_iterations`` sweeps end in neither event.
    """
    return _weight_vector(network, active, config.stranded_policy, config)


def compute_weights_exact(
    network: TrustNetwork,
    active: ActiveSet,
    stranded_policy: StrandedPolicy = StrandedPolicy.REJECT,
) -> WeightVector:
    """Closed-form delegation weights via the absorbing-chain linear system.

    With Q the transient-to-transient and R the transient-to-active
    blocks of the normalized trust matrix, the absorption probabilities
    X solve (I - Q) X = R, and the weight of active node a is
    ``1 + sum_t X[t, a] = 1 + sum_t y[t] R[t, a]`` (y solving the adjoint
    (I - Q)^T y = 1) plus any stranded mass assigned by policy.  After
    stranded nodes are removed every transient node reaches an absorber,
    so I - Q is nonsingular; a singular report, or a solution whose
    absorbed mass misses the transient count by more than
    ``CONSERVATION_TOL`` (a near-closed trust cycle), is surfaced as
    :class:`SingularSystemError`.  A T x T block over 1 MiB (T > 362) first
    eliminates, in rounds, its nodes of low fill (at most one transient
    predecessor or successor, or at most 128 pairs of them), and factors only
    the core of C nodes left (C = T otherwise); a C x C block over
    ``EXACT_BLOCK_BYTES`` (C > 11,585) raises MemoryError before it is allocated.
    ``stranded_policy`` may be given by its value, as in :class:`PropagationConfig`.
    """
    return _weight_vector(network, active, StrandedPolicy(stranded_policy))


def _weight_vector(
    network: TrustNetwork, active: ActiveSet, policy: StrandedPolicy,
    config: PropagationConfig | None = None,
) -> WeightVector:
    """:func:`_absorb` on a batch of one; ``config`` None selects the exact solve.
    The partition validates ``active`` and is the solve's one search, traced
    as its own step (``bench/traced.py``)."""
    reached = np.ones((1, network.n), dtype=bool)
    reached[0, reachability_partition(network, active).stranded] = False
    weights, mass, sweeps = _absorb(
        network.n, network.edge_source, network.edge_target, network.normalized_trust,
        active.ids[None], reached, policy, config,
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
    reached: np.ndarray, policy: StrandedPolicy, config: PropagationConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delegation weights of B trials of n nodes each (node v of trial b
    is b*n + v in the edge arrays); ``active`` (B, A) holds each trial's
    sorted active ids and ``reached`` (B, n) marks the nodes that reach one
    (:func:`_reach`).  ``policy`` rejects the trust of the other nodes or
    splits it evenly over the weights.  Given a sweep ``config``, all trials
    sweep their live edges together, each until its residual is below the
    tolerance or its tail closes; otherwise a trial of T > 362 transient nodes
    eliminates its low-fill ones, each group of equal core count C (C = T for
    the rest) takes one stacked adjoint solve, back-substitution solves the
    eliminated nodes, and one bincount adds the flows.  Returns (weights (B, A),
    stranded mass (B,), sweeps used (B,)).
    """
    b, a = active.shape
    if policy is StrandedPolicy.REJECT and not reached.all():
        raise StrandedTrustError(np.flatnonzero(~reached[reached.all(axis=1).argmin()]).tolist())
    # each node's bin among its trial's [weights (A) | leak]: its rank if active, else A
    bin_of = np.full(b * n, a)
    np.put_along_axis(bin_of.reshape(b, n), active, np.arange(a), axis=1)
    transient = reached.ravel() & (bin_of == a)
    t_count = np.count_nonzero(transient.reshape(b, n), axis=1)
    live = (norm > 0.0) & transient[src]
    src, tgt, w = src[live], tgt[live], norm[live]

    weights, leaked, sweeps = np.ones((b, a)), np.zeros(b), np.zeros(b, dtype=np.int64)
    trial = src // n
    # a flow, a sweep's or the exact solve's, is one bincount of every live
    # edge into its bin of [next mobile (B*n) | per trial: weights (A), leak (1)]
    into_t, bins = transient[tgt], b * (n + a + 1)
    dest = np.where(into_t, tgt, b * n + trial * (a + 1) + bin_of[tgt])
    if config is not None:
        # a trial whose residual drops below the tolerance, or whose tail
        # closes, stops and its edges leave the arrays, so it gets the bits it gets alone
        absorbed = np.hstack((weights, leaked[:, None]))
        mobile, running, iterations = transient.astype(float), np.ones(b, dtype=bool), 0
        # the tail test of compute_weights_iterative: the O(B) ratio test runs
        # every sweep; ``run`` counts a trial's calm ratios in a row, and its
        # O(A) split test runs once ``run`` reaches ``need``: 2, after a failed
        # test 5/4 of ``run`` plus 1, and 2 again when the run breaks, so a
        # ratio that settles long before the split (a period-3 cycle) costs
        # O(log sweeps) tests
        eps = 8 * np.finfo(float).eps
        took = [np.zeros((b, a + 1))] * 4  # absorbed on each of the last four sweeps
        res = [np.full(b, np.nan)] * 2 + [t_count.astype(float)]  # the last three residuals
        ratio, run, need = np.full(b, np.nan), np.zeros(b, dtype=np.int64), np.full(b, 2)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 is NaN: never calm
            while True:
                done = running & (res[2] < config.tolerance)
                ready = np.flatnonzero(running & (run >= need))
                if ready.size:
                    flows = np.stack([t[ready] for t in took])
                    pair = flows[:-1] + flows[1:]  # absorbed over sweeps t-1 and t, for the last three t
                    split = pair / pair.sum(axis=2, keepdims=True)
                    steady = np.abs(split[1:] - split[:-1]).sum(axis=2).max(axis=0) <= eps * (a + 1)
                    need[ready] = run[ready] * 5 // 4 + 1
                    closed = ready[steady]
                    absorbed[closed] += res[2][closed, None] * split[2, steady]
                    done[closed] = True
                if done.any():
                    sweeps[done] = iterations
                    running &= ~done
                    if not running.any():
                        break
                    keep = running[trial]
                    src, dest, w, trial = src[keep], dest[keep], w[keep], trial[keep]
                if iterations == config.max_iterations:
                    raise NoConvergenceError(
                        f"residual mobile trust {float(res[2][running.argmax()])!r} after "
                        f"{iterations} sweeps (tolerance {config.tolerance!r})"
                    )
                flow = np.bincount(dest, weights=mobile[src] * w, minlength=bins)
                took = took[1:] + [flow[b * n:].reshape(b, a + 1)]
                absorbed += took[3]
                mobile = flow[:b * n]
                res = res[1:] + [mobile.reshape(b, n).sum(axis=1)]
                iterations += 1
                ratio, last_ratio = res[2] / res[0], ratio
                run = (run + 1) * (np.abs(ratio - last_ratio) <= eps)
                need[run == 0] = 2
        weights, leaked = absorbed[:, :a], absorbed[:, a]
    else:
        # y[t] of (I - Q)^T y = 1 is the expected visits of all transient units to t
        # (Kemeny and Snell), so one flow of y adds what every sweep would: active a
        # absorbs y[t] * w over edge t -> a; y[v] holds rhs[v] until v is solved, d[v] its pivot
        nodes, core, steps = b * n, transient, []
        y, d = np.ones((2, nodes))
        qs, qt, qw = src[into_t], tgt[into_t], w[into_t]
        if int(t_count.max()) ** 2 * 8 > _GATE_BYTES:
            # a trial over the gate first eliminates, round by round, an independent set of
            # nodes of low fill (README): in-edge u -> v and out-edge v -> z of a node v that goes
            # add q(v, z) rhs[v] / d[v] to rhs[z] and q(u, v) q(v, z) / d[v] to u -> z (z = u: off d[u])
            gated = np.repeat(t_count ** 2 * 8 > _GATE_BYTES, n)
            # Fibonacci hash of the local id, so a trial's rounds do not depend on its batch
            h = (np.arange(nodes) % n).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            while True:
                # repeated edges merge, sorted by target, so p and s count distinct neighbours; kept
                # edges stay one sorted run that timsort merges the fill into, repeats add in order
                key = qt * nodes + qs
                order = np.argsort(key, kind="stable")
                first = np.diff(key[order], prepend=-1) != 0
                qw, merged = np.bincount(np.cumsum(first) - 1, qw[order]), order[first]
                qt, qs = qt[merged], qs[merged]
                p, s = np.bincount(qt, minlength=nodes), np.bincount(qs, minlength=nodes)
                fill = p * s
                free = core & gated & ((p <= 1) | (s <= 1) | (fill <= _FILL))
                tail, head, gone, won = qs, qt, np.zeros(nodes, dtype=bool), free
                # Luby to completion (README): a free node of key (p s, h) below its free neighbours' goes,
                # and it and they leave the free set; a pass where none goes (self-loops lose) ends it
                while won.any() and free.any():
                    both = free[tail] & free[head]
                    tail, head = tail[both], head[both]
                    later = (fill[tail] > fill[head]) | (fill[tail] == fill[head]) & (h[tail] > h[head])
                    won = free.copy()
                    won[np.where(later, tail, head)] = False
                    gone |= won
                    free[tail[won[head]]] = free[head[won[tail]]] = free[won] = False
                if not gone.any():
                    break
                if not (d[gone] > 0.0).all():
                    raise SingularSystemError(f"absorption system reported singular: pivot {d[gone].min()}")
                into, out = gone[qt], gone[qs]
                steps.append((gone, qs[into], qt[into], qw[into]))
                _, iu, iv, iq = steps[-1]  # in-edges u -> v, sorted by v
                v, z = qs[out], qt[out]
                share, ins = qw[out] / d[v], p[v]
                y += np.bincount(z, share * y[v], nodes)
                # out-edge v -> z repeats once per in-edge of v; those sit in a run from searchsorted
                pick = np.repeat(np.searchsorted(iv, v) - np.cumsum(ins) + ins, ins) + np.arange(ins.sum())
                u, z, share = iu[pick], np.repeat(z, ins), iq[pick] * np.repeat(share, ins)
                d -= np.bincount(u[u == z], share[u == z], nodes)
                keep, new, core = ~(into | out), u != z, core & ~gone
                qs, qt, qw = (np.append(e[keep], f[new]) for e, f in ((qs, u), (qt, z), (qw, share)))
        # a trial at or under the gate keeps core = transient, d = 1; its C core nodes rank 0..C-1
        ranks = np.cumsum(core.reshape(b, n), axis=1)
        c_count, ranks = ranks[:, -1], ranks.ravel() - 1
        counts, qtrial = np.flatnonzero(np.bincount(c_count)), qs // n
        if (top := int(counts[-1])) ** 2 * 8 > EXACT_BLOCK_BYTES:
            # the guard is per trial: a caller batching trials keeps their stack small
            raise MemoryError(f"the exact solve of {top} transient nodes needs {top ** 2 * 8} bytes, "
                              f"over the limit of {EXACT_BLOCK_BYTES} bytes; use the iterative solver")
        for t in counts[counts > 0]:
            group = np.flatnonzero(c_count == t)
            members = np.flatnonzero(core & np.repeat(c_count == t, n))  # in (slot, rank) order
            mine = c_count[qtrial] == t
            # I - Q built in place (d + (-w) == d - w exactly); LAPACK takes its transpose
            m = np.zeros((len(group), t, t))
            slot = np.searchsorted(group, qtrial[mine])
            m.reshape(-1)[(slot * t + ranks[qs[mine]]) * t + ranks[qt[mine]]] = -qw[mine]
            m.reshape(len(group), -1)[:, ::t + 1] += d[members].reshape(-1, t)
            try:
                y[members] = np.linalg.solve(m.swapaxes(1, 2), y[members].reshape(-1, t, 1)).ravel()
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"absorption system reported singular: {exc}") from exc
        for gone, s, z, q in reversed(steps):  # back-substitution, last round first
            y[gone] = (y[gone] + np.bincount(z, q * y[s], nodes)[gone]) / d[gone]
        flow = np.bincount(dest, weights=y[src] * w, minlength=bins)
        absorbed_by = flow[b * n:].reshape(b, a + 1)[:, :a]
        weights += absorbed_by
        # each transient unit ends absorbed or stranded, so the solve's leftover leaks; in a
        # trial where no trust flowed into a stranded node nothing leaked, and it is fp residue
        absorbed = absorbed_by.sum(axis=1)
        lost, shut = t_count - absorbed, flow[b * n + a::a + 1] == 0.0
        # written so that a NaN leak (a subnormal pivot) fails too
        bad = ~(lost >= -CONSERVATION_TOL) | (shut & (lost > CONSERVATION_TOL))
        if bad.any():
            raise SingularSystemError(
                f"absorption system too ill-conditioned: {float(absorbed[bad.argmax()])!r} "
                f"of {t_count[bad.argmax()]} transient units absorbed"
            )
        leaked = np.where(shut, 0.0, np.maximum(0.0, lost))
    mass = n - a - t_count + leaked
    weights += (mass / a)[:, None]
    return weights, mass, sweeps

