"""Trust networks: opinions, directed trust edges, generation, validation.

A trust network is a directed weighted graph over ``n`` individuals,
identified by dense integer ids ``0 .. n-1``.  Each node holds an opinion
in [0, 1]; each directed edge (p, q) carries the raw trust p places in q
and, once the network has been normalized, the fraction of p's total
outgoing trust that q receives.  Normalized out-edge fractions of a
non-dangling node sum to one, so they can be read as the percentages of
that node's unit of trust.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

#: per-node normalized out-trust must sum to 1 within this bound
NORMALIZATION_TOL = 1e-12


def trust_value(opinion_p: float, opinion_q: float) -> float:
    """Trust between two individuals from opinion similarity.

    Equal opinions give trust 1.0, maximally distant opinions give 0.0.
    Symmetric in its arguments; accepts scalars or numpy arrays.
    """
    return 1.0 - abs(opinion_p - opinion_q)


class ActiveSet:
    """Immutable non-empty set of node ids acting as representatives."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int]):
        ids = frozenset(int(i) for i in members)
        if not ids:
            raise ValueError("active set must contain at least one node")
        if min(ids) < 0:
            raise ValueError("active set contains negative node ids")
        object.__setattr__(self, "members", ids)

    def __setattr__(self, name, value):
        raise AttributeError("ActiveSet is immutable")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, node: object) -> bool:
        return node in self.members

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ActiveSet):
            return self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"ActiveSet({sorted(self.members)})"

    def sorted_ids(self) -> np.ndarray:
        return np.array(sorted(self.members), dtype=np.int64)

    def validate_for(self, n: int) -> None:
        """Raise ValueError unless all members are valid ids of an n-node network."""
        bad = [i for i in sorted(self.members) if not 0 <= i < n]
        if bad:
            raise ValueError(f"active node ids out of range for {n}-node network: {bad}")


@dataclass(frozen=True, eq=False)
class TrustNetwork:
    """Array-backed directed trust network.

    Edges are kept in canonical (source, target) order.  Instances are
    immutable: arrays are defensively copied and marked read-only, so a
    network can be shared freely across concurrent readers.

    ``normalized_trust`` is None for a raw network; :func:`normalize_outgoing`
    returns a copy with the per-node out-distributions filled in.
    """

    opinions: np.ndarray
    edge_source: np.ndarray
    edge_target: np.ndarray
    raw_trust: np.ndarray
    normalized_trust: np.ndarray | None = None

    def __post_init__(self):
        opinions = np.array(self.opinions, dtype=np.float64).reshape(-1)
        src = np.array(self.edge_source, dtype=np.int64).reshape(-1)
        tgt = np.array(self.edge_target, dtype=np.int64).reshape(-1)
        raw = np.array(self.raw_trust, dtype=np.float64).reshape(-1)
        if not len(src) == len(tgt) == len(raw):
            raise ValueError("edge arrays must have identical lengths")
        norm = self.normalized_trust
        if norm is not None:
            norm = np.array(norm, dtype=np.float64).reshape(-1)
            if len(norm) != len(src):
                raise ValueError("normalized_trust length must match edge count")
        order = np.lexsort((tgt, src))
        src, tgt, raw = src[order], tgt[order], raw[order]
        if norm is not None:
            norm = norm[order]
            norm.setflags(write=False)
        for arr in (opinions, src, tgt, raw):
            arr.setflags(write=False)
        object.__setattr__(self, "opinions", opinions)
        object.__setattr__(self, "edge_source", src)
        object.__setattr__(self, "edge_target", tgt)
        object.__setattr__(self, "raw_trust", raw)
        object.__setattr__(self, "normalized_trust", norm)

    @property
    def n(self) -> int:
        return len(self.opinions)

    @property
    def edge_count(self) -> int:
        return len(self.edge_source)

    @property
    def is_normalized(self) -> bool:
        return self.normalized_trust is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrustNetwork):
            return NotImplemented
        if self.n != other.n or self.edge_count != other.edge_count:
            return False
        same = (
            np.array_equal(self.opinions, other.opinions)
            and np.array_equal(self.edge_source, other.edge_source)
            and np.array_equal(self.edge_target, other.edge_target)
            and np.array_equal(self.raw_trust, other.raw_trust)
        )
        if not same:
            return False
        if (self.normalized_trust is None) != (other.normalized_trust is None):
            return False
        if self.normalized_trust is None:
            return True
        return np.array_equal(self.normalized_trust, other.normalized_trust)


def _check_structure(network: TrustNetwork) -> None:
    # operations below index opinions by edge endpoints; bad endpoints are a
    # structural fault, not a value-level violation
    if network.edge_count:
        src, tgt = network.edge_source, network.edge_target
        if src.min() < 0 or src.max() >= network.n or tgt.min() < 0 or tgt.max() >= network.n:
            raise ValueError("network has edges with out-of-range endpoints")


def normalize_outgoing(network: TrustNetwork) -> tuple[TrustNetwork, list[int]]:
    """Normalize every node's outgoing raw trust into a unit distribution.

    Returns the normalized network together with the sorted list of
    dangling node ids.  A node is dangling when it has no out-edges or
    when all its raw out-trusts are zero; such a node gets no normalized
    out-distribution (its edge rows, if any, carry normalized trust 0.0).

    Raw values are preserved, so normalizing twice equals normalizing once.
    """
    _check_structure(network)
    n = network.n
    totals = np.bincount(network.edge_source, weights=network.raw_trust, minlength=n)
    degrees = np.bincount(network.edge_source, minlength=n)
    dangling_mask = (degrees == 0) | (totals <= 0.0)
    norm = np.zeros(network.edge_count, dtype=np.float64)
    live = ~dangling_mask[network.edge_source]
    norm[live] = network.raw_trust[live] / totals[network.edge_source[live]]
    normalized = replace(network, normalized_trust=norm)
    return normalized, [int(i) for i in np.flatnonzero(dangling_mask)]


def generate_network(n: int, k: int, rng: np.random.Generator) -> TrustNetwork:
    """Generate a random k-out trust network of n nodes, already normalized.

    Parameters
    ----------
    n : int
        Population size, at least 2.
    k : int
        Out-degree: every node trusts exactly k distinct other nodes,
        chosen uniformly without replacement.  Requires 1 <= k <= n-1.
    rng : numpy.random.Generator
        Source of randomness; identical streams yield identical networks.

    Opinions are drawn uniformly from [0, 1); each edge's raw trust is
    the opinion similarity of its endpoints (:func:`trust_value`).
    """
    if n < 2:
        raise ValueError(f"invalid configuration: need n >= 2, got n={n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"invalid configuration: need 1 <= k <= n-1, got k={k}, n={n}")
    opinions = rng.random(n)
    # k smallest of n-1 iid uniforms per row = uniform k-subset of the others
    scores = rng.random((n, n - 1))
    # sorted picks give canonical edge order, so row totals add up as in normalize_outgoing
    picks = np.sort(np.argpartition(scores, k - 1, axis=1)[:, :k], axis=1)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = picks.reshape(-1)
    tgt = np.where(cols < src, cols, cols + 1)
    raw = trust_value(opinions[src], opinions[tgt])
    # opinions lie in [0, 1), so every raw trust is positive and no node dangles
    totals = np.bincount(src, weights=raw, minlength=n)
    return TrustNetwork(opinions, src, tgt, raw, raw / totals[src])


def validate_network(network: TrustNetwork) -> list[str]:
    """Check every network invariant; return one message per violation.

    Never raises: an empty list means the network is valid.  Messages
    identify the offending node or edge by id.
    """
    problems: list[str] = []
    n = network.n
    if n == 0:
        problems.append("network has no nodes")

    ops = network.opinions
    bad_ops = ~(np.isfinite(ops) & (ops >= 0.0) & (ops <= 1.0))
    for i in np.flatnonzero(bad_ops):
        problems.append(f"node {i}: opinion {float(ops[i])!r} outside [0.0, 1.0]")

    src, tgt, raw = network.edge_source, network.edge_target, network.raw_trust
    bad_source = (src < 0) | (src >= n)
    bad_target = (tgt < 0) | (tgt >= n)
    self_loop = src == tgt
    bad_raw = ~(np.isfinite(raw) & (raw >= 0.0) & (raw <= 1.0))
    for i in np.flatnonzero(bad_source | bad_target | self_loop | bad_raw):
        s, t = int(src[i]), int(tgt[i])
        if bad_source[i]:
            problems.append(f"edge ({s}, {t}): source node {s} out of range")
        if bad_target[i]:
            problems.append(f"edge ({s}, {t}): target node {t} out of range")
        if self_loop[i]:
            problems.append(f"edge ({s}, {t}): self-loop on node {s}")
        if bad_raw[i]:
            problems.append(f"edge ({s}, {t}): raw trust {float(raw[i])!r} outside [0.0, 1.0]")

    # canonical order makes duplicates adjacent
    duplicate = (src[1:] == src[:-1]) & (tgt[1:] == tgt[:-1])
    for i in np.flatnonzero(duplicate) + 1:
        problems.append(f"duplicate edge ({src[i]}, {tgt[i]})")

    norm = network.normalized_trust
    if norm is not None and not np.any(bad_source | bad_target):
        bad_norm = ~(np.isfinite(norm) & (norm >= 0.0) & (norm <= 1.0))
        for i in np.flatnonzero(bad_norm):
            problems.append(
                f"edge ({src[i]}, {tgt[i]}): normalized trust {float(norm[i])!r} outside [0.0, 1.0]"
            )
        if not np.any(bad_norm) and n > 0:
            totals = np.bincount(src, weights=raw, minlength=n)
            degrees = np.bincount(src, minlength=n)
            norm_sums = np.bincount(src, weights=norm, minlength=n)
            trusting = totals > 0.0
            bad_sum = trusting & (np.abs(norm_sums - 1.0) > NORMALIZATION_TOL)
            bad_dangling = ~trusting & (norm_sums != 0.0)
            for i in np.flatnonzero((degrees > 0) & (bad_sum | bad_dangling)):
                if bad_sum[i]:
                    problems.append(
                        f"node {i}: normalized out-trust sums to {float(norm_sums[i])!r}, not 1.0"
                    )
                else:
                    problems.append(
                        f"node {i}: dangling node carries nonzero normalized trust"
                    )
    return problems
