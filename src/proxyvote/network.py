"""Trust networks: opinions, directed trust edges, generation, validation.

A trust network is a directed weighted graph over ``n`` individuals,
identified by dense integer ids ``0 .. n-1``.  Each node holds an opinion
in [0, 1]; each directed edge (p, q) carries the raw trust p places in q,
and its normalized trust is the fraction of p's total outgoing raw trust
that q receives.  Normalized out-edge fractions of a non-dangling node
sum to one, so they can be read as the percentages of that node's unit
of trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np


def trust_value(opinion_p: float, opinion_q: float) -> float:
    """Trust between two individuals from opinion similarity.

    Equal opinions give trust 1.0, maximally distant opinions give 0.0.
    Symmetric in its arguments; accepts scalars or numpy arrays.
    """
    return 1.0 - abs(opinion_p - opinion_q)


class ActiveSet:
    """Immutable non-empty set of node ids acting as representatives,
    held as one sorted, read-only ``int64`` array ``ids``."""

    __slots__ = ("ids",)

    def __init__(self, members: Iterable[int]):
        try:
            ids = np.array(sorted({int(i) for i in members}), dtype=np.int64)
        except OverflowError:
            raise ValueError("active node ids must fit in a signed 64-bit integer") from None
        if not ids.size:
            raise ValueError("active set must contain at least one node")
        if ids[0] < 0:
            raise ValueError("active set contains negative node ids")
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)

    def __setattr__(self, name, value):
        raise AttributeError("ActiveSet is immutable")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __contains__(self, node: object) -> bool:
        return node in self.ids.tolist()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ActiveSet):
            return np.array_equal(self.ids, other.ids)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.ids.tolist()))

    def __repr__(self) -> str:
        return f"ActiveSet({self.ids.tolist()})"

    def validate_for(self, n: int) -> None:
        """Raise ValueError unless all members are valid ids of an n-node network."""
        bad = self.ids[self.ids >= n].tolist()
        if bad:
            raise ValueError(f"active node ids out of range for {n}-node network: {bad}")


@dataclass(frozen=True, eq=False)
class TrustNetwork:
    """Array-backed directed trust network.

    Edges are kept in canonical (source, target) order.  Instances are
    immutable: arrays are defensively copied and marked read-only, so a
    network can be shared freely across concurrent readers.
    """

    opinions: np.ndarray
    edge_source: np.ndarray
    edge_target: np.ndarray
    raw_trust: np.ndarray

    def __post_init__(self):
        opinions = np.array(self.opinions, dtype=np.float64).reshape(-1)
        src = np.array(self.edge_source, dtype=np.int64).reshape(-1)
        tgt = np.array(self.edge_target, dtype=np.int64).reshape(-1)
        raw = np.array(self.raw_trust, dtype=np.float64).reshape(-1)
        if not len(src) == len(tgt) == len(raw):
            raise ValueError("edge arrays must have identical lengths")
        order = np.lexsort((tgt, src))
        src, tgt, raw = src[order], tgt[order], raw[order]
        for arr in (opinions, src, tgt, raw):
            arr.setflags(write=False)
        object.__setattr__(self, "opinions", opinions)
        object.__setattr__(self, "edge_source", src)
        object.__setattr__(self, "edge_target", tgt)
        object.__setattr__(self, "raw_trust", raw)

    @property
    def n(self) -> int:
        return len(self.opinions)

    @property
    def edge_count(self) -> int:
        return len(self.edge_source)

    @cached_property
    def normalized_trust(self) -> np.ndarray:
        """Each edge's share of its source's total raw out-trust, 0.0 where
        that total is <= 0; read-only, computed on first use."""
        _check_structure(self)
        norm = _shares(self.edge_source, self.raw_trust, self.n)
        norm.setflags(write=False)
        return norm

    def dangling_nodes(self) -> list[int]:
        """Sorted ids of the nodes whose total raw out-trust is <= 0,
        including every node without out-edges."""
        _check_structure(self)
        totals = np.bincount(self.edge_source, weights=self.raw_trust, minlength=self.n)
        return np.flatnonzero(totals <= 0.0).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrustNetwork):
            return NotImplemented
        return (
            np.array_equal(self.opinions, other.opinions)
            and np.array_equal(self.edge_source, other.edge_source)
            and np.array_equal(self.edge_target, other.edge_target)
            and np.array_equal(self.raw_trust, other.raw_trust)
        )


def _shares(src: np.ndarray, raw: np.ndarray, nodes: int) -> np.ndarray:
    """Each edge's share of its source's total raw out-trust, 0.0 where that
    total is <= 0; the edges of a node are summed in their array order."""
    totals = np.bincount(src, weights=raw, minlength=nodes)[src]
    return np.divide(raw, totals, out=np.zeros(len(raw)), where=totals > 0.0)


def _check_structure(network: TrustNetwork) -> None:
    # the per-node totals and the solvers index by edge endpoints and keep one
    # flow entry per (source, target) pair, so bad endpoints and repeated pairs
    # are structural faults.  Edges are in canonical order: source extremes are
    # the first and last entries, and repeated pairs are adjacent.
    if network.edge_count:
        src, tgt = network.edge_source, network.edge_target
        if src[0] < 0 or src[-1] >= network.n or tgt.min() < 0 or tgt.max() >= network.n:
            raise ValueError("network has edges with out-of-range endpoints")
        if np.any((src[1:] == src[:-1]) & (tgt[1:] == tgt[:-1])):
            raise ValueError("network has duplicate edges")


def generate_network(n: int, k: int, rng: np.random.Generator) -> TrustNetwork:
    """Generate a random k-out trust network of n nodes.

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
    opinions, tgt = _draw_targets(n, k, rng)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    # opinions lie in [0, 1), so every raw trust is positive and no node dangles
    return TrustNetwork(opinions, src, tgt, trust_value(opinions[src], opinions[tgt]))


def _draw_targets(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Opinions and the k out-targets of every node, drawn from ``rng``;
    targets ascend per node, so edges from ``np.repeat(np.arange(n), k)`` are canonical."""
    opinions = rng.random(n)
    # k smallest of n-1 iid uniforms per row = uniform k-subset of the others
    scores = rng.random((n, n - 1))
    cols = np.sort(np.argpartition(scores, k - 1, axis=1)[:, :k], axis=1)
    return opinions, (cols + (cols >= np.arange(n)[:, None])).reshape(-1)


def validate_network(network: TrustNetwork) -> list[str]:
    """Check the caller-supplied values; return one message per violation.

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
    return problems
