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


def _integer(name: str, value) -> int:
    """``value`` as a Python int; a float, string or bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _int64_ids(values, what: str) -> np.ndarray:
    """``values`` as a new flat ``int64`` array; a value that is not an integer
    within int64 raises ValueError rather than being truncated or overflowing."""
    arr = np.asarray(values).reshape(-1)
    try:
        with np.errstate(invalid="ignore"):  # NaN or a float beyond int64: caught below
            ids = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        ids = None
    if ids is None or not np.array_equal(ids, arr):
        raise ValueError(f"{what} must be integers within the signed 64-bit range")
    return ids


class ActiveSet:
    """Immutable non-empty set of node ids acting as representatives,
    held as one sorted, read-only ``int64`` array ``ids``."""

    __slots__ = ("ids",)

    def __init__(self, members: Iterable[int]):
        ids = np.unique(_int64_ids(list(members), "active node ids"))
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

    Edges are kept in canonical (source, target) order; an endpoint
    outside ``0 .. n-1`` or a repeated pair raises ValueError.  Instances are
    immutable: arrays are defensively copied and marked read-only, so a
    network can be shared freely across concurrent readers.
    """

    opinions: np.ndarray
    edge_source: np.ndarray
    edge_target: np.ndarray
    raw_trust: np.ndarray

    def __post_init__(self):
        opinions = np.array(self.opinions, dtype=np.float64).reshape(-1)
        src = _int64_ids(self.edge_source, "edge endpoints")
        tgt = _int64_ids(self.edge_target, "edge endpoints")
        raw = np.array(self.raw_trust, dtype=np.float64).reshape(-1)
        if not len(src) == len(tgt) == len(raw):
            raise ValueError("edge arrays must have identical lengths")
        # the per-node totals and the solvers index by edge endpoints and keep one
        # flow entry per (source, target) pair, so bad endpoints and repeated pairs
        # are structural faults.  Sorted edges put the source extremes at the two
        # ends and make repeated pairs adjacent; edges already in order skip the sort.
        if not np.all((src[1:] > src[:-1]) | (src[1:] == src[:-1]) & (tgt[1:] > tgt[:-1])):
            order = np.lexsort((tgt, src))
            src, tgt, raw = src[order], tgt[order], raw[order]
        n = len(opinions)
        if len(src) and (src[0] < 0 or src[-1] >= n or tgt.min() < 0 or tgt.max() >= n):
            raise ValueError("network has edges with out-of-range endpoints")
        if np.any((src[1:] == src[:-1]) & (tgt[1:] == tgt[:-1])):
            raise ValueError("network has duplicate edges")
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
        norm = _shares(self.edge_source, self.raw_trust, self.n)
        norm.setflags(write=False)
        return norm

    def dangling_nodes(self) -> list[int]:
        """Sorted ids of the nodes whose total raw out-trust is <= 0,
        including every node without out-edges."""
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

    The network is one ``rng.random(n * (k + 1))`` draw, built by
    :func:`_draw_networks` in O(n * k) time and memory.
    """
    if n < 2:
        raise ValueError(f"invalid configuration: need n >= 2, got n={n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"invalid configuration: need 1 <= k <= n-1, got k={k}, n={n}")
    opinions, src, tgt, raw = _draw_networks(rng.random((1, n * (k + 1))), n, k)
    return TrustNetwork(opinions[0], src, tgt, raw)


def _draw_networks(uniforms: np.ndarray, n: int, k: int) -> tuple[np.ndarray, ...]:
    """Opinions (B, n) and flat src, tgt and raw trust of B networks drawn as
    (B, n * (k + 1)) uniforms on [0, 1), node v of network b numbered b * n + v.
    A row's first n values are its opinions; the next n * k, read as n rows of
    k, become the picks of Floyd's sampling (Bentley and Floyd, CACM 1987), row
    v's for node v (:func:`_floyd_picks`).  Raw trust is the opinion similarity
    of an edge's endpoints (:func:`trust_value`), positive: no node dangles."""
    b = len(uniforms)
    targets = _targets(_floyd_picks(uniforms[:, n:].reshape(b, n, k), n))
    src = np.repeat(np.arange(b * n, dtype=np.int64), k)
    tgt = np.add(targets, np.arange(0, b * n, n)[:, None, None], out=targets).ravel()
    opinions = uniforms[:, :n].ravel()
    return opinions.reshape(b, n), src, tgt, trust_value(opinions[src], opinions[tgt])


def _floyd_picks(uniforms: np.ndarray, n: int) -> np.ndarray:
    """Picks of (..., k) uniforms u on [0, 1): pick i is floor(u * m), m = n-k+i,
    so each of 0 .. m-1 has probability 1/m to a relative error of order
    m / 2**53.  The pick is never m: u <= 1 - 2**-53, so for an integer
    1 <= m <= 2**53 the exact product lies at least m * 2**-53 below m.  That is
    more than half the spacing of doubles just below m, or exactly that spacing
    when m is a power of two, so u * m rounds to a double below m."""
    k = uniforms.shape[-1]
    return (uniforms * np.arange(n - k, n)).astype(np.int64)


def _targets(picks: np.ndarray) -> np.ndarray:
    """Targets of (..., n, k) Floyd picks, in place: pick i repeating an earlier
    one becomes n-1-k+i, which none can be, so a row is a uniform k-subset of
    0 .. n-2; sorted and shifted past their node, rows give canonical edges."""
    n, k = picks.shape[-2:]
    for i in range(1, k):
        repeat = (picks[..., :i] == picks[..., i:i + 1]).any(axis=-1)
        picks[..., i][repeat] = n - 1 - k + i
    cols = np.sort(picks, axis=-1)
    return cols + (cols >= np.arange(n)[:, None])


def validate_network(network: TrustNetwork) -> list[str]:
    """Check the caller-supplied values; return one message per violation.

    Never raises: an empty list means the network is valid.  Messages
    identify the offending node or edge by id.  Structure (endpoints in
    range, no repeated pair) is checked when the network is built.
    """
    problems: list[str] = []
    if network.n == 0:
        problems.append("network has no nodes")

    ops = network.opinions
    bad_ops = ~(np.isfinite(ops) & (ops >= 0.0) & (ops <= 1.0))
    for i in np.flatnonzero(bad_ops):
        problems.append(f"node {i}: opinion {float(ops[i])!r} outside [0.0, 1.0]")

    src, tgt, raw = network.edge_source, network.edge_target, network.raw_trust
    self_loop = src == tgt
    bad_raw = ~(np.isfinite(raw) & (raw >= 0.0) & (raw <= 1.0))
    for i in np.flatnonzero(self_loop | bad_raw):
        s, t = int(src[i]), int(tgt[i])
        if self_loop[i]:
            problems.append(f"edge ({s}, {t}): self-loop on node {s}")
        if bad_raw[i]:
            problems.append(f"edge ({s}, {t}): raw trust {float(raw[i])!r} outside [0.0, 1.0]")
    return problems
