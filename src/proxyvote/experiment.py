"""Monte Carlo comparison of traditional and trust-weighted decisions.

For each requested active-set size the harness runs many independent
trials.  A trial builds a random trust network (or reuses a fixed one),
samples an active set uniformly without replacement, and measures the
decision error of the unweighted average of active opinions and of the
delegation-weighted average, both against the whole-population mean.

Every trial derives its own RNG stream from (master seed, active size,
trial index), so results are identical no matter how trials are ordered
or distributed across worker processes.

One kernel runs every trial, ``_BATCH`` (8) trials of one size per pass.
Each trial draws from its own stream as a lone trial would; its O(n^2)
score matrix stays per trial, since stacking them saves no time and only
adds memory.  The rest runs on arrays with a leading trial axis: the
trials form one graph of disjoint copies for reachability, and trials
with equal transient count T share one stacked (G, T, T) solve.  Each
trial's bits are those of the trial run alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .decisions import _decide, decision_error
from .delegation import DelegationError, PropagationConfig, StrandedPolicy, _absorb, _reach
from .network import TrustNetwork, _draw_targets, _shares, generate_network, trust_value

SOLVERS = ("exact", "iterative")
_BATCH = 8


def analytic_traditional_error(active_size: int, n: int) -> float:
    """Expected decision error of the unweighted method under the model.

    For i.i.d. uniform opinions and an active set sampled uniformly
    without replacement, the difference between the active-set mean and
    the population mean has variance (1/12) * (1/a - 1/n); the normal
    approximation of the mean absolute difference is sqrt(2/pi) times
    the standard deviation:

        sqrt(2/pi) * sqrt((1/12) * (1/active_size - 1/n))

    The approximation is good from moderate sizes up and exact (0.0) at
    full participation; it is weakest at active_size 1, where the
    underlying difference is closer to uniform than normal.
    """
    if n < 1 or not 1 <= active_size <= n:
        raise ValueError(f"need 1 <= active_size <= n, got active_size={active_size}, n={n}")
    variance = (1.0 / 12.0) * (1.0 / active_size - 1.0 / n)
    return math.sqrt(2.0 / math.pi) * math.sqrt(max(variance, 0.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Monte Carlo experiment."""

    n: int = 100
    k: int = 3
    trials: int = 10_000
    active_sizes: tuple[int, ...] = (2, 5, 10, 20, 50, 100)
    master_seed: int = 0
    propagation: PropagationConfig = field(
        default_factory=lambda: PropagationConfig(stranded_policy=StrandedPolicy.UNIFORM_TO_ACTIVE)
    )
    fresh_network_per_trial: bool = True
    solver: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "active_sizes", tuple(int(s) for s in self.active_sizes))
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not self.active_sizes:
            raise ValueError("need at least one active size")
        if len(set(self.active_sizes)) != len(self.active_sizes):
            raise ValueError(f"duplicate active sizes: {self.active_sizes}")
        bad = [s for s in self.active_sizes if not 1 <= s <= self.n]
        if bad:
            raise ValueError(f"active sizes out of [1, n]: {bad}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {self.master_seed}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")


@dataclass(frozen=True)
class ActiveSizeStats:
    """Aggregated errors for one active-set size."""

    active_size: int
    trials: int
    mean_err_traditional: float
    stderr_traditional: float
    mean_err_weighted: float
    stderr_weighted: float
    stranded_fraction: float


@dataclass(frozen=True)
class ExperimentResult:
    """One row of statistics per requested active size, ascending."""

    rows: tuple[ActiveSizeStats, ...]
    config: ExperimentConfig


def _trial_rng(config: ExperimentConfig, active_size: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence([config.master_seed, active_size, trial_index])
    return np.random.default_rng(seq)


def _shared_network(config: ExperimentConfig) -> TrustNetwork:
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    return generate_network(config.n, config.k, rng)


def run_trial(
    config: ExperimentConfig,
    active_size: int,
    trial_index: int,
    network: TrustNetwork | None = None,
) -> tuple[float, float, bool]:
    """Run one trial; returns (err_traditional, err_weighted, stranded).

    The trial's randomness comes from a stream derived from
    (master_seed, active_size, trial_index) only.  ``network`` injects a
    fixed network.
    """
    if not 1 <= active_size <= config.n:
        raise ValueError(f"active_size {active_size} out of [1, {config.n}]")
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    if network is not None:
        if network.n != config.n:
            raise ValueError(f"injected network has n={network.n}, config says n={config.n}")
    elif not config.fresh_network_per_trial:
        network = _shared_network(config)
    return _trial_block(config, network, (active_size, trial_index, trial_index + 1))[0]


def _trial_block(
    config: ExperimentConfig, network: TrustNetwork | None, block: tuple[int, int, int]
) -> list[tuple[float, float, bool]]:
    """Triples of trials start..stop-1 at one size.  A failing pass is re-run
    a trial at a time, so the lowest-index failing trial's error is raised,
    with ``trial`` set to (active size, trial index, master seed)."""
    size, start, stop = block
    triples = []
    for lo in range(start, stop, _BATCH):
        hi = min(lo + _BATCH, stop)
        try:
            triples += _kernel(config, network, size, lo, hi)
        except (DelegationError, ValueError) as exc:
            if hi - lo == 1:
                exc.trial = (size, lo, config.master_seed)
                raise
            for i in range(lo, hi):  # the lowest-index failing trial raises here
                _trial_block(config, network, (size, i, i + 1))
            raise
    return triples


def _kernel(
    config: ExperimentConfig, network: TrustNetwork | None, size: int, lo: int, hi: int
) -> list[tuple[float, float, bool]]:
    """Trials lo..hi-1 at one active size in one pass; ``network`` None
    draws a fresh network per trial."""
    n, b = config.n, hi - lo
    drawn, active = [], []
    for i in range(lo, hi):
        rng = _trial_rng(config, size, i)
        if network is None:
            drawn.append(_draw_targets(n, config.k, rng))
        active.append(rng.choice(n, size=size, replace=False))
    active = np.sort(active, axis=1)
    offset = np.arange(0, b * n, n)[:, None]
    if network is None:
        opinions, targets = map(np.array, zip(*drawn))
        src = (np.repeat(np.arange(n), config.k) + offset).ravel()
        tgt = (targets + offset).ravel()
        norm = _shares(src, trust_value(opinions.ravel()[src], opinions.ravel()[tgt]), b * n)
    else:
        opinions = np.broadcast_to(network.opinions, (b, n))
        src, tgt = (network.edge_source + offset).ravel(), (network.edge_target + offset).ravel()
        norm = np.tile(network.normalized_trust, b)
    stranded = ~_reach(src, tgt, norm, (active + offset).ravel(), b * n).reshape(b, n)
    sweeps = config.propagation if config.solver == "iterative" else None
    weights, mass, _ = _absorb(n, src, tgt, norm, active, stranded,
                               config.propagation.stranded_policy, sweeps)
    outcome, expected, weighted = _decide(opinions, active, weights)
    err_t, err_w = decision_error(outcome, expected), decision_error(weighted, expected)
    return list(zip(err_t.tolist(), err_w.tolist(), (mass > 0.0).tolist()))


def run_experiment(
    config: ExperimentConfig,
    network: TrustNetwork | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Run all trials for every active size and aggregate per-size stats.

    Trials are cut into (size, start, stop) blocks.  With ``workers`` = 1
    the blocks run in this process; with more they run on one pool of
    that many processes (at most ``os.cpu_count()``).  Blocks come back
    in submission order and trials are seeded by index, so the aggregate
    is identical for any worker count.  The first failing block's error
    is raised and blocks not yet started are cancelled.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be in [1, {cpus}] (the CPU count), got {workers}")
    if network is not None:
        if config.fresh_network_per_trial:
            raise ValueError("injected network requires fresh_network_per_trial=False")
        if network.n != config.n:
            raise ValueError(f"injected network has n={network.n}, config says n={config.n}")
    elif not config.fresh_network_per_trial:
        network = _shared_network(config)

    sizes = sorted(config.active_sizes)
    chunk = max(1, -(-config.trials // (workers * 4)))
    blocks = [
        (size, start, min(start + chunk, config.trials))
        for size in sizes
        for start in range(0, config.trials, chunk)
    ]
    block_fn = partial(_trial_block, config, network)
    if workers == 1:
        results = list(map(block_fn, blocks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_fn, blocks))
    triples = [triple for block in results for triple in block]
    err_t, err_w, stranded = (
        np.array(column).reshape(len(sizes), config.trials) for column in zip(*triples)
    )
    rows = tuple(map(_aggregate, sizes, err_t, err_w, stranded))
    return ExperimentResult(rows=rows, config=config)


def _aggregate(size: int, err_t: np.ndarray, err_w: np.ndarray, stranded: np.ndarray) -> ActiveSizeStats:
    trials = len(err_t)
    scale = math.sqrt(trials)
    return ActiveSizeStats(
        active_size=size,
        trials=trials,
        mean_err_traditional=float(np.mean(err_t)),
        stderr_traditional=float(np.std(err_t, ddof=1) / scale) if trials > 1 else 0.0,
        mean_err_weighted=float(np.mean(err_w)),
        stderr_weighted=float(np.std(err_w, ddof=1) / scale) if trials > 1 else 0.0,
        stranded_fraction=float(np.mean(stranded)),
    )
