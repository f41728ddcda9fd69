"""Monte Carlo comparison of traditional and trust-weighted decisions.

For each requested active-set size the harness runs many independent
trials.  A trial builds a random trust network (or reuses a fixed one),
samples an active set uniformly without replacement, and measures the
decision error of the unweighted average of active opinions and of the
delegation-weighted average, both against the whole-population mean.

Every trial derives its own RNG stream from (master seed, active size,
trial index), so results are identical no matter how trials are ordered
or distributed across worker processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .decisions import decision_report
from .delegation import (
    PropagationConfig,
    StrandedPolicy,
    WeightVector,
    compute_weights_exact,
    compute_weights_iterative,
)
from .network import ActiveSet, TrustNetwork, generate_network

SOLVERS = ("exact", "iterative")


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


def _solve_weights(
    network: TrustNetwork, active: ActiveSet, config: ExperimentConfig
) -> WeightVector:
    if config.solver == "iterative":
        return compute_weights_iterative(network, active, config.propagation)
    return compute_weights_exact(network, active, config.propagation.stranded_policy)


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
    rng = _trial_rng(config, active_size, trial_index)
    if network is not None:
        if network.n != config.n:
            raise ValueError(f"injected network has n={network.n}, config says n={config.n}")
    elif config.fresh_network_per_trial:
        network = generate_network(config.n, config.k, rng)
    else:
        network = _shared_network(config)
    active = ActiveSet(rng.choice(config.n, size=active_size, replace=False))
    weights = _solve_weights(network, active, config)
    report = decision_report(network, active, weights)
    return report.error_traditional, report.error_weighted, weights.stranded_mass > 0.0


def _trial_block(
    config: ExperimentConfig, network: TrustNetwork | None, block: tuple[int, int, int]
) -> list[tuple[float, float, bool]]:
    size, start, stop = block
    return [run_trial(config, size, i, network=network) for i in range(start, stop)]


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
