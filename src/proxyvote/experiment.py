"""Monte Carlo comparison of traditional and trust-weighted decisions.

For each requested active-set size the harness runs many independent
trials.  A trial builds a random trust network (or reuses a fixed one),
samples an active set uniformly without replacement, and measures the
decision error of the unweighted average of active opinions and of the
delegation-weighted average, both against the whole-population mean.

Every trial derives its own RNG stream from (master seed, active size,
trial index), so results are identical no matter how trials are ordered
or distributed across worker processes.

One kernel runs every trial below full participation, in passes of one
size's trials sized by ``_pass_trials``; at size n a trial's row is exactly
zero (README), so ``run_experiment`` runs none.  Each trial draws from its
own stream, seeded together with the pass's others by ``_trial_rngs``, as a
lone trial would: its network as one ``rng.random(n * (k + 1))`` call, then
its active set.
The rest runs on arrays with a leading trial axis: ``generate_network``'s
builder turns the pass's (B, n * (k + 1)) uniforms into its networks, and
``_reach`` searches and ``_absorb`` solves the pass as one graph of disjoint
copies, trials with equal transient count T sharing one stacked (G, T, T)
solve.  A pass returns a row (err_traditional, err_weighted, stranded mass)
per trial, each with the bits of the trial run alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Iterator

import numpy as np

from .decisions import _decide, decision_error
from .delegation import (CONSERVATION_TOL, DelegationError, PropagationConfig, StrandedPolicy,
                         _absorb, _reach)
from .network import (TrustNetwork, _draw_networks, _integer, _shares, generate_network,
                      validate_network)

SOLVERS = ("exact", "iterative")
#: byte budget of a kernel pass: trials' worst-case T x T blocks plus their edge arrays (README)
_PASS_BYTES = 2**21
#: SeedSequence.generate_state's hash constants INIT_B * MULT_B**j: output word j
#: is its pool word xored with constant j, then multiplied by constant j + 1
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED**j % 2**32 for j in range(9)], np.uint32)


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


def _tolerance(value: float) -> float:
    """``value``, refused over ``CONSERVATION_TOL``: the iterative solve may drop
    that much residual trust, and the weights must sum to n within that bound."""
    if not value <= CONSERVATION_TOL:
        raise ValueError(f"tolerance must be at most {CONSERVATION_TOL} (the bound on |sum of "
                         f"weights - n|), got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Monte Carlo experiment."""

    n: int = 100
    #: out-degree of drawn networks; None only for runs on an injected network
    k: int | None = 3
    trials: int = 10_000
    active_sizes: tuple[int, ...] = (2, 5, 10, 20, 50, 100)
    master_seed: int = 0
    propagation: PropagationConfig = field(
        default_factory=lambda: PropagationConfig(stranded_policy=StrandedPolicy.UNIFORM_TO_ACTIVE)
    )
    fresh_network_per_trial: bool = True
    solver: str = "exact"

    def __post_init__(self):
        if not isinstance(self.fresh_network_per_trial, (bool, np.bool_)):
            raise ValueError(f"fresh_network_per_trial must be a bool, got "
                             f"{self.fresh_network_per_trial!r}")
        object.__setattr__(self, "fresh_network_per_trial", bool(self.fresh_network_per_trial))
        if not isinstance(self.propagation, PropagationConfig):
            raise ValueError(f"propagation must be a PropagationConfig, got {self.propagation!r}")
        for name in ("n", "trials", "master_seed") + (() if self.k is None else ("k",)):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "active_sizes",
                           tuple(_integer("active_sizes", s) for s in self.active_sizes))
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.k is not None and not 1 <= self.k <= self.n - 1:
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
        _tolerance(self.propagation.tolerance)


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


def _trial_network(config: ExperimentConfig, network: TrustNetwork | None) -> TrustNetwork | None:
    """The network all trials share: ``network`` if injected, one drawn from
    the master seed in fixed mode, None when each trial draws its own."""
    if network is not None:
        if config.fresh_network_per_trial:
            raise ValueError("injected network requires fresh_network_per_trial=False")
        if network.n != config.n:
            raise ValueError(f"injected network has n={network.n}, config says n={config.n}")
        problems = validate_network(network)
        if problems:
            raise ValueError("injected network is invalid:\n" + "\n".join(problems))
        return network
    if config.k is None:
        raise ValueError("k is needed to draw networks; leave it out only with an injected network")
    if config.fresh_network_per_trial:
        return None
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
    fixed network, as in :func:`run_experiment`.
    """
    if not 1 <= active_size <= config.n:
        raise ValueError(f"active_size {active_size} out of [1, {config.n}]")
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    network = _trial_network(config, network)
    block = (active_size, trial_index, trial_index + 1)
    err_t, err_w, mass = _trial_block(config, network, block)[0].tolist()
    return err_t, err_w, mass > 0.0


def _trial_block(
    config: ExperimentConfig, network: TrustNetwork | None, block: tuple[int, int, int]
) -> np.ndarray:
    """Rows of trials start..stop-1 at one size, run as one kernel pass.  A failing
    pass is re-run a trial at a time: the lowest-index failing trial raises, with
    ``trial`` set to (active size, trial index, master seed), or the lone rows return."""
    size, start, stop = block
    try:
        return _kernel(config, network, size, start, stop)
    except (DelegationError, ValueError, MemoryError) as exc:
        if stop - start == 1:
            exc.trial = (size, start, config.master_seed)
            raise
        return np.vstack([_trial_block(config, network, (size, i, i + 1))
                          for i in range(start, stop)])


def _pass_trials(n: int, edges: int, size: int) -> int:
    """Trials per kernel pass: as many as fit ``_PASS_BYTES`` at a trial's
    worst-case dense T x T block (T <= n - size) plus 64 bytes for each of
    its ``edges``.  It depends on the shape alone, never on a draw."""
    return max(1, _PASS_BYTES // (8 * (n - size) ** 2 + 64 * edges))


def _words(value: int) -> list[int]:
    """The 32-bit words of ``value``, least significant first, as SeedSequence
    splits an int of its entropy (0 is one word)."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


@cache
def _seeded() -> type:
    """An ISeedSequence holding one precomputed ``generate_state(4, np.uint64)``
    row, the only state PCG64 asks of its seed.  Built on first use, so
    importing the package leaves ``numpy.random`` unimported."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Seeded


def _trial_rngs(seed: int, size: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The generators ``default_rng(SeedSequence([seed, size, i]))`` of trials
    i = lo..hi-1 in turn, stream for stream.  SeedSequence mixes each trial's
    entropy, given as the uint32 words it would split the ints into, to its
    4-word pool; the pass's pools then go through generate_state's hash as one
    array: 8 words a row, paired little-endian into PCG64's 4 seed words."""
    from numpy.random import PCG64, Generator, SeedSequence

    head = _words(seed) + _words(size)
    pools = np.array([SeedSequence(np.array(head + _words(i), np.uint32)).pool
                      for i in range(lo, hi)])
    state = np.tile(pools, 2) ^ _STATE_HASH[:-1]
    state *= _STATE_HASH[1:]
    state ^= state >> 16
    seeded = _seeded()
    for row in state.astype("<u4").view("<u8").astype(np.uint64):
        yield Generator(PCG64(seeded(row)))


def _kernel(
    config: ExperimentConfig, network: TrustNetwork | None, size: int, lo: int, hi: int
) -> np.ndarray:
    """Rows (err_traditional, err_weighted, stranded mass) of trials lo..hi-1 at
    one size in one pass; ``network`` None draws a fresh network per trial."""
    n, k, b = config.n, config.k, hi - lo
    uniforms = np.empty((b, n * (k + 1))) if network is None else None
    active = []
    for j, rng in enumerate(_trial_rngs(config.master_seed, size, lo, hi)):
        if network is None:
            rng.random(out=uniforms[j])
        active.append(rng.choice(n, size=size, replace=False))
    active = np.sort(active, axis=1)
    offset = np.arange(0, b * n, n)[:, None]
    if network is None:
        opinions, src, tgt, raw = _draw_networks(uniforms, n, k)
        norm = _shares(src, raw, b * n)
    else:
        opinions = np.broadcast_to(network.opinions, (b, n))
        src, tgt = (network.edge_source + offset).ravel(), (network.edge_target + offset).ravel()
        norm = np.tile(network.normalized_trust, b)
    sweeps = config.propagation if config.solver == "iterative" else None
    reached = _reach(src, tgt, norm, (active + offset).ravel(), b * n).reshape(b, n)
    weights, mass, _ = _absorb(n, src, tgt, norm, active, reached,
                               config.propagation.stranded_policy, sweeps)
    outcome, expected, weighted = _decide(opinions, active, weights)
    err_t, err_w = decision_error(outcome, expected), decision_error(weighted, expected)
    return np.column_stack((err_t, err_w, mass))


def run_experiment(
    config: ExperimentConfig,
    network: TrustNetwork | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Run all trials for every active size and aggregate per-size stats.

    Result arrays for every trial are allocated first, so a trial count
    beyond memory raises ``MemoryError`` before any work.  Size n's rows stay
    0.0, as its trials' rows are; each smaller size is cut into (size, start,
    stop) passes of ``_pass_trials`` trials, which fill the arrays as they
    come back.  With ``workers`` = 1 they run in this process; with more,
    on one pool of that many processes (at most ``os.cpu_count()``), in
    chunks of passes that make about 4 tasks per worker per size, and a call
    with no size below n starts no pool.  Passes come back in submission
    order and trials are seeded by index, so the aggregate is identical for
    any worker count.  The error of the first failing trial (smallest size,
    then lowest index) is raised and the passes not yet started are
    cancelled.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be in [1, {cpus}] (the CPU count), got {workers}")
    network = _trial_network(config, network)
    edges = config.n * config.k if network is None else network.edge_count

    sizes = sorted(config.active_sizes)
    rows = np.zeros((len(sizes) * config.trials, 3))  # one row per trial, size after size
    drawn = [size for size in sizes if size < config.n]  # size n's rows stay 0.0 (README)
    per_pass = {size: _pass_trials(config.n, edges, size) for size in drawn}
    passes = ((size, start, min(start + per_pass[size], config.trials))
              for size in drawn for start in range(0, config.trials, per_pass[size]))

    def fill(results) -> None:  # passes come back in the slots' order
        stop = 0
        for block in results:
            start, stop = stop, stop + len(block)
            rows[start:stop] = block

    run_pass = partial(_trial_block, config, network)
    if workers == 1 or not drawn:
        fill(map(run_pass, passes))
    else:
        from concurrent.futures import ProcessPoolExecutor  # 2 MiB a serial run never loads (README)

        count = sum(-(-config.trials // step) for step in per_pass.values())
        chunk = -(-count // (4 * workers * len(drawn)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fill(pool.map(run_pass, passes, chunksize=chunk))
    stats = map(_aggregate, sizes, rows.reshape(len(sizes), config.trials, 3))
    return ExperimentResult(rows=tuple(stats), config=config)


def _aggregate(size: int, rows: np.ndarray) -> ActiveSizeStats:
    trials = len(rows)
    err_t, err_w, mass = rows.T
    scale = math.sqrt(trials)
    return ActiveSizeStats(
        active_size=size,
        trials=trials,
        mean_err_traditional=float(np.mean(err_t)),
        stderr_traditional=float(np.std(err_t, ddof=1) / scale) if trials > 1 else 0.0,
        mean_err_weighted=float(np.mean(err_w)),
        stderr_weighted=float(np.std(err_w, ddof=1) / scale) if trials > 1 else 0.0,
        stranded_fraction=float(np.mean(mass > 0.0)),
    )
