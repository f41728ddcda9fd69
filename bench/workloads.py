"""The benchmark's workloads: inputs made from the seed, the timed closed
loop, and the checks on every output.

Import only after ``harness.import_proxyvote`` has put this checkout's
``src/`` on the path.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import proxyvote as pv
from proxyvote import cli, fileio

from harness import (REFERENCE_S, BenchSetupError, NullTracer, p50, peak_rss_mib,
                     reference_seconds, tail)

SIZES = (2, 5, 10, 20, 50, 100)
CONSERVATION_TOL = 1e-6
AGREEMENT_TOL = 1e-6
#: recomputed decision values must match the CLI's to this bound
DECISION_TOL = 1e-12

# SeedSequence stream tags, so no two kinds of input share a stream
MASTER_STREAM, NETWORK_STREAM, ACTIVE_STREAM, BIG_NETWORK_STREAM, PROBE_STREAM = 1, 2, 3, 4, 5


def derived_seed(key: tuple[int, ...], stream: int, index: int) -> int:
    return int(np.random.SeedSequence([*key, stream, index]).generate_state(1)[0])


@dataclass
class Op:
    """One timed operation: its wall seconds, the trials (decisions) it
    completed, and whether it raised or failed a check.  ``host`` is the
    host's speed while it ran: the usual reference kernel time over the
    mean of the kernel's times just before and just after it."""

    seconds: float
    trials: int
    failed: bool = False
    detail: dict = field(default_factory=dict)
    host: float = 1.0

    def scaled(self) -> float:
        """Its seconds at the host's usual speed."""
        return self.seconds * self.host


def closed_loop(seconds: float, run_op, reference: str) -> list[Op]:
    """Run ``run_op(index)`` back to back until ``seconds`` have passed,
    with the ``reference`` kernel between operations."""
    ops: list[Op] = []
    before = reference_seconds(reference)
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op = run_op(len(ops))
        after = reference_seconds(reference)
        op.host = REFERENCE_S[reference] / ((before + after) / 2.0)
        before = after
        ops.append(op)
    return ops


def latency_metrics(seconds: list[float], prefix: str, report: dict) -> None:
    ms = [s * 1e3 for s in seconds]
    value, pct, beyond = tail(ms)
    report[f"{prefix}.p50"] = (p50(ms), "ms", f"n={len(ms)}")
    report[f"{prefix}.tail"] = (value, "ms", f"p{pct:.0f}, {beyond} of {len(ms)} beyond")


def timed_report(ops: list[Op], rss: float, decisions: str) -> dict:
    """name -> (value, unit, note) of the metrics every timed pass reports.

    The declared timings use the operations' scaled seconds; the wall-clock
    figures are printed beside them as ``.wall``.
    """
    completed = sum(op.trials for op in ops if not op.failed)
    report = {}
    for suffix, seconds, note in (("", [op.scaled() for op in ops], " at the usual host speed"),
                                  (".wall", [op.seconds for op in ops], " wall")):
        total = sum(seconds)  # 0 only if every operation raised
        report["trials_per_s" + suffix] = (completed / total if total else 0.0, "1/s",
                                           f"{completed} {decisions} / {total:.3f} s{note}")
        latency_metrics(seconds, "op_ms" + suffix, report)
    report["host.speed.p50"] = (p50(op.host for op in ops), "ratio",
                                f"usual reference kernel time / measured, n={len(ops)}")
    report["peak_rss_mb"] = (rss, "MiB", "self + largest child")
    return report


# ------------------------------------------------------------ trial replica


def solve(solver: str, network, active, propagation):
    if solver == "iterative":
        return pv.compute_weights_iterative(network, active, propagation)
    return pv.compute_weights_exact(network, active, propagation.stranded_policy)


def replica_trial(config, size: int, index: int, network, tracer, parent, trace_id):
    """``run_trial`` taken apart into its public calls, one span per stage.

    The stream derivation mirrors ``run_trial``'s documented
    (master_seed, active_size, trial_index) key.
    """
    with tracer.span("trial", parent, trace_id) as trial:
        with tracer.span("experiment.seed", trial, trace_id):
            rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, size, index]))
        if network is None:
            with tracer.span("network.generate", trial, trace_id):
                network = pv.generate_network(config.n, config.k, rng)
        with tracer.span("experiment.sample", trial, trace_id):
            active = pv.ActiveSet(rng.choice(config.n, size=size, replace=False))
        with tracer.span("delegation." + config.solver, trial, trace_id):
            weights = solve(config.solver, network, active, config.propagation)
        with tracer.span("decisions.report", trial, trace_id):
            report = pv.decision_report(network, active, weights)
    triple = (report.error_traditional, report.error_weighted, weights.stranded_mass > 0.0)
    return network, active, weights, triple


def conserves(weights, n: int) -> bool:
    return abs(weights.total() - n) <= CONSERVATION_TOL


def weights_agree(a, b) -> bool:
    """Same active ids, weights equal to AGREEMENT_TOL componentwise."""
    return set(a.weights) == set(b.weights) and all(
        abs(a.weights[i] - b.weights[i]) <= AGREEMENT_TOL for i in a.weights
    )


def aggregate(size: int, triples) -> "pv.ActiveSizeStats":
    """Per-size statistics computed as ``run_experiment`` documents them."""
    err_t = np.array([t[0] for t in triples], dtype=np.float64)
    err_w = np.array([t[1] for t in triples], dtype=np.float64)
    stranded = np.array([t[2] for t in triples], dtype=bool)
    trials = len(triples)
    scale = math.sqrt(trials)
    return pv.ActiveSizeStats(
        active_size=size,
        trials=trials,
        mean_err_traditional=float(np.mean(err_t)),
        stderr_traditional=float(np.std(err_t, ddof=1) / scale) if trials > 1 else 0.0,
        mean_err_weighted=float(np.mean(err_w)),
        stderr_weighted=float(np.std(err_w, ddof=1) / scale) if trials > 1 else 0.0,
        stranded_fraction=float(np.mean(stranded)),
    )


def replica_rows(config, network, tracer=NullTracer(), parent=None, trace_id=0, after_trial=None):
    """Rows of ``run_experiment(config, network)`` rebuilt trial by trial.

    Returns (rows, ok); ``ok`` is False if a weight vector broke
    conservation or ``after_trial`` reported a failed check.
    """
    rows, ok = [], True
    for size in sorted(config.active_sizes):
        triples = []
        for i in range(config.trials):
            net, active, weights, triple = replica_trial(
                config, size, i, network, tracer, parent, trace_id
            )
            ok &= conserves(weights, config.n)
            if after_trial is not None:
                ok &= after_trial(config, size, i, net, active, weights, triple)
            triples.append(triple)
        rows.append(aggregate(size, triples))
    return tuple(rows), ok


def rows_sane(rows, config) -> bool:
    if [r.active_size for r in rows] != sorted(config.active_sizes):
        return False
    for r in rows:
        values = (r.mean_err_traditional, r.stderr_traditional, r.mean_err_weighted, r.stderr_weighted)
        if r.trials != config.trials or not all(math.isfinite(v) and v >= 0.0 for v in values):
            return False
        if not 0.0 <= r.stranded_fraction <= 1.0:
            return False
    return True


# ------------------------------------------------------------ Monte Carlo


class McWorkload:
    """``run_experiment`` calls at n=100, k=3 over the acceptance sizes.

    One operation is one call of ``trials`` trials per size with a fresh
    master seed: over all sizes, or with ``one_size`` over one size, the
    sizes taken in turn.  A fixed-network workload cycles through networks
    made at set-up, so no generation runs in the timed loop and no single
    atypical network sets a run's figure.
    """

    n, k = 100, 3
    fixed_networks = 8
    calls_per_op = 1
    #: trials are interpreter-bound
    reference = "interpreter"

    def __init__(self, name, key, trials, fresh, solver, workers, one_size=False):
        self.name, self.key = name, key
        self.trials, self.fresh, self.solver, self.workers = trials, fresh, solver, workers
        self.one_size = one_size
        self.networks = []
        if not fresh:
            self.networks = [
                pv.generate_network(self.n, self.k, np.random.default_rng(derived_seed(key, NETWORK_STREAM, j)))
                for j in range(self.fixed_networks)
            ]

    def config(self, index: int):
        return pv.ExperimentConfig(
            n=self.n,
            k=self.k,
            trials=self.trials,
            active_sizes=self.sizes(index),
            master_seed=derived_seed(self.key, MASTER_STREAM, index),
            fresh_network_per_trial=self.fresh,
            solver=self.solver,
        )

    def sizes(self, index: int) -> tuple[int, ...]:
        return (SIZES[index % len(SIZES)],) if self.one_size else SIZES

    def network(self, index: int):
        return self.networks[index % len(self.networks)] if self.networks else None

    def call(self, index: int, workers: int):
        """(seconds, rows) of one ``run_experiment`` call."""
        config, network = self.config(index), self.network(index)
        start = time.perf_counter()
        result = pv.run_experiment(config, network=network, workers=workers)
        return time.perf_counter() - start, result.rows

    def trials_per_call(self) -> int:
        return self.trials * len(self.sizes(0))

    def run_timed(self, seconds: float) -> tuple[list[Op], dict]:
        def run_op(index):
            try:
                elapsed, rows = self.call(index, self.workers)
            except Exception:  # a failed operation is counted and recorded, not fatal
                return Op(0.0, 0, True, {"error": traceback.format_exc()})
            ok = rows_sane(rows, self.config(index))
            return Op(elapsed, self.trials_per_call(), not ok, {"rows": rows})

        ops = closed_loop(seconds, run_op, self.reference)
        rss = peak_rss_mib()
        # replicate the first and the last call stage by stage; rows must match exactly
        for index in sorted({0, len(ops) - 1}):
            op = ops[index]
            if op.failed:
                continue
            rows, ok = replica_rows(self.config(index), self.network(index))
            op.failed = not (ok and rows == op.detail["rows"])
        return ops, timed_report(ops, rss, "trials")


# ------------------------------------------------------------ big decide


def decide_argv(nodes, edges, ids, exact: bool, output: Path, policy: str | None = None) -> list[str]:
    argv = ["decide", "--nodes", str(nodes), "--edges", str(edges),
            "--active", ",".join(map(str, ids)), "--output", str(output)]
    if policy is not None:
        argv += ["--stranded-policy", policy]
    return argv + ["--exact"] if exact else argv


def parse_report(path: Path) -> dict[str, float]:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(",")
        values[key] = float(value)
    return values


class BigDecide:
    """``proxyvote decide`` in-process on one generated n=2000 network.

    One operation is a pair of decide calls on the same fresh 100-member
    active set: ``--exact`` first, then the default iterative solver.
    """

    n, k, active_size = 2000, 3, 100
    name = "big-decide"
    calls_per_op = 2
    #: dense solves and sweeps over a 1900x1900 block dominate (README, "Host speed")
    reference = "blas"

    def __init__(self, key, workdir: Path):
        self.key, self.workdir = key, workdir
        self.nodes, self.edges = workdir / "nodes.csv", workdir / "edges.csv"
        seed = derived_seed(key, BIG_NETWORK_STREAM, 0)
        argv = ["generate", "--n", str(self.n), "--k", str(self.k), "--seed", str(seed),
                "--nodes", str(self.nodes), "--edges", str(self.edges)]
        if cli.main(argv) != 0:
            raise BenchSetupError("proxyvote generate failed")
        self._network = None

    def network(self):
        """The generated network as the library loads it (for checks)."""
        if self._network is None:
            self._network, _ = fileio.load_network(self.nodes, self.edges)
        return self._network

    def active(self, index: int) -> list[int]:
        rng = np.random.default_rng(derived_seed(self.key, ACTIVE_STREAM, index))
        return sorted(int(i) for i in rng.choice(self.n, size=self.active_size, replace=False))

    def decide(self, ids, exact: bool) -> tuple[float, int, Path]:
        output = self.workdir / ("exact.txt" if exact else "iterative.txt")
        argv = decide_argv(self.nodes, self.edges, ids, exact, output)
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code, output

    def check_pair(self, ids, exact_out: Path, iter_out: Path) -> bool:
        """The two reports agree, and agree with values recomputed here."""
        exact, iterative = parse_report(exact_out), parse_report(iter_out)
        opinions = self.network().opinions
        group = float(np.sum(opinions[ids]) / len(ids))
        expected = float(np.sum(opinions) / self.n)
        for rep in (exact, iterative):
            if abs(rep["group_decision"] - group) > DECISION_TOL:
                return False
            if abs(rep["expected_decision"] - expected) > DECISION_TOL:
                return False
            if abs(rep["error_weighted"] - abs(rep["weighted_group_decision"] - expected)) > DECISION_TOL:
                return False
        return abs(exact["weighted_group_decision"] - iterative["weighted_group_decision"]) <= AGREEMENT_TOL

    def check_weights(self, ids) -> bool:
        """Both solvers conserve trust and agree componentwise."""
        network, active = self.network(), pv.ActiveSet(ids)
        exact = pv.compute_weights_exact(network, active)
        iterative = pv.compute_weights_iterative(network, active)
        return conserves(exact, self.n) and conserves(iterative, self.n) and weights_agree(exact, iterative)

    def run_timed(self, seconds: float) -> tuple[list[Op], dict]:
        def run_op(index):
            ids = self.active(index)
            try:
                t_exact, code_exact, out_exact = self.decide(ids, exact=True)
                t_iter, code_iter, out_iter = self.decide(ids, exact=False)
                ok = code_exact == 0 and code_iter == 0 and self.check_pair(ids, out_exact, out_iter)
            except Exception:  # a failed operation is counted and recorded, not fatal
                return Op(0.0, 0, True, {"error": traceback.format_exc()})
            return Op(t_exact + t_iter, 2, not ok, {"exact": t_exact, "iterative": t_iter})

        ops = closed_loop(seconds, run_op, self.reference)
        rss = peak_rss_mib()
        for index in sorted({0, len(ops) - 1}):
            if not ops[index].failed:
                ops[index].failed = not self.check_weights(self.active(index))
        report = timed_report(ops, rss, "decide calls")
        done = [op for op in ops if not op.failed]
        if done:
            latency_metrics([op.detail["exact"] * op.host for op in done], "decide_exact_ms", report)
            latency_metrics([op.detail["iterative"] * op.host for op in done], "decide_iter_ms", report)
        return ops, report


def make(name: str, key: tuple[int, ...], workdir: Path):
    if name == "mc-fresh":
        return McWorkload(name, key, trials=20, fresh=True, solver="exact", workers=1)
    if name == "mc-fixed-w2":
        # run_experiment starts one pool per size; 1,000 trials per pool keep
        # its start-up at 2-3 % of a call (README, "Pool start-up")
        return McWorkload(name, key, trials=1000, fresh=False, solver="exact", workers=2,
                          one_size=True)
    if name == "big-decide":
        return BigDecide(key, workdir)
    raise ValueError(f"unknown workload {name!r}")
