"""The traced pass: a fixed, seed-determined set of the workload's
operations taken apart into public calls, with a span around each call.

On the Monte Carlo workloads each pass first runs its operations
untraced, then traced.  A span costs about a microsecond, well below the
run-to-run noise of the two timings, so the tracing overhead is computed:
the spans nested in the traced operations times a span's cost, calibrated
in the same process.  An in-process CLI call is traced from inside: for the call's duration every
public function it reaches (load, validate, reachability, solve, report,
generate, save) is bound, wherever a ``proxyvote`` module binds it, to a
wrapper that opens a span nested in the caller's.  Layers that the
workload's own loop bypasses are probed on the same inputs, so that every
per-layer metric is measured on every workload; the README says which
metrics are on each workload's path.  Counts (sweeps, flops, transient
nodes, generate calls) come from the first pass and repeat exactly for a
given seed; times pool every pass.
"""

from __future__ import annotations

import io
import sys
import time
import types
from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass, field, replace

import numpy as np

import proxyvote as pv
from proxyvote import cli, fileio

from harness import Tracer, p50
from workloads import (
    BigDecide,
    McWorkload,
    conserves,
    decide_argv,
    derived_seed,
    parse_report,
    replica_rows,
    solve,
    weights_agree,
    BIG_NETWORK_STREAM,
    PROBE_STREAM,
    SIZES,
)

#: run_experiment calls per pass, by workload
MC_CALLS = {"mc-fresh": 4, "mc-fixed-w2": len(SIZES)}
BIG_PAIRS = 4
#: the solver a workload does not use runs on every PROBE_EVERY-th trial
PROBE_EVERY = 10
#: CLI generate + decide probes per pass on the mc workloads
MC_FILE_PROBES = 3
MC_PROBE_ACTIVE = 10
#: n=2000 probes per pass on big-decide
BIG_PROBES = 2
BIG_EFFICIENCY_TRIALS = 4

#: span name of each public function an in-process CLI call is traced
#: through; which one a call reaches is the package's business
CLI_STAGES = {
    pv.generate_network: "network.generate",
    fileio.save_network: "fileio.save",
    fileio.load_network: "fileio.load",
    pv.validate_network: "fileio.validate",
    pv.reachability_partition: "delegation.reachability",
    pv.compute_weights_exact: "delegation.exact",
    pv.compute_weights_iterative: "delegation.iterative",
    pv.decision_report: "decisions.report",
}


@dataclass
class Solve:
    solver: str
    transient: int
    active: int
    sweeps: int
    us: float
    reach_us: float
    first_pass: bool


@dataclass
class Layers:
    tracer: Tracer = field(default_factory=Tracer)
    solves: list[Solve] = field(default_factory=list)
    cli_overhead_ms: list[float] = field(default_factory=list)
    #: seconds of the traced operations, the spans nested in them, and
    #: (Monte Carlo only) the same operations' untraced seconds
    traced_s: float = 0.0
    nested_spans: int = 0
    untraced_s: float = 0.0
    serial_s: float = 0.0
    pool_s: float = 0.0
    #: pools the 2-worker calls started, and one pool's start-up and shut-down
    pools: int = 0
    pool_startup_s: float = 0.0
    generate_calls: int = 0
    no_convergence: int = 0
    attempted: int = 0
    failed: int = 0
    first_pass: bool = True
    #: seconds one nested span adds to a call
    span_cost_s: float = 0.0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def timed(self, name, parent, trace_id, fn, *args):
        """(result, µs) of ``fn(*args)`` inside a span."""
        with self.tracer.span(name, parent, trace_id):
            result = fn(*args)
        _, _, _, _, start, end = self.tracer.spans[-1]
        return result, (end - start) / 1e3

    def probe_reach(self, network, active, parent, trace_id):
        """Reachability on its own; returns (transient count, µs)."""
        part, us = self.timed("delegation.reachability", parent, trace_id,
                              pv.reachability_partition, network, active)
        return len(part.transient), us

    def record(self, solver, weights, transient, active, us, reach_us):
        sweeps = weights.iterations_used or 0
        self.solves.append(Solve(solver, transient, active, sweeps, us, reach_us, self.first_pass))


def _last_span_us(tracer: Tracer, name: str) -> float:
    for _, _, _, span_name, start, end in reversed(tracer.spans):
        if span_name == name:
            return (end - start) / 1e3
    raise LookupError(name)


@contextmanager
def rebound(replacements: dict):
    """Bind each function in ``replacements`` to its replacement wherever a
    loaded ``proxyvote`` module binds it, for the duration of the block."""
    saved = []
    for name, module in list(sys.modules.items()):
        if name != "proxyvote" and not name.startswith("proxyvote."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value in replacements:
                saved.append((module, attr, value))
    for module, attr, value in saved:
        setattr(module, attr, replacements[value])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def counting_generate(fn, *args):
    """(result, generate_network calls) of ``fn(*args)`` run in this process."""
    calls = 0
    original = pv.generate_network

    def counted(*a, **kw):
        nonlocal calls
        calls += 1
        return original(*a, **kw)

    with rebound({original: counted}):
        result = fn(*args)
    return result, calls


def _span_wrapper(fn, name, tracer, trace_id, stack, calls):
    def traced(*args, **kwargs):
        with tracer.span(name, stack[-1], trace_id) as span_id:
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
        calls.append((name, span_id, result))
        return result

    return traced


def traced_cli(tracer, argv, parent, trace_id):
    """Run ``cli.main(argv)`` in a "cli.<command>" span with the CLI_STAGES
    spans nested inside it.

    Returns (exit code, CLI span id, [(stage span name, span id, result)]).
    """
    stack, calls = [], []
    wrappers = {fn: _span_wrapper(fn, name, tracer, trace_id, stack, calls)
                for fn, name in CLI_STAGES.items()}
    with rebound(wrappers):
        with tracer.span("cli." + argv[0], parent, trace_id) as cli_span:
            stack.append(cli_span)
            code = cli.main(argv)
    return code, cli_span, calls


def span_cost_s(batches: int = 5, reps: int = 2000) -> float:
    """Seconds one nested span adds to a call: a no-op called through the
    span wrapper against the bare no-op, fastest batch of each."""

    def noop():
        return None

    traced = _span_wrapper(noop, "calibrate", Tracer(), 0, [None], [])
    best = {}
    for fn in (noop, traced) * batches:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - start)
    return (best[traced] - best[noop]) / reps


def cli_generate(layers, n, k, seed, nodes, edges, parent, trace_id):
    """One in-process ``proxyvote generate`` with its stages traced."""
    argv = ["generate", "--n", str(n), "--k", str(k), "--seed", str(seed),
            "--nodes", str(nodes), "--edges", str(edges)]
    with redirect_stderr(io.StringIO()):  # its "wrote ..." line
        code, _, _ = traced_cli(layers.tracer, argv, parent, trace_id)
    return layers.check(code == 0)


def cli_breakdown(layers, nodes, edges, ids, exact, policy, output, parent, trace_id):
    """One in-process CLI decide, traced from inside.

    Records the solve and the CLI's own time (its span minus the spans
    directly inside it), and returns (ok, weight vector, CLI seconds,
    spans nested inside the CLI span).
    """
    tracer = layers.tracer
    mark = len(tracer.spans)
    code, cli_span, calls = traced_cli(tracer, decide_argv(nodes, edges, ids, exact, output, policy),
                                       parent, trace_id)
    spans = {span_id: (parent_id, name, (end - start) / 1e3)
             for span_id, parent_id, _, name, start, end in tracer.spans[mark:]}
    results = {name: (span_id, result) for name, span_id, result in calls}
    solver = "exact" if exact else "iterative"
    if code != 0 or "delegation." + solver not in results:
        return layers.check(False), None, spans[cli_span][2] / 1e6, len(spans) - 1

    cli_us = spans[cli_span][2]
    inside = sum(us for parent_id, _, us in spans.values() if parent_id == cli_span)
    layers.cli_overhead_ms.append((cli_us - inside) / 1e3)
    network, _ = results["fileio.load"][1]
    solve_span, weights = results["delegation." + solver]
    reach = [(span_id, result) for name, span_id, result in calls
             if name == "delegation.reachability" and spans[span_id][0] == solve_span]
    transient = len(reach[0][1].transient)
    reach_us = sum(spans[span_id][2] for span_id, _ in reach)
    layers.record(solver, weights, transient, len(ids), spans[solve_span][2], reach_us)

    written = parse_report(output)
    ok = conserves(weights, network.n) and \
        written["error_weighted"] == results["decisions.report"][1].error_weighted
    return layers.check(ok), weights, cli_us / 1e6, len(spans) - 1


# ------------------------------------------------------------ Monte Carlo


def _mc_pass(wl: McWorkload, layers: Layers, workdir) -> None:
    other = "iterative" if wl.solver == "exact" else "exact"
    calls = MC_CALLS[wl.name]
    tracer = layers.tracer

    for index in range(calls):
        config, network = wl.config(index), wl.network(index)
        if layers.first_pass and index == 0:
            (serial_s, serial_rows), layers.generate_calls = counting_generate(wl.call, index, 1)
        else:
            serial_s, serial_rows = wl.call(index, workers=1)
        pool_s, pool_rows = wl.call(index, workers=2)
        layers.serial_s += serial_s
        layers.pool_s += pool_s
        layers.pools += len(config.active_sizes)  # run_experiment starts a pool per size

        def after_trial(config, size, i, net, active, weights, triple):
            solve_us = _last_span_us(tracer, "delegation." + config.solver)
            transient, reach_us = layers.probe_reach(net, active, call_span, index)
            layers.record(config.solver, weights, transient, size, solve_us, reach_us)
            if i % PROBE_EVERY == 0:
                try:
                    w, us = layers.timed("delegation." + other, call_span, index,
                                         solve, other, net, active, config.propagation)
                except pv.NoConvergenceError:
                    # off the workload's path: counted and reported, see README
                    layers.no_convergence += 1
                else:
                    layers.record(other, w, transient, size, us, reach_us)
                    layers.check(conserves(w, config.n))
            got, _ = layers.timed("experiment.run_trial", call_span, index,
                                  pv.run_trial, config, size, i, network)
            return layers.check(got == triple)

        mark = len(tracer.spans)
        with tracer.span("call", None, index) as call_span:
            rows, ok = replica_rows(config, network, tracer, call_span, index, after_trial)
        trials = {span[0] for span in tracer.spans[mark:] if span[3] == "trial"}
        layers.nested_spans += sum(span[1] in trials for span in tracer.spans[mark:])
        layers.traced_s += sum(tracer.durations("trial", 1e-9, since=mark))
        layers.untraced_s += serial_s
        layers.check(ok and rows == serial_rows == pool_rows)

    if layers.first_pass:
        layers.pool_startup_s = pool_startup_s(wl)

    nodes, edges = workdir / "probe_nodes.csv", workdir / "probe_edges.csv"
    for j in range(MC_FILE_PROBES):
        trace_id = calls + j
        cli_generate(layers, wl.n, wl.k, derived_seed(wl.key, PROBE_STREAM, j), nodes, edges,
                     None, trace_id)
        rng = np.random.default_rng(derived_seed(wl.key, PROBE_STREAM, j))
        ids = sorted(int(i) for i in rng.choice(wl.n, size=MC_PROBE_ACTIVE, replace=False))
        for exact in (True, False):
            cli_breakdown(layers, nodes, edges, ids, exact, "uniform",
                          workdir / "probe_report.txt", None, trace_id)


def pool_startup_s(wl: McWorkload, reps: int = 7) -> float:
    """Seconds one pool adds to a call: a 1-trial, 1-size call with 2
    workers against the same call run serially, median of ``reps``."""
    config = replace(wl.config(0), trials=1, active_sizes=(SIZES[0],))
    extra = []
    for _ in range(reps):
        start = time.perf_counter()
        pv.run_experiment(config, network=wl.network(0), workers=1)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        pv.run_experiment(config, network=wl.network(0), workers=2)
        extra.append(time.perf_counter() - start - serial)
    return p50(extra)


# ------------------------------------------------------------ big decide


def _big_pass(wl: BigDecide, layers: Layers, workdir) -> None:
    mark = len(layers.tracer.spans)
    for index in range(BIG_PAIRS):
        ids = wl.active(index)
        with layers.tracer.span("op", None, index) as op:
            vectors, outputs = [], []
            for exact, name in ((True, "exact.txt"), (False, "iterative.txt")):
                output = workdir / name
                _, weights, cli_s, nested = cli_breakdown(layers, wl.nodes, wl.edges, ids, exact,
                                                          None, output, op, index)
                layers.traced_s += cli_s
                layers.nested_spans += nested
                vectors.append(weights)
                outputs.append(output)
        layers.check(None not in vectors and weights_agree(*vectors)
                     and wl.check_pair(ids, *outputs))
    # the set-up's own generate, traced: it is what setup_s times
    cli_generate(layers, wl.n, wl.k, derived_seed(wl.key, BIG_NETWORK_STREAM, 0),
                 workdir / "probe_nodes.csv", workdir / "probe_edges.csv", None, BIG_PAIRS)
    if layers.first_pass:
        layers.generate_calls = len(layers.tracer.durations("network.generate", since=mark))

    network = wl.network()
    config = pv.ExperimentConfig(
        n=wl.n, k=wl.k, trials=BIG_EFFICIENCY_TRIALS, active_sizes=(wl.active_size,),
        master_seed=derived_seed(wl.key, PROBE_STREAM, 0), fresh_network_per_trial=False,
    )
    for j in range(BIG_PROBES):
        triple, _ = layers.timed("experiment.run_trial", None, BIG_PAIRS + 1 + j,
                                 pv.run_trial, config, wl.active_size, j, network)
        layers.check(all(np.isfinite(triple[:2])))
    start = time.perf_counter()
    serial = pv.run_experiment(config, network=network, workers=1).rows
    layers.serial_s += time.perf_counter() - start
    start = time.perf_counter()
    pooled = pv.run_experiment(config, network=network, workers=2).rows
    layers.pool_s += time.perf_counter() - start
    layers.check(pooled == serial)


# ------------------------------------------------------------ metrics


def exact_flops(t: int, a: int) -> float:
    # LU of the T x T system plus forward/back substitution for A columns
    return 2.0 / 3.0 * t**3 + 2.0 * t * t * a


def exact_bytes(t: int, a: int) -> float:
    # Q, I, I - Q and LAPACK's working copy (T x T each), R and X (T x A each)
    return 8.0 * (4 * t * t + 2 * t * a)


def sweep_flops(t: int, a: int) -> float:
    # Q^T m, R^T m, the stranded dot product and the residual sum
    return 2.0 * t * t + 2.0 * t * a + 3.0 * t


def layer_report(layers: Layers) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note) of every per-layer metric; the note
    gives the sample count."""
    tr = layers.tracer
    report: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, note):
        report[name] = (float(value), unit, note)

    def put_p50(name, values, unit):
        put(name, p50(values), unit, f"n={len(values)}")

    put_p50("network.generate_us.p50", tr.durations("network.generate"), "us")
    put("network.generate.calls", layers.generate_calls, "count",
        "generate_network calls counted in one operation: "
        + ("the first run_experiment call, serial" if layers.untraced_s
           else "the CLI decides and set-up generate of one pass"))
    put_p50("delegation.reachability_us.p50", tr.durations("delegation.reachability"), "us")

    exact = [s for s in layers.solves if s.solver == "exact"]
    iterative = [s for s in layers.solves if s.solver == "iterative"]
    first = [s for s in layers.solves if s.first_pass]
    put_p50("delegation.exact_us.p50", [s.us for s in exact], "us")
    put_p50("delegation.exact_self_us.p50", [s.us - s.reach_us for s in exact], "us")
    put("delegation.transient_nodes.mean", np.mean([s.transient for s in first]), "count",
        f"n={len(first)} solves, first pass")
    first_exact = [s for s in first if s.solver == "exact"]
    put("delegation.exact.flops", sum(exact_flops(s.transient, s.active) for s in first_exact),
        "computed_flop", f"computed, {len(first_exact)} solves, first pass")
    put("delegation.exact.dense_bytes", max(exact_bytes(s.transient, s.active) for s in exact),
        "computed_B", "computed, largest solve")

    put_p50("delegation.iterative_us.p50", [s.us for s in iterative], "us")
    first_iter = [s for s in first if s.solver == "iterative"]
    put("delegation.sweeps.total", sum(s.sweeps for s in first_iter), "count",
        f"{len(first_iter)} solves, first pass")
    swept = [s for s in iterative if s.sweeps]
    put("delegation.us_per_sweep", sum(s.us for s in swept) / sum(s.sweeps for s in swept), "us",
        f"{sum(s.sweeps for s in swept)} sweeps")
    put("delegation.iterative.no_convergence", layers.no_convergence, "count",
        "probes that raised NoConvergenceError")
    put("delegation.iterative.flops",
        sum(s.sweeps * sweep_flops(s.transient, s.active) for s in first_iter),
        "computed_flop", f"computed, {len(first_iter)} solves, first pass")

    put_p50("decisions.report_us.p50", tr.durations("decisions.report"), "us")
    put_p50("experiment.trial_us.p50", tr.durations("experiment.run_trial"), "us")
    put("experiment.parallel_efficiency", layers.serial_s / (2.0 * layers.pool_s), "ratio",
        f"serial {layers.serial_s:.3f} s, 2 workers {layers.pool_s:.3f} s")
    if layers.pool_startup_s:
        put("experiment.pool_startup_ms", layers.pool_startup_s * 1e3, "ms",
            "2 workers minus serial, 1-trial call, median of 7")
        put("experiment.pool_startup_share", layers.pools * layers.pool_startup_s / layers.pool_s,
            "ratio", f"{layers.pools} pools in {layers.pool_s:.3f} s of 2-worker calls")
    put_p50("fileio.load_ms.p50", tr.durations("fileio.load", 1e-6), "ms")
    put_p50("fileio.validate_ms.p50", tr.durations("fileio.validate", 1e-6), "ms")
    put_p50("fileio.save_ms", tr.durations("fileio.save", 1e-6), "ms")
    put_p50("cli.decide_overhead_ms", layers.cli_overhead_ms, "ms")
    spans_s = layers.nested_spans * layers.span_cost_s
    put("trace.overhead", spans_s / (layers.traced_s - spans_s), "ratio",
        f"computed: {layers.nested_spans} spans x {layers.span_cost_s * 1e6:.2f} us "
        f"in {layers.traced_s:.3f} s of traced operations")
    if layers.untraced_s:
        put("trace.overhead.two_run", layers.traced_s / layers.untraced_s - 1.0, "ratio",
            f"traced {layers.traced_s:.3f} s vs untraced {layers.untraced_s:.3f} s, same operations")
    return report


def run_traced(wl, seconds: float, workdir) -> tuple[Layers, dict]:
    """Repeat the traced pass until ``seconds`` would be exceeded (at least once)."""
    layers = Layers(span_cost_s=span_cost_s())
    one_pass = _mc_pass if isinstance(wl, McWorkload) else _big_pass
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        one_pass(wl, layers, workdir)
        layers.first_pass = False
        took = time.perf_counter() - begun
        if time.perf_counter() - start + took > seconds:
            break
    return layers, layer_report(layers)
