"""Command-line interface.

Subcommands: ``generate`` (write a random network), ``weights``
(delegation weights for an active set), ``decide`` (decision report),
``simulate`` (Monte Carlo error comparison, CSV), ``validate`` (list
invariant violations).

Exit codes: 0 success, 1 usage error, 2 validation, parse, file or
out-of-memory error, 3 stranded trust / no convergence / ill-conditioned
exact solve.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fileio
from .delegation import (
    DelegationError,
    PropagationConfig,
    StrandedPolicy,
    compute_weights_exact,
    compute_weights_iterative,
)
from .decisions import decision_report
from .experiment import SOLVERS, ExperimentConfig, _tolerance, run_experiment
from .network import ActiveSet, generate_network

_POLICIES = [policy.value for policy in StrandedPolicy]

#: every CLI default is read from these
_EXPERIMENT = ExperimentConfig()
_PROPAGATION = PropagationConfig()

_CONFIG_KEYS = (
    "n", "k", "trials", "sizes", "seed", "tolerance", "max-iterations",
    "stranded-policy", "fixed-network", "solver", "workers",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="proxyvote",
        description="Proxy decision-making on trust networks: generate networks, "
        "compute delegation weights, evaluate decisions, run experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a random k-out trust network")
    gen.add_argument("--n", type=int, default=_EXPERIMENT.n,
                     help="population size (default %(default)s)")
    gen.add_argument("--k", type=int, default=_EXPERIMENT.k,
                     help="out-degree per node (default %(default)s)")
    gen.add_argument("--seed", type=int, default=_EXPERIMENT.master_seed,
                     help="generator seed (default %(default)s)")
    gen.add_argument("--nodes", required=True, help="output path for the nodes file")
    gen.add_argument("--edges", required=True, help="output path for the edges file")
    gen.set_defaults(func=_cmd_generate)

    val = sub.add_parser("validate", help="list network invariant violations")
    val.add_argument("--nodes", required=True)
    val.add_argument("--edges", required=True)
    val.set_defaults(func=_cmd_validate)

    for name, help_text in (
        ("weights", "delegation weights for an active set"),
        ("decide", "decision report for an active set"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--nodes", required=True)
        cmd.add_argument("--edges", required=True)
        cmd.add_argument("--active", help="comma-separated active node ids")
        cmd.add_argument("--active-file", help="file with one active node id per line")
        cmd.add_argument("--exact", action="store_true", help="use the linear-solve path")
        cmd.add_argument("--tolerance", type=float, default=_PROPAGATION.tolerance)
        cmd.add_argument("--max-iterations", type=int, default=_PROPAGATION.max_iterations)
        cmd.add_argument("--stranded-policy", choices=_POLICIES,
                         default=_PROPAGATION.stranded_policy.value)
        cmd.add_argument("--output", help="write to this path instead of stdout")
        cmd.set_defaults(func=_cmd_solve)

    sim = sub.add_parser("simulate", help="Monte Carlo decision-error experiment")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--k", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--sizes", default=None, help="comma-separated active-set sizes")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--tolerance", type=float, default=None)
    sim.add_argument("--max-iterations", type=int, default=None)
    sim.add_argument("--stranded-policy", choices=_POLICIES, default=None)
    sim.add_argument("--solver", choices=SOLVERS, default=None,
                     help=f"weight solver (default {_EXPERIMENT.solver})")
    sim.add_argument("--fixed-network", action="store_true", default=None,
                     help="generate one network and reuse it for every trial")
    sim.add_argument("--nodes", help="use this fixed network instead of generating")
    sim.add_argument("--edges")
    sim.add_argument("--config", help="key=value file; flags override it")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes (default 1, at most the CPU count)")
    sim.add_argument("--output", help="write the result CSV here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DelegationError, MemoryError, ValueError) as exc:
        if hasattr(exc, "trial"):  # raised by a simulate trial
            print("error: failed at active size {}, trial {}, master seed {}".format(*exc.trial),
                  file=sys.stderr)
        message = str(exc)
        if isinstance(exc, MemoryError):
            message = f"out of memory: {message}" if message else "out of memory"
        print(f"error: {message}", file=sys.stderr)
        return 3 if isinstance(exc, DelegationError) else 2


def _emit(text: str, output: str | None) -> None:
    if output:
        fileio.write_text(output, text)
    else:
        sys.stdout.write(text)


def _load(nodes: str, edges: str):
    network, dangling = fileio.load_network(nodes, edges)
    if dangling:
        print(
            f"warning: dangling nodes (no outgoing trust): {dangling}",
            file=sys.stderr,
        )
    return network


def _active_set(args) -> ActiveSet:
    if args.active is not None and args.active_file is not None:
        raise UsageError("pass exactly one of --active / --active-file")
    if args.active is not None:
        ids = fileio.parse_id_list(args.active)
    elif args.active_file is not None:
        ids = fileio.load_id_file(args.active_file)
    else:
        raise UsageError("an active set is required (--active or --active-file)")
    if not ids:
        raise UsageError("active set is empty")
    return ActiveSet(ids)


def _weight_vector(args, network, active):
    config = PropagationConfig(_tolerance(args.tolerance), args.max_iterations, args.stranded_policy)
    if args.exact:
        return compute_weights_exact(network, active, config.stranded_policy)
    return compute_weights_iterative(network, active, config)


def _cmd_generate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    network = generate_network(args.n, args.k, rng)
    fileio.save_network(network, args.nodes, args.edges)
    print(f"wrote {args.nodes} and {args.edges} (n={args.n}, k={args.k})", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    try:
        _load(args.nodes, args.edges)
    except fileio.NetworkFormatError as exc:
        print(exc)
        return 2
    print("network is valid", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    network = _load(args.nodes, args.edges)
    active = _active_set(args)
    vector = _weight_vector(args, network, active)
    if args.command == "weights":
        _emit(fileio.format_weights(vector), args.output)
    else:
        _emit(fileio.format_report(decision_report(network, active, vector)), args.output)
    return 0


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true/false, got {text!r}")


def _cmd_simulate(args) -> int:
    if (args.nodes is None) != (args.edges is None):
        raise UsageError("simulate needs both --nodes and --edges or neither")
    injected = args.nodes is not None
    if injected and (args.n is not None or args.k is not None):
        raise UsageError("--n/--k conflict with an injected --nodes/--edges network")

    values = fileio.parse_config_file(args.config, _CONFIG_KEYS) if args.config else {}

    def pick(key, convert, default):
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            return flag
        if key in values:
            return convert(values[key])
        return default

    network = _load(args.nodes, args.edges) if injected else None
    n = network.n if injected else pick("n", int, _EXPERIMENT.n)
    k = None if injected else pick("k", int, _EXPERIMENT.k)
    sizes = pick("sizes", str, None)
    if sizes is None:
        # default grid capped to the population: sizes below n, then n itself
        sizes = [s for s in _EXPERIMENT.active_sizes if s < n] + [n]
    else:
        sizes = fileio.parse_id_list(sizes, "active size")
    policy_name = pick("stranded-policy", str, _EXPERIMENT.propagation.stranded_policy.value)
    if policy_name not in _POLICIES:
        raise ValueError(f"unknown stranded policy {policy_name!r}")
    solver = pick("solver", str, _EXPERIMENT.solver)
    fixed = injected or pick("fixed-network", _parse_bool, not _EXPERIMENT.fresh_network_per_trial)
    workers = pick("workers", int, 1)

    config = ExperimentConfig(
        n=n,
        k=k,
        trials=pick("trials", int, _EXPERIMENT.trials),
        active_sizes=tuple(sizes),
        master_seed=pick("seed", int, _EXPERIMENT.master_seed),
        propagation=PropagationConfig(
            tolerance=pick("tolerance", float, _EXPERIMENT.propagation.tolerance),
            max_iterations=pick("max-iterations", int, _EXPERIMENT.propagation.max_iterations),
            stranded_policy=policy_name,
        ),
        fresh_network_per_trial=not fixed,
        solver=solver,
    )
    result = run_experiment(config, network=network, workers=workers)
    _emit(fileio.format_results(result), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
