"""Canonical text encodings for networks, weights, reports, and results.

All files are comma-separated with a header row, rows in canonical order
(node id, or (source, target)), reals printed with 17 significant digits
so values round-trip exactly, and a trailing newline.  Result and weight
files carry their metadata as leading ``# key=value`` comment lines.
"""

from __future__ import annotations

import os
from typing import Iterable

from .delegation import WeightVector
from .decisions import DecisionReport
from .experiment import ExperimentConfig, ExperimentResult
from .network import TrustNetwork, normalize_outgoing, validate_network

NODES_HEADER = "id,opinion"
EDGES_HEADER = "source,target,trust"
WEIGHTS_HEADER = "id,weight"
RESULTS_HEADER = (
    "active_size,trials,mean_err_traditional,stderr_traditional,"
    "mean_err_weighted,stderr_weighted,stranded_fraction"
)


class NetworkFormatError(ValueError):
    """A network file failed to parse or violated a network invariant."""


def fmt(x: float) -> str:
    """17-significant-digit rendering; parses back to the same float."""
    return format(float(x), ".17g")


def format_network(network: TrustNetwork) -> tuple[str, str]:
    """Canonical (nodes_text, edges_text) for a network; raw trust is stored."""
    nodes = [NODES_HEADER]
    nodes += [f"{i},{fmt(v)}" for i, v in enumerate(network.opinions)]
    edges = [EDGES_HEADER]
    edges += [
        f"{s},{t},{fmt(w)}"
        for s, t, w in zip(network.edge_source, network.edge_target, network.raw_trust)
    ]
    return "\n".join(nodes) + "\n", "\n".join(edges) + "\n"


def save_network(network: TrustNetwork, nodes_path: str | os.PathLike, edges_path: str | os.PathLike) -> None:
    nodes_text, edges_text = format_network(network)
    write_text(nodes_path, nodes_text)
    write_text(edges_path, edges_text)


def load_network(
    nodes_path: str | os.PathLike, edges_path: str | os.PathLike
) -> tuple[TrustNetwork, list[int]]:
    """Load, validate, and normalize a network from its two files.

    Returns (normalized network, dangling node ids).  Any parse problem
    or invariant violation raises :class:`NetworkFormatError` listing
    every failure with its file and line.
    """
    problems: list[str] = []
    opinions = _parse_nodes(nodes_path, problems)
    n = len(opinions)
    src, tgt, raw = _parse_edges(edges_path, n, problems)
    if not opinions:
        raise NetworkFormatError("\n".join(problems) or f"{nodes_path}: no nodes")
    network = TrustNetwork(opinions, src, tgt, raw)
    problems += validate_network(network)
    if problems:
        raise NetworkFormatError("\n".join(problems))
    normalized, dangling = normalize_outgoing(network)
    return normalized, dangling


def _parse_nodes(path: str | os.PathLike, problems: list[str]) -> list[float]:
    lines = _read_lines(path)
    if not lines or lines[0] != NODES_HEADER:
        problems.append(f"{path}:1: expected header {NODES_HEADER!r}")
        return []
    seen: dict[int, float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            problems.append(f"{path}:{lineno}: expected 'id,opinion', got {line!r}")
            continue
        try:
            node = int(parts[0])
            value = float(parts[1])
        except ValueError:
            problems.append(f"{path}:{lineno}: could not parse {line!r}")
            continue
        if node in seen:
            problems.append(f"{path}:{lineno}: duplicate node id {node}")
            continue
        seen[node] = value
    n = len(seen)
    missing = sorted(set(range(n)) - set(seen))
    extra = sorted(i for i in seen if not 0 <= i < n)
    if missing or extra:
        problems.append(
            f"{path}: node ids must be dense 0..{n - 1}; missing {missing}, unexpected {extra}"
        )
        return []
    return [seen[i] for i in range(n)]


def _parse_edges(
    path: str | os.PathLike, n: int, problems: list[str]
) -> tuple[list[int], list[int], list[float]]:
    src, tgt, raw = [], [], []
    lines = _read_lines(path)
    if not lines or lines[0] != EDGES_HEADER:
        problems.append(f"{path}:1: expected header {EDGES_HEADER!r}")
        return src, tgt, raw
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            problems.append(f"{path}:{lineno}: expected 'source,target,trust', got {line!r}")
            continue
        try:
            source, target = int(parts[0]), int(parts[1])
            trust = float(parts[2])
        except ValueError:
            problems.append(f"{path}:{lineno}: could not parse {line!r}")
            continue
        row_ok = True
        for label, node in (("source", source), ("target", target)):
            if not 0 <= node < n:
                problems.append(
                    f"{path}:{lineno}: {label} node {node} out of range for {n}-node network"
                )
                row_ok = False
        if (source, target) in seen:
            problems.append(f"{path}:{lineno}: duplicate edge ({source}, {target})")
            row_ok = False
        seen.add((source, target))
        if row_ok:
            src.append(source)
            tgt.append(target)
            raw.append(trust)
    return src, tgt, raw


def format_weights(weights: WeightVector) -> str:
    iterations = "none" if weights.iterations_used is None else str(weights.iterations_used)
    lines = [
        f"# stranded_mass={fmt(weights.stranded_mass)}",
        f"# iterations={iterations}",
        WEIGHTS_HEADER,
    ]
    lines += [f"{node},{fmt(w)}" for node, w in sorted(weights.weights.items())]
    return "\n".join(lines) + "\n"


def format_report(report: DecisionReport) -> str:
    lines = [
        f"group_decision,{fmt(report.group_decision)}",
        f"expected_decision,{fmt(report.expected_decision)}",
        f"weighted_group_decision,{fmt(report.weighted_group_decision)}",
        f"error_traditional,{fmt(report.error_traditional)}",
        f"error_weighted,{fmt(report.error_weighted)}",
    ]
    return "\n".join(lines) + "\n"


def _config_echo(config: ExperimentConfig) -> list[str]:
    policy = config.propagation.stranded_policy.value
    return [
        f"# n={config.n}",
        f"# k={config.k}",
        f"# trials={config.trials}",
        f"# sizes={','.join(str(s) for s in sorted(config.active_sizes))}",
        f"# seed={config.master_seed}",
        f"# fresh-network={'false' if not config.fresh_network_per_trial else 'true'}",
        f"# solver={config.solver}",
        f"# stranded-policy={policy}",
        f"# tolerance={fmt(config.propagation.tolerance)}",
        f"# max-iterations={config.propagation.max_iterations}",
    ]


def format_results(result: ExperimentResult) -> str:
    lines = _config_echo(result.config)
    lines.append(RESULTS_HEADER)
    for row in result.rows:
        lines.append(
            f"{row.active_size},{row.trials},{fmt(row.mean_err_traditional)},"
            f"{fmt(row.stderr_traditional)},{fmt(row.mean_err_weighted)},"
            f"{fmt(row.stderr_weighted)},{fmt(row.stranded_fraction)}"
        )
    return "\n".join(lines) + "\n"


def parse_config_file(path: str | os.PathLike, allowed: Iterable[str]) -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments are ignored."""
    allowed = set(allowed)
    values: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path, keep_blank=True), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise NetworkFormatError(f"{path}:{lineno}: expected 'key=value', got {line!r}")
        if key not in allowed:
            raise NetworkFormatError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value
    return values


def parse_id_list(text: str) -> list[int]:
    """Comma-separated node ids; empty entries are ignored."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError:
            raise NetworkFormatError(f"could not parse node id {piece!r}") from None
    return out


def load_id_file(path: str | os.PathLike) -> list[int]:
    """One node id per line; blank lines and ``#`` comments are ignored."""
    out = []
    for lineno, line in enumerate(_read_lines(path, keep_blank=True), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append(int(stripped))
        except ValueError:
            raise NetworkFormatError(f"{path}:{lineno}: could not parse node id {stripped!r}") from None
    return out


def write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_lines(path: str | os.PathLike, keep_blank: bool = False) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise NetworkFormatError(f"{path}: {exc.strerror or exc}") from exc
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if keep_blank:
        return lines
    return [line for line in lines if line.strip() != ""]

