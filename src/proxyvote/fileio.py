"""Canonical text encodings for networks, weights, reports, and results.

All files are comma-separated with a header row, rows in canonical order
(node id, or (source, target)), reals printed with 17 significant digits
so values round-trip exactly, and a trailing newline.  Result and weight
files carry their metadata as leading ``# key=value`` comment lines.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .delegation import WeightVector
from .decisions import DecisionReport
from .experiment import ExperimentResult
from .network import TrustNetwork, validate_network

NODES_HEADER = "id,opinion"
EDGES_HEADER = "source,target,trust"
WEIGHTS_HEADER = "id,weight"
RESULTS_HEADER = (
    "active_size,trials,mean_err_traditional,stderr_traditional,"
    "mean_err_weighted,stderr_weighted,stranded_fraction"
)
# the rows of a network file, and the bytes they may hold for the vectorised parse
_NODE_ROW = np.dtype([("id", np.int64), ("opinion", np.float64)])
_EDGE_ROW = np.dtype([("source", np.int64), ("target", np.int64), ("trust", np.float64)])
_ROW_BYTES = b"0123456789+-.eE,\n"


class NetworkFormatError(ValueError):
    """A network file failed to parse or violated a network invariant."""


def fmt(x: float) -> str:
    """17-significant-digit rendering; parses back to the same float."""
    return format(float(x), ".17g")


def format_network(network: TrustNetwork) -> tuple[str, str]:
    """Canonical (nodes_text, edges_text) for a network; raw trust is stored.
    ``%.17g`` renders a float exactly as :func:`fmt` does."""
    nodes = "".join(["%d,%.17g\n" % row for row in enumerate(network.opinions.tolist())])
    edges = "".join([
        "%d,%d,%.17g\n" % row
        for row in zip(network.edge_source.tolist(), network.edge_target.tolist(),
                       network.raw_trust.tolist())
    ])
    return f"{NODES_HEADER}\n{nodes}", f"{EDGES_HEADER}\n{edges}"


def save_network(network: TrustNetwork, nodes_path: str | os.PathLike, edges_path: str | os.PathLike) -> None:
    for path in (nodes_path, edges_path):  # before either is written: no half network is left
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            write_text(path, "")  # its open fails, creating nothing, and raises the error
    nodes_text, edges_text = format_network(network)
    write_text(nodes_path, nodes_text)
    write_text(edges_path, edges_text)


def load_network(
    nodes_path: str | os.PathLike, edges_path: str | os.PathLike
) -> tuple[TrustNetwork, list[int]]:
    """Load and validate a network from its two files.

    Returns (network, dangling node ids).  Any parse problem or invariant
    violation raises :class:`NetworkFormatError` listing every failure:
    parse and structure faults with their file and line, value faults
    (:func:`validate_network`) by node or edge id.  Edges are read only
    once the nodes file has no faults, so they are never checked against
    a broken node list.

    A well-formed pair of files is read by one vectorised parse per file
    (:func:`_parse_rows`); any other pair goes to the per-line reader,
    which words every fault.
    """
    network = _load_rows(nodes_path, edges_path)
    if network is None:
        network = _load_lines(nodes_path, edges_path)
    return network, network.dangling_nodes()


def _load_rows(nodes_path: str | os.PathLike, edges_path: str | os.PathLike) -> TrustNetwork | None:
    """The network of two well-formed files, or None when either file has
    a fault or a row that :func:`_parse_rows` does not take."""
    nodes = _parse_rows(nodes_path, NODES_HEADER, _NODE_ROW)
    if nodes is None or not np.array_equal(nodes["id"], np.arange(len(nodes))):
        return None
    edges = _parse_rows(edges_path, EDGES_HEADER, _EDGE_ROW)
    if edges is None:
        return None
    try:
        network = TrustNetwork(nodes["opinion"], edges["source"], edges["target"], edges["trust"])
    except ValueError:  # an endpoint out of range or a repeated pair
        return None
    return None if validate_network(network) else network


def _parse_rows(path: str | os.PathLike, header: str, row: np.dtype) -> np.ndarray | None:
    """A file's rows as one structured array from one ``np.loadtxt`` call;
    None unless the file's first line is the header, at least one row
    follows, and the rows hold only the bytes in ``_ROW_BYTES``.

    On those bytes ``loadtxt`` takes a row only where the per-line reader's
    ``int`` and ``float`` take it, with the same values: both parse reals
    with ``PyOS_string_to_double``, and both skip empty lines.  Other bytes
    break that: ``loadtxt`` reads bytes 0x1c to 0x1f as whitespace and some
    non-ASCII letters as digits, and it takes ``#`` as a comment unless
    told not to.
    """
    head, _, body = _read_text(path).partition("\n")
    if head != header or not body.isascii() or body.encode("ascii").translate(None, _ROW_BYTES):
        return None
    lines = body.split("\n")
    if not any(lines):  # loadtxt warns on a file without rows
        return None
    try:
        return np.loadtxt(lines, delimiter=",", dtype=row, comments=None, ndmin=1)
    except ValueError:  # a row with another field count, or a field that is no number
        return None


def _load_lines(nodes_path: str | os.PathLike, edges_path: str | os.PathLike) -> TrustNetwork:
    """The per-line reader: the network, or :class:`NetworkFormatError`
    naming every fault."""
    problems: list[str] = []
    opinions = _parse_nodes(nodes_path, problems)
    if problems or not opinions:
        raise NetworkFormatError("\n".join(problems) or f"{nodes_path}: no nodes")
    network = TrustNetwork(opinions, *_parse_edges(edges_path, len(opinions), problems))
    problems += validate_network(network)
    if problems:
        raise NetworkFormatError("\n".join(problems))
    return network


def _rows(path: str | os.PathLike, header: str, types: tuple, problems: list[str]):
    """Yield (line number, *fields) per row after a file's header, each field
    converted by its type; a bad header, field count or field is noted in
    ``problems`` instead.  One row at a time, so notes stay in line order."""
    lines = _read_lines(path)
    if not lines or lines[0][1] != header:
        problems.append(f"{path}:{lines[0][0] if lines else 1}: expected header {header!r}")
        return
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(types):
            problems.append(f"{path}:{lineno}: expected {header!r}, got {line!r}")
            continue
        try:  # the caller's own errors never reach this generator
            yield lineno, *[convert(part) for convert, part in zip(types, parts)]
        except ValueError:
            problems.append(f"{path}:{lineno}: could not parse {line!r}")


def _parse_nodes(path: str | os.PathLike, problems: list[str]) -> list[float]:
    seen: dict[int, float] = {}
    for lineno, node, value in _rows(path, NODES_HEADER, (int, float), problems):
        if node in seen:
            problems.append(f"{path}:{lineno}: duplicate node id {node}")
        else:
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
    seen: set[tuple[int, int]] = set()
    for lineno, source, target, trust in _rows(path, EDGES_HEADER, (int, int, float), problems):
        faults = [f"{path}:{lineno}: {label} node {node} out of range for {n}-node network"
                  for label, node in (("source", source), ("target", target)) if not 0 <= node < n]
        if (source, target) in seen:
            faults.append(f"{path}:{lineno}: duplicate edge ({source}, {target})")
        seen.add((source, target))
        problems += faults
        if not faults:
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


def format_results(result: ExperimentResult) -> str:
    """``# k=`` is echoed only when the config has a k: an injected network has none."""
    config = result.config
    lines = [
        f"# n={config.n}",
        *([f"# k={config.k}"] if config.k is not None else []),
        f"# trials={config.trials}",
        f"# sizes={','.join(str(s) for s in sorted(config.active_sizes))}",
        f"# seed={config.master_seed}",
        f"# fresh-network={'false' if not config.fresh_network_per_trial else 'true'}",
        f"# solver={config.solver}",
        f"# stranded-policy={config.propagation.stranded_policy.value}",
        f"# tolerance={fmt(config.propagation.tolerance)}",
        f"# max-iterations={config.propagation.max_iterations}",
        RESULTS_HEADER,
    ]
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
    for lineno, line in _read_lines(path):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise NetworkFormatError(f"{path}:{lineno}: expected 'key=value', got {line!r}")
        if key not in allowed:
            raise NetworkFormatError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value
    return values


def parse_id_list(text: str, what: str = "node id") -> list[int]:
    """Comma-separated integers, each a ``what`` in a parse error; empty entries
    are ignored."""
    return [_node_id(piece, what=what) for piece in map(str.strip, text.split(",")) if piece]


def load_id_file(path: str | os.PathLike) -> list[int]:
    """One node id per line; blank lines and ``#`` comments are ignored."""
    return [_node_id(line.strip(), f"{path}:{lineno}: ") for lineno, line in _read_lines(path)
            if not line.strip().startswith("#")]


def _node_id(text: str, where: str = "", what: str = "node id") -> int:
    try:
        return int(text)
    except ValueError:
        raise NetworkFormatError(f"{where}could not parse {what} {text!r}") from None


def write_text(path: str | os.PathLike, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc


def _read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        raise NetworkFormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _read_lines(path: str | os.PathLike) -> list[tuple[int, str]]:
    """(line number, line) for each non-blank line of a file, counted from 1."""
    return [(lineno, line) for lineno, line in enumerate(_read_text(path).split("\n"), start=1)
            if line.strip()]
