import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyvote import (
    ActiveSet,
    ActiveSizeStats,
    ExperimentConfig,
    WeightVector,
    compute_weights_exact,
    decision_report,
    generate_network,
    run_experiment,
)
from proxyvote import fileio
from conftest import four_node_network


def test_fmt_round_trips_floats():
    rng = np.random.default_rng(13)
    values = np.concatenate([rng.random(200), rng.random(200) * 1e-9, [0.0, 1.0, 1e-17]])
    for v in values:
        assert float(fileio.fmt(v)) == v


def test_save_load_network_round_trip(tmp_path):
    net = generate_network(40, 3, np.random.default_rng(17))
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    fileio.save_network(net, nodes, edges)
    loaded, dangling = fileio.load_network(nodes, edges)
    assert loaded == net
    assert dangling == []


def test_save_is_canonical_and_stable(tmp_path):
    net = generate_network(25, 2, np.random.default_rng(23))
    first_n, first_e = tmp_path / "a_nodes.csv", tmp_path / "a_edges.csv"
    second_n, second_e = tmp_path / "b_nodes.csv", tmp_path / "b_edges.csv"
    fileio.save_network(net, first_n, first_e)
    fileio.save_network(net, second_n, second_e)
    assert first_n.read_bytes() == second_n.read_bytes()
    assert first_e.read_bytes() == second_e.read_bytes()
    lines = first_e.read_text().splitlines()
    pairs = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    assert first_n.read_text().endswith("\n")


def test_fixture_files_reproduce_worked_weights(fixtures_dir):
    net, dangling = fileio.load_network(
        fixtures_dir / "four_node" / "nodes.csv", fixtures_dir / "four_node" / "edges.csv"
    )
    assert net == four_node_network()
    assert dangling == [2, 3]
    weights = compute_weights_exact(net, ActiveSet([2, 3]))
    assert weights.weights[2] == pytest.approx(1.5, abs=1e-12)
    assert weights.weights[3] == pytest.approx(2.5, abs=1e-12)


def test_four_node_fixture_row_counts(fixtures_dir):
    nodes = (fixtures_dir / "four_node" / "nodes.csv").read_text().splitlines()
    edges = (fixtures_dir / "four_node" / "edges.csv").read_text().splitlines()
    assert len(nodes) == 1 + 4
    assert len(edges) == 1 + 3


def test_nodes_without_out_edges_absent_from_edges_file(tmp_path, fixtures_dir):
    net, _ = fileio.load_network(
        fixtures_dir / "stranded_pair" / "nodes.csv",
        fixtures_dir / "stranded_pair" / "edges.csv",
    )
    nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
    fileio.save_network(net, nodes, edges)
    assert "2," in nodes.read_text()
    sources = {line.split(",")[0] for line in edges.read_text().splitlines()[1:]}
    assert sources == {"0", "1"}


def test_load_reports_out_of_range_row(tmp_path):
    (tmp_path / "n.csv").write_text("id,opinion\n0,0.5\n1,0.5\n2,0.5\n3,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n0,1,0.5\n1,99,0.5\n")
    with pytest.raises(fileio.NetworkFormatError) as excinfo:
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    message = str(excinfo.value)
    assert ":3:" in message and "99" in message
    # blank lines count: the report names the line as an editor numbers it
    (tmp_path / "e.csv").write_text("source,target,trust\n\n\n0,1,0.5\n1,99,0.5\n")
    with pytest.raises(fileio.NetworkFormatError, match=r"e\.csv:5: target node 99"):
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")


def test_load_rejects_duplicate_edges_with_line(tmp_path):
    (tmp_path / "n.csv").write_text("id,opinion\n0,0.5\n1,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n0,1,0.5\n0,1,0.4\n")
    with pytest.raises(fileio.NetworkFormatError) as excinfo:
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    assert "duplicate edge (0, 1)" in str(excinfo.value)
    assert ":3:" in str(excinfo.value)


def test_load_rejects_bad_headers_and_tokens(tmp_path):
    (tmp_path / "n.csv").write_text("opinion,id\n0,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n")
    with pytest.raises(fileio.NetworkFormatError):
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    (tmp_path / "n.csv").write_text("id,opinion\n0,half\n")
    with pytest.raises(fileio.NetworkFormatError) as excinfo:
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    assert ":2:" in str(excinfo.value)
    (tmp_path / "n.csv").write_text("id,opinion\n0,0.5\n\n1,half\n")
    with pytest.raises(fileio.NetworkFormatError, match=r"n\.csv:4: could not parse '1,half'"):
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    (tmp_path / "n.csv").write_text("\n\nopinion,id\n0,0.5\n")
    with pytest.raises(fileio.NetworkFormatError, match=r"n\.csv:3: expected header"):
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")


def test_load_requires_dense_ids(tmp_path):
    (tmp_path / "n.csv").write_text("id,opinion\n0,0.5\n2,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n0,2,0.5\n2,0,0.5\n")
    with pytest.raises(fileio.NetworkFormatError) as excinfo:
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    # edges are not checked against a node list that failed
    assert "dense" in str(excinfo.value) and "out of range" not in str(excinfo.value)


def test_load_rejects_invariant_violations(tmp_path):
    (tmp_path / "n.csv").write_text("id,opinion\n0,1.3\n1,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n0,0,0.5\n")
    with pytest.raises(fileio.NetworkFormatError) as excinfo:
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    message = str(excinfo.value)
    assert "opinion" in message and "self-loop" in message


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(fileio.NetworkFormatError):
        fileio.load_network(tmp_path / "absent.csv", tmp_path / "absent2.csv")


# Line mutations of a saved network file.  Each takes the file's lines, the
# index of one body row, the network's size n, and returns new lines.
def _set_field(col, value):
    # a row that an earlier mutation left without the field, or with a field
    # that is not the integer ``value`` needs, is left as it is
    def mutate(lines, i, n):
        parts = lines[i].split(",")
        try:
            parts[col] = value(parts[col], n)
        except (IndexError, ValueError):
            return lines
        return lines[:i] + [",".join(parts)] + lines[i + 1:]
    return mutate


def _insert(text):
    return lambda lines, i, n: lines[:i] + [text] + lines[i:]


_MUTATIONS = {
    "blank line": _insert(""),
    "whitespace line": _insert(" \t "),
    "hash suffix": lambda lines, i, n: lines[:i] + [lines[i] + "#x"] + lines[i + 1:],
    "spaces around fields":
        lambda lines, i, n: lines[:i] + [f" {lines[i].replace(',', ' , ')} "] + lines[i + 1:],
    "information separator": lambda lines, i, n: lines[:i] + [lines[i] + "\x1c"] + lines[i + 1:],
    "plus id": _set_field(0, lambda v, n: "+" + v),
    "underscore id": _set_field(0, lambda v, n: v[0] + "_" + v[1:] if len(v) > 1 else "0_" + v),
    "float id": _set_field(0, lambda v, n: v + ".0"),
    "non-ascii id": _set_field(0, lambda v, n: "\u0661"),
    "id beyond int64": _set_field(0, lambda v, n: str(2**63 + int(v))),
    "negative id": _set_field(0, lambda v, n: "-1"),
    "id past n": _set_field(0, lambda v, n: str(n)),
    "nan value": _set_field(-1, lambda v, n: "nan"),
    "inf value": _set_field(-1, lambda v, n: "inf"),
    "overflowing value": _set_field(-1, lambda v, n: "1e400"),
    "underscore value": _set_field(-1, lambda v, n: "0_0.5"),
    "value above one": _set_field(-1, lambda v, n: "1.5"),
    "missing field": lambda lines, i, n: lines[:i] + [lines[i].rpartition(",")[0]] + lines[i + 1:],
    "extra field": lambda lines, i, n: lines[:i] + [lines[i] + ",0.5"] + lines[i + 1:],
    "duplicate row": lambda lines, i, n: lines[:i] + [lines[i]] + lines[i:],
    "swapped rows": lambda lines, i, n: lines[:i] + lines[i:i + 2][::-1] + lines[i + 2:],
    "dropped row": lambda lines, i, n: lines[:i] + lines[i + 1:],
    "self-loop": _set_field(1, lambda v, n: "0"),
}


def test_mutations_compose(tmp_path):
    # the draws below may stack mutations on one row; no pair of them raises
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    fileio.save_network(generate_network(3, 2, np.random.default_rng(0)), nodes, edges)
    for path in (nodes, edges):
        lines = path.read_text().splitlines()
        for first, second in itertools.product(_MUTATIONS.values(), repeat=2):
            second(first(lines, 1, 3), 1, 3)


def _outcome(load, nodes, edges):
    """The network ``load`` returns, or the text of the error it raises."""
    try:
        return load(nodes, edges)
    except fileio.NetworkFormatError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_load_matches_the_per_line_reader(tmp_path_factory, data):
    # the vectorised parse returns a network only where the per-line reader
    # returns the same one; every other file gets the per-line reader's error
    n = data.draw(st.integers(2, 12), label="n")
    network = generate_network(n, data.draw(st.integers(1, min(3, n - 1))),
                               np.random.default_rng(data.draw(st.integers(0, 2**16))))
    directory = tmp_path_factory.mktemp("mutated")
    nodes, edges = directory / "nodes.csv", directory / "edges.csv"
    fileio.save_network(network, nodes, edges)
    texts = {path: path.read_text().splitlines() for path in (nodes, edges)}
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        path = data.draw(st.sampled_from((nodes, edges)))
        lines = texts[path]
        if len(lines) < 2:
            continue
        name = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="mutation")
        texts[path] = _MUTATIONS[name](lines, data.draw(st.integers(1, len(lines) - 1)), n)
    if data.draw(st.booleans(), label="permute node rows"):
        body = texts[nodes][1:]
        texts[nodes] = texts[nodes][:1] + data.draw(st.permutations(body))
    newline = data.draw(st.sampled_from(("\n", "\r\n")), label="newline")
    for path, lines in texts.items():
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))

    expected = _outcome(fileio._load_lines, nodes, edges)
    fast = fileio._load_rows(nodes, edges)
    assert fast is None or fast == expected
    assert _outcome(lambda a, b: fileio.load_network(a, b)[0], nodes, edges) == expected


def test_per_line_faults_keep_line_order(tmp_path):
    # a row's own notes (duplicate, range, repeated edge) come in line order
    # among the parse notes, then the value faults; texts from the reader
    # that checked each row as it was read
    def fault(nodes_text, edges_text):
        (tmp_path / "n.csv").write_text(nodes_text)
        (tmp_path / "e.csv").write_text(edges_text)
        with pytest.raises(fileio.NetworkFormatError) as caught:
            fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
        return str(caught.value).replace(str(tmp_path), "<d>")

    assert fault("id,opinion\n0,0.5\n1,0.5\n1,0.25\n2,half\n\n3,0.5,0.1\n",
                 "source,target,trust\n") == (
        "<d>/n.csv:4: duplicate node id 1\n"
        "<d>/n.csv:5: could not parse '2,half'\n"
        "<d>/n.csv:7: expected 'id,opinion', got '3,0.5,0.1'"
    )
    assert fault("id,opinion\n0,0.5\n1,0.5\n2,0.5\n",
                 "source,target,trust\n0,5,0.5\n1,x,0.5\n0,5,0.5\n2,0,nan\n") == (
        "<d>/e.csv:2: target node 5 out of range for 3-node network\n"
        "<d>/e.csv:3: could not parse '1,x,0.5'\n"
        "<d>/e.csv:4: target node 5 out of range for 3-node network\n"
        "<d>/e.csv:4: duplicate edge (0, 5)\n"
        "edge (2, 0): raw trust nan outside [0.0, 1.0]"
    )


def test_saved_networks_take_the_vectorised_parse(tmp_path, fixtures_dir):
    # a file load_network reads with the per-line reader would also pass the
    # differential test, so check that saved files do take the fast path
    net = generate_network(30, 3, np.random.default_rng(5))
    fileio.save_network(net, tmp_path / "n.csv", tmp_path / "e.csv")
    assert fileio._load_rows(tmp_path / "n.csv", tmp_path / "e.csv") == net
    four = fixtures_dir / "four_node"
    assert fileio._load_rows(four / "nodes.csv", four / "edges.csv") == four_node_network()


def test_format_weights():
    vector = WeightVector(weights={3: 2.5, 2: 1.5}, stranded_mass=0.25, iterations_used=17)
    assert fileio.format_weights(vector) == (
        "# stranded_mass=0.25\n# iterations=17\nid,weight\n2,1.5\n3,2.5\n"
    )
    exact_vector = WeightVector(weights={0: 4.0}, stranded_mass=0.0, iterations_used=None)
    assert fileio.format_weights(exact_vector) == (
        "# stranded_mass=0\n# iterations=none\nid,weight\n0,4\n"
    )


def test_report_format_contains_all_values(four_node, four_node_active):
    weights = compute_weights_exact(four_node, four_node_active)
    report = decision_report(four_node, four_node_active, weights)
    text = fileio.format_report(report)
    parsed = dict(line.split(",") for line in text.strip().splitlines())
    assert float(parsed["group_decision"]) == pytest.approx(0.7, abs=1e-15)
    assert float(parsed["expected_decision"]) == pytest.approx(0.75, abs=1e-15)
    assert float(parsed["weighted_group_decision"]) == pytest.approx(0.75, abs=1e-15)
    assert float(parsed["error_traditional"]) == pytest.approx(0.05, abs=1e-12)
    assert float(parsed["error_weighted"]) == pytest.approx(0.0, abs=1e-12)


def test_results_round_trip():
    config = ExperimentConfig(n=12, k=2, trials=30, active_sizes=(3, 12), master_seed=2)
    result = run_experiment(config)
    lines = fileio.format_results(result).splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    assert meta["n"] == "12" and meta["trials"] == "30"
    assert meta["solver"] == "exact"
    body = [line.split(",") for line in lines if not line.startswith("#")][1:]
    rows = tuple(
        ActiveSizeStats(int(p[0]), int(p[1]), *(float(x) for x in p[2:])) for p in body
    )
    assert rows == result.rows


def test_results_header_schema():
    config = ExperimentConfig(n=10, k=2, trials=5, active_sizes=(2,), master_seed=2)
    lines = fileio.format_results(run_experiment(config)).splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == (
        "active_size,trials,mean_err_traditional,stderr_traditional,"
        "mean_err_weighted,stderr_weighted,stranded_fraction"
    )


def test_results_echo_k_only_when_the_config_has_one():
    # a run on an injected network may leave k out, and then echoes none
    fixed = dict(n=4, trials=3, active_sizes=(2,), fresh_network_per_trial=False)
    echoed = [fileio.format_results(run_experiment(ExperimentConfig(k=k, **fixed),
                                                   network=four_node_network()))
              for k in (None, 3)]
    assert "# k=" not in echoed[0]
    assert echoed[1] == echoed[0].replace("# n=4\n", "# n=4\n# k=3\n")


def test_parse_config_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("# comment\n\ntrials=25\nsizes=2,5\nstranded-policy=uniform\n")
    values = fileio.parse_config_file(path, ("trials", "sizes", "stranded-policy"))
    assert values == {"trials": "25", "sizes": "2,5", "stranded-policy": "uniform"}
    path.write_text("wat=1\n")
    with pytest.raises(fileio.NetworkFormatError):
        fileio.parse_config_file(path, ("trials",))
    path.write_text("# comment\n\njust a line\n")
    with pytest.raises(fileio.NetworkFormatError, match=":3: expected 'key=value'"):
        fileio.parse_config_file(path, ("trials",))


def test_parse_id_list_and_file(tmp_path):
    assert fileio.parse_id_list("3, 1,2") == [3, 1, 2]
    assert fileio.parse_id_list("") == []
    with pytest.raises(fileio.NetworkFormatError):
        fileio.parse_id_list("1,x")
    path = tmp_path / "ids.txt"
    path.write_text("# reps\n4\n7\n\n")
    assert fileio.load_id_file(path) == [4, 7]
    path.write_text("4\n\nseven\n")
    with pytest.raises(fileio.NetworkFormatError, match=":3: could not parse node id 'seven'"):
        fileio.load_id_file(path)
