import numpy as np
import pytest

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


def test_load_requires_dense_ids(tmp_path):
    (tmp_path / "n.csv").write_text("id,opinion\n0,0.5\n2,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n")
    with pytest.raises(fileio.NetworkFormatError) as excinfo:
        fileio.load_network(tmp_path / "n.csv", tmp_path / "e.csv")
    assert "dense" in str(excinfo.value)


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


def test_parse_config_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("# comment\n\ntrials=25\nsizes=2,5\nstranded-policy=uniform\n")
    values = fileio.parse_config_file(path, ("trials", "sizes", "stranded-policy"))
    assert values == {"trials": "25", "sizes": "2,5", "stranded-policy": "uniform"}
    path.write_text("wat=1\n")
    with pytest.raises(fileio.NetworkFormatError):
        fileio.parse_config_file(path, ("trials",))
    path.write_text("just a line\n")
    with pytest.raises(fileio.NetworkFormatError):
        fileio.parse_config_file(path, ("trials",))


def test_parse_id_list_and_file(tmp_path):
    assert fileio.parse_id_list("3, 1,2") == [3, 1, 2]
    assert fileio.parse_id_list("") == []
    with pytest.raises(fileio.NetworkFormatError):
        fileio.parse_id_list("1,x")
    path = tmp_path / "ids.txt"
    path.write_text("# reps\n4\n7\n\n")
    assert fileio.load_id_file(path) == [4, 7]
    path.write_text("4\nseven\n")
    with pytest.raises(fileio.NetworkFormatError):
        fileio.load_id_file(path)
