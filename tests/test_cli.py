import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proxyvote.cli import main


def run_cli(*args):
    return main(list(args))


def _parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition(",")
        try:
            out[key] = float(value)
        except ValueError:
            continue  # header row
    return out


@pytest.fixture
def four_node_paths(fixtures_dir):
    d = fixtures_dir / "four_node"
    return str(d / "nodes.csv"), str(d / "edges.csv")


def test_decide_four_node(four_node_paths, capsys):
    nodes, edges = four_node_paths
    code = run_cli("decide", "--nodes", nodes, "--edges", edges, "--active", "2,3")
    assert code == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["group_decision"] == pytest.approx(0.7, abs=1e-12)
    assert values["expected_decision"] == pytest.approx(0.75, abs=1e-12)
    assert values["weighted_group_decision"] == pytest.approx(0.75, abs=1e-12)
    assert values["error_traditional"] == pytest.approx(0.05, abs=1e-12)
    assert values["error_weighted"] == pytest.approx(0.0, abs=1e-12)


def test_weights_iterative_and_exact_agree_on_fixtures(fixtures_dir, capsys):
    cases = [
        ("four_node", ["--active", "2,3"]),
        ("stranded_pair", ["--active", "2,3", "--stranded-policy", "uniform"]),
        ("isolated", ["--active", "1", "--stranded-policy", "uniform"]),
    ]
    for name, extra in cases:
        nodes = str(fixtures_dir / name / "nodes.csv")
        edges = str(fixtures_dir / name / "edges.csv")
        assert run_cli("weights", "--nodes", nodes, "--edges", edges, *extra) == 0
        plain = _parse_kv(capsys.readouterr().out)
        assert run_cli("weights", "--nodes", nodes, "--edges", edges, "--exact", *extra) == 0
        exact = _parse_kv(capsys.readouterr().out)
        assert set(plain) == set(exact)
        for node, w in plain.items():
            assert abs(w - exact[node]) <= 1e-6


def test_weights_output_file_round_trips(four_node_paths, tmp_path):
    nodes, edges = four_node_paths
    out = tmp_path / "w.csv"
    assert run_cli(
        "weights", "--nodes", nodes, "--edges", edges, "--active", "2,3",
        "--output", str(out),
    ) == 0
    text = out.read_text()
    assert text.startswith("# stranded_mass=0\n# iterations=2\nid,weight\n")
    assert _parse_kv(text) == {"2": 1.5, "3": 2.5}


def test_generate_then_validate_and_determinism(tmp_path, capsys):
    a_nodes, a_edges = str(tmp_path / "an.csv"), str(tmp_path / "ae.csv")
    b_nodes, b_edges = str(tmp_path / "bn.csv"), str(tmp_path / "be.csv")
    assert run_cli("generate", "--n", "30", "--k", "3", "--seed", "9",
                   "--nodes", a_nodes, "--edges", a_edges) == 0
    assert run_cli("generate", "--n", "30", "--k", "3", "--seed", "9",
                   "--nodes", b_nodes, "--edges", b_edges) == 0
    assert Path(a_nodes).read_bytes() == Path(b_nodes).read_bytes()
    assert Path(a_edges).read_bytes() == Path(b_edges).read_bytes()
    assert run_cli("validate", "--nodes", a_nodes, "--edges", a_edges) == 0
    capsys.readouterr()


def test_generate_rejects_bad_configuration(tmp_path, capsys):
    out_n, out_e = str(tmp_path / "n.csv"), str(tmp_path / "e.csv")
    assert run_cli("generate", "--n", "3", "--k", "3", "--nodes", out_n, "--edges", out_e) == 2
    assert run_cli("generate", "--n", "1", "--k", "1", "--nodes", out_n, "--edges", out_e) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err


def test_validate_lists_violations(tmp_path, capsys):
    (tmp_path / "n.csv").write_text("id,opinion\n0,1.7\n1,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n1,1,0.5\n0,1,0.5\n0,1,0.5\n")
    code = run_cli("validate", "--nodes", str(tmp_path / "n.csv"),
                   "--edges", str(tmp_path / "e.csv"))
    assert code == 2
    out = capsys.readouterr().out
    assert "opinion" in out and "self-loop" in out and "duplicate" in out


def test_exit_code_usage_errors(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("weights", "--nodes", nodes, "--edges", edges) == 1  # no active set
    assert run_cli("weights", "--nodes", nodes, "--edges", edges, "--active", "") == 1
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2", "--active-file", "x") == 1
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2", "--bogus-flag") == 1
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1
    capsys.readouterr()


def test_exit_code_validation_errors(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("weights", "--nodes", nodes, "--edges", edges, "--active", "2,99") == 2
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2,3", "--tolerance", "0") == 2
    assert run_cli("decide", "--nodes", nodes, "--edges", "/nonexistent/e.csv",
                   "--active", "2") == 2
    capsys.readouterr()


def test_exit_code_out_of_memory(tmp_path, monkeypatch, capsys):
    from proxyvote import cli

    def too_big(n, k, rng):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "generate_network", too_big)
    code = run_cli("generate", "--n", "1000000", "--k", "3",
                   "--nodes", str(tmp_path / "n.csv"), "--edges", str(tmp_path / "e.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert not (tmp_path / "n.csv").exists()


def test_exit_code_stranded_and_no_convergence(fixtures_dir, tmp_path, capsys):
    nodes = str(fixtures_dir / "stranded_pair" / "nodes.csv")
    edges = str(fixtures_dir / "stranded_pair" / "edges.csv")
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2,3", "--stranded-policy", "reject") == 3
    assert "stranded" in capsys.readouterr().err
    # isolated non-active node under reject
    iso_n = str(fixtures_dir / "isolated" / "nodes.csv")
    iso_e = str(fixtures_dir / "isolated" / "edges.csv")
    assert run_cli("weights", "--nodes", iso_n, "--edges", iso_e, "--active", "1") == 3
    # starved iteration budget
    (tmp_path / "cn.csv").write_text("id,opinion\n0,0.1\n1,0.2\n2,0.3\n")
    (tmp_path / "ce.csv").write_text("source,target,trust\n0,1,0.9\n1,2,0.9\n")
    assert run_cli("weights", "--nodes", str(tmp_path / "cn.csv"),
                   "--edges", str(tmp_path / "ce.csv"), "--active", "2",
                   "--max-iterations", "1") == 3
    # near-closed 0 <-> 1 cycle: the exact solve cannot conserve trust
    (tmp_path / "ne.csv").write_text("source,target,trust\n0,1,0.5\n1,0,0.5\n1,2,1e-16\n")
    (tmp_path / "nn.csv").write_text("id,opinion\n0,0.5\n1,0.5\n2,0.5\n")
    capsys.readouterr()
    assert run_cli("weights", "--nodes", str(tmp_path / "nn.csv"),
                   "--edges", str(tmp_path / "ne.csv"), "--active", "2", "--exact") == 3
    assert "ill-conditioned" in capsys.readouterr().err


def test_weights_uniform_policy_on_stranded_fixture(fixtures_dir, capsys):
    nodes = str(fixtures_dir / "stranded_pair" / "nodes.csv")
    edges = str(fixtures_dir / "stranded_pair" / "edges.csv")
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2,3", "--stranded-policy", "uniform") == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["2"] == pytest.approx(2.0, abs=1e-12)
    assert values["3"] == pytest.approx(2.0, abs=1e-12)


def test_active_file(four_node_paths, tmp_path, capsys):
    nodes, edges = four_node_paths
    ids = tmp_path / "active.txt"
    ids.write_text("2\n3\n")
    assert run_cli("decide", "--nodes", nodes, "--edges", edges,
                   "--active-file", str(ids)) == 0
    values = _parse_kv(capsys.readouterr().out)
    assert values["error_weighted"] == pytest.approx(0.0, abs=1e-12)
    ids.write_text("\n")
    assert run_cli("decide", "--nodes", nodes, "--edges", edges,
                   "--active-file", str(ids)) == 1
    capsys.readouterr()


def test_simulate_stdout_and_output_file(tmp_path, capsys):
    args = ("simulate", "--n", "20", "--k", "2", "--trials", "30",
            "--sizes", "2,20", "--seed", "4")
    assert run_cli(*args) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0].startswith("active_size,")
    assert len(rows) == 3
    path = tmp_path / "res.csv"
    assert run_cli(*args, "--output", str(path)) == 0
    assert path.read_text() == out


def test_simulate_deterministic_across_runs_and_workers(tmp_path):
    base = ("simulate", "--n", "30", "--k", "3", "--trials", "40",
            "--sizes", "2,5", "--seed", "12")
    one, two, par = tmp_path / "r1.csv", tmp_path / "r2.csv", tmp_path / "rp.csv"
    assert run_cli(*base, "--output", str(one)) == 0
    assert run_cli(*base, "--output", str(two)) == 0
    assert run_cli(*base, "--workers", "2", "--output", str(par)) == 0
    assert one.read_bytes() == two.read_bytes()
    assert one.read_bytes() == par.read_bytes()


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n=16\nk=2\ntrials=20\nsizes=2,4\nseed=3\nstranded-policy=uniform\n")
    assert run_cli("simulate", "--config", str(cfg), "--trials", "10") == 0
    rows, meta = _read_results(capsys.readouterr().out)
    assert meta["n"] == "16"
    assert meta["trials"] == "10"  # flag beats file
    assert [r[0] for r in rows] == ["2", "4"]
    cfg.write_text("unknown-key=1\n")
    assert run_cli("simulate", "--config", str(cfg)) == 2
    capsys.readouterr()


def _read_results(text):
    meta = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line and not line.startswith("active_size"):
            rows.append(line.split(","))
    return rows, meta


def test_simulate_rejects_bad_parameters(capsys):
    assert run_cli("simulate", "--n", "10", "--k", "2", "--trials", "5",
                   "--sizes", "11", "--seed", "1") == 2
    assert run_cli("simulate", "--n", "10", "--k", "12", "--trials", "5",
                   "--sizes", "2", "--seed", "1") == 2
    assert run_cli("simulate", "--n", "10", "--k", "2", "--trials", "5", "--sizes", "2",
                   "--workers", str(os.cpu_count() + 1)) == 2
    assert "workers" in capsys.readouterr().err


def test_simulate_stranded_error_same_across_workers(capsys):
    args = ("simulate", "--n", "20", "--k", "1", "--trials", "50", "--sizes", "2",
            "--stranded-policy", "reject")
    assert run_cli(*args, "--workers", "1") == 3
    serial = capsys.readouterr().err
    assert serial.endswith("no path to any active node: [5, 7, 17]\n")
    assert run_cli(*args, "--workers", "2") == 3
    assert capsys.readouterr().err == serial


def test_simulate_error_names_its_trial(capsys):
    args = ("simulate", "--n", "30", "--k", "2", "--trials", "40", "--sizes", "2,10",
            "--seed", "4", "--stranded-policy", "reject")
    assert run_cli(*args) == 3
    serial = capsys.readouterr().err
    lines = serial.splitlines()
    assert lines[0] == "error: failed at active size 2, trial 13, master seed 4"
    assert lines[1].startswith("error: trust stranded at nodes with no path")
    assert len(lines) == 2
    assert run_cli(*args, "--workers", "2") == 3
    assert capsys.readouterr().err == serial


def test_simulate_output_digest_is_pinned(tmp_path):
    # results files must stay byte-identical for a fixed seed
    out = tmp_path / "golden.csv"
    assert run_cli("simulate", "--n", "100", "--k", "3", "--trials", "300",
                   "--sizes", "2,5,10", "--seed", "77", "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c15fc6618751a845a69dbd2039dba9a8e3072db2867d0a2ca8f7a998c49d3e6d"
    )
    # a pool, three sizes and a trial count that does not split evenly into blocks
    assert run_cli("simulate", "--n", "100", "--k", "3", "--trials", "301",
                   "--sizes", "2,5,100", "--seed", "5", "--workers", "2",
                   "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "34072b9db71559027f4a5291123821f5baa3ed8bba942636f39b0ffdb5358e57"
    )


def test_simulate_with_injected_network(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("simulate", "--nodes", nodes, "--edges", edges,
                   "--trials", "25", "--sizes", "2,4", "--seed", "6") == 0
    rows, meta = _read_results(capsys.readouterr().out)
    assert meta["fresh-network"] == "false"
    assert [r[0] for r in rows] == ["2", "4"]
    assert float(rows[1][2]) == 0.0  # full participation row
    assert run_cli("simulate", "--nodes", nodes, "--edges", edges, "--n", "4") == 1
    capsys.readouterr()


def test_simulate_default_sizes_adapt_to_n(capsys):
    assert run_cli("simulate", "--n", "20", "--k", "2", "--trials", "10",
                   "--seed", "1") == 0
    rows, _ = _read_results(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["2", "5", "10", "20"]


def test_simulate_fixed_network_flag(capsys):
    assert run_cli("simulate", "--n", "12", "--k", "2", "--trials", "15",
                   "--sizes", "3", "--seed", "2", "--fixed-network") == 0
    _, meta = _read_results(capsys.readouterr().out)
    assert meta["fresh-network"] == "false"


def test_module_entry_point(four_node_paths):
    nodes, edges = four_node_paths
    proc = subprocess.run(
        [sys.executable, "-m", "proxyvote", "decide", "--nodes", nodes,
         "--edges", edges, "--active", "2,3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "weighted_group_decision" in proc.stdout


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert run_cli("simulate", "--help") == 0
    capsys.readouterr()
