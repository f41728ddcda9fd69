import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxyvote import ActiveSet, cli, delegation, generate_network
from proxyvote.cli import main
from proxyvote.fileio import save_network
from conftest import exact_core_count


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


@pytest.mark.parametrize("where, reason", [("missing/x.txt", "No such file or directory"),
                                           (".", "Is a directory")])
def test_unwritable_output_path_exits_2(where, reason, four_node_paths, tmp_path, capsys):
    # every command that writes a file names the path it could not write
    nodes, edges = four_node_paths
    path = str(tmp_path / where)
    solve = ("--nodes", nodes, "--edges", edges, "--active", "2,3", "--output", path)
    for args in (("weights",) + solve, ("decide",) + solve,
                 ("simulate", "--n", "10", "--trials", "2", "--sizes", "2", "--output", path),
                 ("generate", "--n", "10", "--nodes", path, "--edges", str(tmp_path / "e.csv")),
                 ("generate", "--n", "10", "--nodes", str(tmp_path / "n.csv"), "--edges", path)):
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}: {reason}"


@pytest.mark.parametrize("where", ["missing/e.csv", "."])
def test_generate_with_an_unwritable_edges_path_writes_no_nodes_file(where, tmp_path, capsys):
    nodes, edges = tmp_path / "n.csv", str(tmp_path / where)
    assert run_cli("generate", "--n", "10", "--k", "2", "--nodes", str(nodes), "--edges", edges) == 2
    assert capsys.readouterr().err.startswith(f"error: {edges}: ")
    assert not nodes.exists()


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


def test_generate_output_digest_is_pinned(tmp_path):
    # the generation stream on its own: one rng.random(n * (k + 1)) per network
    nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
    assert run_cli("generate", "--n", "2000", "--k", "3", "--seed", "11",
                   "--nodes", str(nodes), "--edges", str(edges)) == 0
    assert hashlib.sha256(nodes.read_bytes()).hexdigest() == (
        "d87816d00de0f2eabd635bc7aedc9770580efe16658ef45b5ec2990554281744"
    )
    assert hashlib.sha256(edges.read_bytes()).hexdigest() == (
        "2e9f00183ff801087e757bd589ae0904f6497d182c0ee2c8dcf181a5cf40b79a"
    )


def test_generate_rejects_bad_configuration(tmp_path, capsys):
    out_n, out_e = str(tmp_path / "n.csv"), str(tmp_path / "e.csv")
    assert run_cli("generate", "--n", "3", "--k", "3", "--nodes", out_n, "--edges", out_e) == 2
    assert run_cli("generate", "--n", "1", "--k", "1", "--nodes", out_n, "--edges", out_e) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert run_cli("generate", "--seed", "-1", "--nodes", out_n, "--edges", out_e) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not any(tmp_path.iterdir())


def test_validate_lists_violations(tmp_path, capsys):
    (tmp_path / "n.csv").write_text("id,opinion\n0,1.7\n1,0.5\n")
    (tmp_path / "e.csv").write_text("source,target,trust\n1,1,0.5\n0,1,0.5\n0,1,0.5\n")
    code = run_cli("validate", "--nodes", str(tmp_path / "n.csv"),
                   "--edges", str(tmp_path / "e.csv"))
    assert code == 2
    out = capsys.readouterr().out
    assert "opinion" in out and "self-loop" in out and "duplicate" in out
    (tmp_path / "n.csv").write_text("id,opinion\n")  # a header and no rows
    (tmp_path / "e.csv").write_text("source,target,trust\n")
    assert run_cli("validate", "--nodes", str(tmp_path / "n.csv"),
                   "--edges", str(tmp_path / "e.csv")) == 2
    assert capsys.readouterr().out == f"{tmp_path / 'n.csv'}: no nodes\n"


def test_exit_code_usage_errors(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("weights", "--nodes", nodes, "--edges", edges) == 1  # no active set
    assert run_cli("weights", "--nodes", nodes, "--edges", edges, "--active", "") == 1
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2", "--active-file", "x") == 1
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2", "--bogus-flag") == 1
    assert run_cli("simulate", "--nodes", nodes) == 1  # --nodes without --edges
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1
    capsys.readouterr()


def test_unparsable_id_or_size_is_named(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("weights", "--nodes", nodes, "--edges", edges, "--active", "2,2.5") == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: could not parse node id '2.5'"
    assert run_cli("simulate", "--n", "10", "--trials", "2", "--sizes", "2,2.5") == 2
    assert capsys.readouterr().err == "error: could not parse active size '2.5'\n"


def test_exit_code_validation_errors(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("weights", "--nodes", nodes, "--edges", edges, "--active", "2,99") == 2
    assert run_cli("weights", "--nodes", nodes, "--edges", edges,
                   "--active", "2,3", "--tolerance", "0") == 2
    capsys.readouterr()
    for command in ("weights", "decide"):  # the exact solve's config is checked too
        for flag, value, message in [("--max-iterations", "0", "max_iterations must be >= 1, got 0"),
                                     ("--tolerance", "0", "tolerance must be positive, got 0.0")]:
            assert run_cli(command, "--nodes", nodes, "--edges", edges, "--active", "2,3",
                           "--exact", flag, value) == 2
            assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert run_cli("decide", "--nodes", nodes, "--edges", "/nonexistent/e.csv",
                   "--active", "2") == 2
    capsys.readouterr()


@pytest.mark.parametrize("tolerance", ["1e-3", "inf", "1e-6"])
def test_tolerance_over_the_conservation_bound_exit_2(tolerance, four_node_paths, tmp_path, capsys):
    # the iterative solve drops up to its tolerance of residual trust, so one
    # over CONSERVATION_TOL breaks the weights' sum of n; from the flag or the
    # config file, it is refused before any solve
    nodes, edges = four_node_paths
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"tolerance={tolerance}\n")
    solve = ("--nodes", nodes, "--edges", edges, "--active", "2,3", "--tolerance", tolerance)
    simulate = ("simulate", "--n", "20", "--trials", "4", "--sizes", "5", "--solver", "iterative")
    for args in (("weights",) + solve, ("decide",) + solve,
                 simulate + ("--tolerance", tolerance), simulate + ("--config", str(cfg))):
        code = run_cli(*args)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if tolerance == "1e-6":
            assert code == 0, err
        else:
            assert code == 2
            assert err.splitlines()[-1] == (f"error: tolerance must be at most 1e-06 (the bound on"
                                            f" |sum of weights - n|), got {float(tolerance)}")


def test_decide_hostile_files_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("n.csv").write_text("id,opinion\n0,0.5\n1,0.25\n2,0.75\n")
    Path("e.csv").write_text("source,target,trust\n0,1,0.5\n1,2,0.5\n2,0,0.5\n")
    Path("big_n.csv").write_text("id,opinion\n0,0.5\n1,0.25\n9223372036854775808,0.75\n")
    Path("nan_e.csv").write_text("source,target,trust\n0,1,nan\n1,2,0.5\n2,0,0.5\n")
    Path("hash_e.csv").write_text("source,target,trust\n0,1,0.5\n1,2,0.5#x\n2,0,0.5\n")
    cases = [
        ("big_n.csv", "e.csv", "error: big_n.csv: node ids must be dense 0..2; "
                               "missing [2], unexpected [9223372036854775808]\n"),
        ("n.csv", "nan_e.csv", "error: edge (0, 1): raw trust nan outside [0.0, 1.0]\n"),
        ("n.csv", "hash_e.csv", "error: hash_e.csv:3: could not parse '1,2,0.5#x'\n"),
    ]
    for nodes, edges, err in cases:
        assert run_cli("decide", "--nodes", nodes, "--edges", edges, "--active", "0") == 2
        assert capsys.readouterr().err == err
    assert run_cli("decide", "--nodes", "n.csv", "--edges", "e.csv", "--active", "0") == 0
    capsys.readouterr()


def test_undecodable_file_names_itself(four_node_paths, tmp_path, capsys):
    nodes, edges = four_node_paths
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"id,opinion\n0,0.5\xff\n")
    fault = f"{bad}: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte\n"
    dangling = "warning: dangling nodes (no outgoing trust): [2, 3]\n"
    calls = [  # (arguments, stdout, stderr)
        (("validate", "--nodes", str(bad), "--edges", edges), fault, ""),
        (("decide", "--nodes", str(bad), "--edges", edges, "--active", "0"), "", "error: " + fault),
        (("decide", "--nodes", nodes, "--edges", edges, "--active-file", str(bad)),
         "", dangling + "error: " + fault),
        (("simulate", "--config", str(bad)), "", "error: " + fault),
    ]
    for args, out, err in calls:
        assert run_cli(*args) == 2
        assert capsys.readouterr() == (out, err)


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

    def no_text(n, k, rng):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_network", no_text)
    assert run_cli("generate", "--n", "10", "--k", "3",
                   "--nodes", str(tmp_path / "n.csv"), "--edges", str(tmp_path / "e.csv")) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    # results for 10**15 trials are allocated, and refused, before any trial runs
    assert run_cli("simulate", "--trials", str(10**15), "--sizes", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and len(err) > len("error: out of memory: \n")


def test_exact_weights_over_block_limit_exit_2(tmp_path, monkeypatch, capsys):
    # with the limit one byte below the dense core left after elimination
    # (about 540 of the 1,900 transient nodes at n=2000, k=3, 100 active)
    rng = np.random.default_rng(1)
    net = generate_network(2000, 3, rng)
    active = ActiveSet(rng.choice(2000, size=100, replace=False))
    core = exact_core_count(net, active)
    monkeypatch.setattr(delegation, "EXACT_BLOCK_BYTES", core * core * 8 - 1)
    nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
    save_network(net, nodes, edges)
    code = run_cli("weights", "--nodes", str(nodes), "--edges", str(edges),
                   "--active", ",".join(map(str, active.ids.tolist())), "--exact")
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]  # after any dangling-node warning
    assert last.startswith(f"error: out of memory: the exact solve of {core} transient nodes")
    assert last.endswith("use the iterative solver")
    # the block's bytes and the limit's, which a GiB count would round to 0 here
    assert f"needs {core * core * 8} bytes, over the limit of {core * core * 8 - 1} bytes;" in last


def test_simulate_exact_block_limit_names_its_trial(monkeypatch, capsys):
    # with no room for any T x T block the first trial's exact solve refuses
    monkeypatch.setattr(delegation, "EXACT_BLOCK_BYTES", 8)
    assert run_cli("simulate", "--n", "20", "--k", "2", "--trials", "10", "--sizes", "2,5",
                   "--seed", "3") == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: failed at active size 2, trial 0, master seed 3"
    assert lines[1].startswith("error: out of memory: the exact solve of ")
    assert lines[1].endswith("use the iterative solver")
    assert len(lines) == 2


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


def test_simulate_solver_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("solver=iterative\n")
    base = ("simulate", "--n", "16", "--k", "2", "--trials", "10", "--sizes", "4", "--seed", "3")
    assert run_cli(*base, "--config", str(cfg)) == 0
    assert _read_results(capsys.readouterr().out)[1]["solver"] == "iterative"
    assert run_cli(*base, "--config", str(cfg), "--solver", "exact") == 0
    flagged = capsys.readouterr().out
    assert _read_results(flagged)[1]["solver"] == "exact"
    assert run_cli(*base) == 0
    assert capsys.readouterr().out == flagged  # exact is the default
    assert run_cli(*base, "--solver", "magic") == 1
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


def test_simulate_rejects_bad_parameters(tmp_path, capsys):
    assert run_cli("simulate", "--n", "10", "--k", "2", "--trials", "5",
                   "--sizes", "11", "--seed", "1") == 2
    assert run_cli("simulate", "--n", "10", "--k", "12", "--trials", "5",
                   "--sizes", "2", "--seed", "1") == 2
    assert run_cli("simulate", "--n", "10", "--k", "2", "--trials", "5", "--sizes", "2",
                   "--workers", str(os.cpu_count() + 1)) == 2
    assert "workers" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    for line, err in [("fixed-network=maybe", "error: expected true/false, got 'maybe'\n"),
                      ("stranded-policy=bogus", "error: unknown stranded policy 'bogus'\n")]:
        cfg.write_text(f"n=10\ntrials=2\n{line}\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == err


def test_simulate_stranded_error_same_across_workers(capsys):
    args = ("simulate", "--n", "20", "--k", "1", "--trials", "50", "--sizes", "2",
            "--seed", "106022", "--stranded-policy", "reject")
    assert run_cli(*args, "--workers", "1") == 3
    serial = capsys.readouterr().err
    assert serial.endswith("no path to any active node: [5, 7, 17]\n")
    assert run_cli(*args, "--workers", "2") == 3
    assert capsys.readouterr().err == serial


def test_simulate_error_names_its_trial(capsys):
    args = ("simulate", "--n", "30", "--k", "2", "--trials", "40", "--sizes", "2,10",
            "--seed", "8", "--stranded-policy", "reject")
    assert run_cli(*args) == 3
    serial = capsys.readouterr().err
    lines = serial.splitlines()
    assert lines[0] == "error: failed at active size 2, trial 13, master seed 8"
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
        "9d6acd8260f167025d8cd80508a01ba15339c5c7ec6535ffa1a79b1553416445"
    )
    # a pool, three sizes and a trial count that does not split evenly into blocks
    assert run_cli("simulate", "--n", "100", "--k", "3", "--trials", "301",
                   "--sizes", "2,5,100", "--seed", "5", "--workers", "2",
                   "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "34bd2b53199c9ae63857846eb347f45a72e611865a865e0205c019e5c60dc95f"
    )
    # the iterative solver, size 2 included: its tail closes long before the budget
    cfg = tmp_path / "iterative.cfg"
    cfg.write_text("solver=iterative\n")
    assert run_cli("simulate", "--config", str(cfg), "--n", "100", "--k", "3", "--trials", "300",
                   "--sizes", "2,5,10,50", "--seed", "77", "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "580ba5fe8261d3a37c32acef6a82ac2d2c7f680fe61fb9f8e1017b8cfaeafd2c"
    )


def test_simulate_with_injected_network(four_node_paths, capsys):
    nodes, edges = four_node_paths
    assert run_cli("simulate", "--nodes", nodes, "--edges", edges,
                   "--trials", "25", "--sizes", "2,4", "--seed", "6") == 0
    rows, meta = _read_results(capsys.readouterr().out)
    assert meta["fresh-network"] == "false"
    assert "k" not in meta  # a network read from files has no single out-degree k
    assert [r[0] for r in rows] == ["2", "4"]
    assert float(rows[1][2]) == 0.0  # full participation row
    assert run_cli("simulate", "--nodes", nodes, "--edges", edges, "--n", "4") == 1
    capsys.readouterr()


def test_simulate_default_sizes_adapt_to_n(capsys):
    assert run_cli("simulate", "--n", "20", "--k", "2", "--trials", "10",
                   "--seed", "1") == 0
    rows, _ = _read_results(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["2", "5", "10", "20"]


def test_simulate_fixed_network_flag(tmp_path, capsys):
    args = ("simulate", "--n", "12", "--k", "2", "--trials", "15", "--sizes", "3", "--seed", "2")
    assert run_cli(*args, "--fixed-network") == 0
    out = capsys.readouterr().out
    _, meta = _read_results(out)
    assert meta["fresh-network"] == "false"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("fixed-network=True\n")
    assert run_cli(*args, "--config", str(cfg)) == 0
    assert capsys.readouterr().out == out


def test_module_entry_point(four_node_paths):
    nodes, edges = four_node_paths
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "proxyvote", "decide", "--nodes", nodes,
         "--edges", edges, "--active", "2,3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "weighted_group_decision" in proc.stdout


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert run_cli("simulate", "--help") == 0
    capsys.readouterr()


def test_main_reuses_one_parser_with_the_same_output(four_node_paths, monkeypatch, capsysbinary):
    # main parses with one parser per process; a sequence of calls on it gives
    # the bytes and exit codes of the same calls each on a freshly built parser
    nodes, edges = four_node_paths
    files = ["--nodes", nodes, "--edges", edges, "--active", "2,3"]
    calls = [
        ["decide", "--nodes", nodes, "--bogus"],
        ["--help"],
        ["decide", *files],
        ["weights", *files, "--exact"],
        ["simulate", "--n", "20", "--k", "2", "--trials", "5", "--sizes", "2,5", "--seed", "3"],
        ["decide", *files],
    ]

    def outcomes():
        runs = []
        for argv in calls:
            code = main(argv)
            captured = capsysbinary.readouterr()
            runs.append((code, captured.out, captured.err))
        return runs

    shared = outcomes()
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == shared
