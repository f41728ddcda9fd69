import numpy as np
import pytest

from proxyvote import (
    ActiveSet,
    TrustNetwork,
    generate_network,
    trust_value,
    validate_network,
)
from proxyvote.fileio import format_network


def test_trust_value_examples():
    assert trust_value(0.9, 0.9) == 1.0
    assert trust_value(0.0, 1.0) == 0.0
    assert trust_value(0.3, 0.7) == pytest.approx(0.6, abs=1e-15)


def test_trust_value_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    a, b = rng.random(10_000), rng.random(10_000)
    forward, backward = trust_value(a, b), trust_value(b, a)
    np.testing.assert_array_equal(forward, backward)
    assert np.all((forward >= 0.0) & (forward <= 1.0))


def test_normalize_divides_by_row_total():
    net = TrustNetwork([0.5, 0.5, 0.5], [0, 0], [1, 2], [0.7, 0.9])
    np.testing.assert_allclose(net.normalized_trust, [0.4375, 0.5625], atol=1e-15)
    assert net.dangling_nodes() == [1, 2]


def test_normalize_single_edge_takes_everything():
    net = TrustNetwork([0.5, 0.5], [0], [1], [0.3])
    assert net.normalized_trust[0] == 1.0
    assert net.dangling_nodes() == [1]


def test_normalize_all_zero_raw_is_dangling():
    net = TrustNetwork([0.5, 0.5, 0.5], [0, 0], [1, 2], [0.0, 0.0])
    assert net.dangling_nodes() == [0, 1, 2]
    assert np.all(net.normalized_trust == 0.0)


def test_normalize_scale_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        net = generate_network(12, 3, rng)
        node = int(rng.integers(0, 12))
        c = float(10.0 ** rng.uniform(-8, 8))
        raw = net.raw_trust.copy()
        raw[net.edge_source == node] *= c
        scaled = TrustNetwork(net.opinions, net.edge_source, net.edge_target, raw)
        np.testing.assert_allclose(
            scaled.normalized_trust, net.normalized_trust, atol=1e-12
        )


def test_generate_shape_and_degrees():
    rng = np.random.default_rng(3)
    net = generate_network(100, 3, rng)
    assert net.n == 100 and net.edge_count == 300
    for node in range(100):
        targets = net.edge_target[net.edge_source == node].tolist()
        assert len(targets) == 3
        assert len(set(targets)) == 3
        assert node not in targets
    assert np.all((net.opinions >= 0.0) & (net.opinions < 1.0))
    assert validate_network(net) == []


def test_generate_complete_when_k_is_n_minus_1():
    net = generate_network(4, 3, np.random.default_rng(0))
    for node in range(4):
        assert sorted(net.edge_target[net.edge_source == node].tolist()) == sorted(
            set(range(4)) - {node}
        )


def test_generate_rejects_bad_configuration():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_network(3, 3, rng)
    with pytest.raises(ValueError):
        generate_network(1, 1, rng)
    with pytest.raises(ValueError):
        generate_network(5, 0, rng)


def test_generate_deterministic_per_seed():
    a = generate_network(50, 4, np.random.default_rng(np.random.SeedSequence(11)))
    b = generate_network(50, 4, np.random.default_rng(np.random.SeedSequence(11)))
    c = generate_network(50, 4, np.random.default_rng(np.random.SeedSequence(12)))
    assert a == b
    assert a != c
    assert format_network(a) == format_network(b)


def test_generate_raw_trust_matches_opinion_similarity():
    net = generate_network(30, 2, np.random.default_rng(5))
    expected = trust_value(net.opinions[net.edge_source], net.opinions[net.edge_target])
    np.testing.assert_array_equal(net.raw_trust, expected)


def test_validate_reports_self_loop():
    net = TrustNetwork([0.5, 0.5, 0.5], [2], [2], [0.5])
    problems = validate_network(net)
    assert len(problems) == 1
    assert "self-loop" in problems[0] and "2" in problems[0]


def test_validate_reports_opinion_range():
    net = TrustNetwork([1.3, 0.5], [0], [1], [0.5])
    problems = validate_network(net)
    assert any("node 0" in p and "opinion" in p for p in problems)


def test_validate_reports_duplicates_and_bad_endpoints():
    net = TrustNetwork([0.5, 0.5], [0, 0, 0, 1], [1, 1, 9, 0], [0.5, 0.4, 0.5, 1.5])
    problems = "\n".join(validate_network(net))
    assert "duplicate edge (0, 1)" in problems
    assert "target node 9 out of range" in problems
    assert "raw trust" in problems


def test_validate_accepts_empty_network_edge_case():
    assert validate_network(TrustNetwork([], [], [], [])) == ["network has no nodes"]


def test_network_immutable():
    net = generate_network(5, 2, np.random.default_rng(2))
    with pytest.raises(ValueError):
        net.opinions[0] = 0.3
    with pytest.raises(ValueError):
        net.raw_trust[0] = 0.3


def test_network_canonical_edge_order():
    net = TrustNetwork([0.1, 0.2, 0.3], [2, 0, 0], [0, 2, 1], [0.5, 0.5, 0.5])
    pairs = list(zip(net.edge_source, net.edge_target))
    assert pairs == sorted(pairs)


def test_active_set_invariants():
    with pytest.raises(ValueError):
        ActiveSet([])
    with pytest.raises(ValueError):
        ActiveSet([-1, 2])
    active = ActiveSet([3, 1, 3])
    assert len(active) == 2
    assert active.ids.tolist() == [1, 3] and active.ids.dtype == np.int64
    assert not active.ids.flags.writeable
    assert list(active) == [1, 3] and 3 in active and 2 not in active
    assert active == ActiveSet([1, 3]) and hash(active) == hash(frozenset({1, 3}))
    active.validate_for(4)
    with pytest.raises(ValueError):
        active.validate_for(3)
    with pytest.raises(AttributeError):
        active.members = frozenset()


def test_validate_pins_every_message_in_order():
    nan = float("nan")
    broken = TrustNetwork(
        [0.5, nan, 1.5, 0.2],
        [0, 0, 1, 1, 2, 2, -1, 3, 4],
        [1, 1, 1, 2, 3, 5, 0, 0, -2],
        [0.5, 0.5, 0.4, 1.25, nan, 0.5, 0.5, -0.5, 0.5],
    )
    assert validate_network(broken) == [
        "node 1: opinion nan outside [0.0, 1.0]",
        "node 2: opinion 1.5 outside [0.0, 1.0]",
        "edge (-1, 0): source node -1 out of range",
        "edge (1, 1): self-loop on node 1",
        "edge (1, 2): raw trust 1.25 outside [0.0, 1.0]",
        "edge (2, 3): raw trust nan outside [0.0, 1.0]",
        "edge (2, 5): target node 5 out of range",
        "edge (3, 0): raw trust -0.5 outside [0.0, 1.0]",
        "edge (4, -2): source node 4 out of range",
        "edge (4, -2): target node -2 out of range",
        "duplicate edge (0, 1)",
    ]
