import numpy as np
import pytest

from proxyvote import (
    ActiveSet,
    StrandedPolicy,
    TrustNetwork,
    WeightVector,
    compute_weights_exact,
    decision_error,
    decision_report,
    generate_network,
)
from conftest import random_instance


def _full_weight(network, node):
    """Active set {node} with the whole population's weight on it."""
    return ActiveSet([node]), WeightVector(weights={node: float(network.n)})


def test_four_node_decision_values(four_node, four_node_active):
    weights = compute_weights_exact(four_node, four_node_active)
    report = decision_report(four_node, four_node_active, weights)
    assert report.group_decision == pytest.approx(0.7, abs=1e-15)
    assert report.expected_decision == pytest.approx(0.75, abs=1e-15)
    assert report.weighted_group_decision == pytest.approx(0.75, abs=1e-15)
    assert report.error_traditional == pytest.approx(0.05, abs=1e-12)
    assert report.error_weighted <= 1e-12


def test_group_decision_single_and_constant():
    net = TrustNetwork([0.3, 0.62, 0.9], [], [], [])
    assert decision_report(net, *_full_weight(net, 1)).group_decision == 0.62
    flat = TrustNetwork([0.4] * 5, [], [], [])
    for members in ([0], [1, 3], list(range(5))):
        share = WeightVector(weights={i: 5 / len(members) for i in members})
        assert decision_report(flat, ActiveSet(members), share).group_decision == 0.4


def test_expected_decision_examples():
    halves = TrustNetwork([0.0, 1.0], [], [], [])
    assert decision_report(halves, *_full_weight(halves, 0)).expected_decision == 0.5
    flat = TrustNetwork([0.7] * 9, [], [], [])
    assert decision_report(flat, *_full_weight(flat, 4)).expected_decision == pytest.approx(
        0.7, abs=1e-15
    )


def test_weighted_reduces_to_expected_with_unit_weights():
    net = generate_network(17, 2, np.random.default_rng(3))
    active = ActiveSet(range(17))
    ones = WeightVector(weights={i: 1.0 for i in range(17)})
    report = decision_report(net, active, ones)
    assert report.weighted_group_decision == report.expected_decision


def test_weighted_single_active_with_full_weight():
    net = TrustNetwork([0.1, 0.8, 0.3, 0.4], [], [], [])
    report = decision_report(net, *_full_weight(net, 1))
    assert report.weighted_group_decision == pytest.approx(0.8, abs=1e-15)


def test_weighted_rejects_mismatched_membership(four_node, four_node_active):
    wrong = WeightVector(weights={0: 2.0, 3: 2.0})
    with pytest.raises(ValueError, match="does not cover exactly"):
        decision_report(four_node, four_node_active, wrong)


def test_weighted_rejects_broken_conservation(four_node, four_node_active):
    for corrupted in (WeightVector(weights={2: 1.5, 3: 1.5}),
                      WeightVector(weights={2: 1.5, 3: float("nan")})):
        with pytest.raises(ValueError, match="corrupted weight vector"):
            decision_report(four_node, four_node_active, corrupted)


def test_decision_error_examples():
    assert decision_error(0.7, 0.75) == pytest.approx(0.05, abs=1e-15)
    for x in (0.0, 0.31, 1.0):
        assert decision_error(x, x) == 0.0
    assert decision_error(0.2, 0.9) == pytest.approx(0.7, abs=1e-15)
    assert decision_error(0.9, 0.2) == decision_error(0.2, 0.9)


def test_decision_values_bounded_by_opinion_range():
    rng = np.random.default_rng(21)
    for _ in range(25):
        net, active = random_instance(rng, max_n=40)
        weights = compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
        report = decision_report(net, active, weights)
        active_ops = net.opinions[active.ids]
        lo, hi = active_ops.min(), active_ops.max()
        assert lo - 1e-12 <= report.group_decision <= hi + 1e-12
        assert lo - 1e-12 <= report.weighted_group_decision <= hi + 1e-12
        assert net.opinions.min() - 1e-12 <= report.expected_decision <= net.opinions.max() + 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        base = generate_network(n, min(3, n - 1), rng)
        # keep shifted opinions inside [0, 1]
        delta = float(rng.uniform(-base.opinions.min(), 1.0 - base.opinions.max()))
        size = int(rng.integers(1, n + 1))
        active = ActiveSet(rng.choice(n, size=size, replace=False))
        shifted_ops = base.opinions + delta
        recomputed_raw = 1.0 - np.abs(
            shifted_ops[base.edge_source] - shifted_ops[base.edge_target]
        )
        np.testing.assert_allclose(recomputed_raw, base.raw_trust, atol=1e-12)
        shifted = TrustNetwork(shifted_ops, base.edge_source, base.edge_target, recomputed_raw)
        w_base = compute_weights_exact(base, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
        w_shift = compute_weights_exact(shifted, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
        for node in active:
            assert w_shift.weights[node] == pytest.approx(w_base.weights[node], abs=1e-9)
        r_base = decision_report(base, active, w_base)
        r_shift = decision_report(shifted, active, w_base)
        assert r_shift.group_decision - r_base.group_decision == pytest.approx(delta, abs=1e-9)
        assert r_shift.expected_decision - r_base.expected_decision == pytest.approx(delta, abs=1e-9)
        assert r_shift.weighted_group_decision - r_base.weighted_group_decision == pytest.approx(
            delta, abs=1e-9
        )


def test_empty_network_rejected():
    empty = TrustNetwork([], [], [], [])
    with pytest.raises(ValueError, match="out of range for 0-node network"):
        decision_report(empty, ActiveSet([0]), WeightVector(weights={0: 0.0}))
