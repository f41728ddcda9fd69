import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxyvote import (
    ActiveSet,
    TrustNetwork,
    generate_network,
    trust_value,
    validate_network,
)
from proxyvote.fileio import format_network
from proxyvote.network import _floyd_picks, _floyd_set


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
    for n in range(2, 9):
        net = generate_network(n, n - 1, np.random.default_rng(n))
        for node in range(n):
            assert sorted(net.edge_target[net.edge_source == node].tolist()) == sorted(
                set(range(n)) - {node}
            )


@pytest.mark.parametrize("n, k", [(6, 3), (7, 2)])
def test_generate_targets_are_uniform_k_subsets(n, k):
    # each node's targets are a uniform k-subset of the other n-1 nodes; a
    # fix-up of repeated picks that keeps the degrees right can still bias
    # it.  Each (node, subset) cell expects 400 draws; 100 is five sigma
    rng = np.random.default_rng(17)
    subsets = math.comb(n - 1, k)
    networks = 400 * subsets
    targets = np.stack([generate_network(n, k, rng).edge_target for _ in range(networks)])
    codes = (1 << targets.reshape(networks, n, k)).sum(axis=2) + np.arange(n) * (1 << n)
    counts = np.bincount(codes.ravel(), minlength=n << n)
    counts = counts[counts > 0]
    assert len(counts) == n * subsets
    assert np.all(np.abs(counts - 400) < 100), (counts.min(), counts.max())


def test_floyd_picks_stay_in_range_at_the_edges():
    # pick i of a row is floor(u * m) with m = n-k+i: the largest uniform
    # below 1 must give m-1 and 0.0 must give 0.  The picks of one row see
    # only k uniforms, so n runs to 2**31 with no n-sized array.  The cases
    # cover every m up to 2**16 and every m within 2**12 of each power of two
    # up to 2**31, where the spacing of doubles below m changes
    top = np.nextafter(1.0, 0.0)
    cases = [(2**16 + 1, 2**16), (2, 1), (3, 1), (3, 2)]
    cases += [(2**e + 2**12, 2**13) for e in range(17, 32)]
    rng = np.random.default_rng(2)
    cases += [(int(n), int(k)) for n, k in zip(rng.integers(2**13, 2**31, 50),
                                                  rng.integers(1, 2**13, 50))]
    for n, k in cases:
        m = np.arange(n - k, n)
        picks = _floyd_picks(np.array([[top] * k, [0.0] * k]), n)
        np.testing.assert_array_equal(picks, [m - 1, np.zeros(k)], err_msg=f"n={n}, k={k}")


def _floyd_reference(picks: list[int], n: int) -> list[int]:
    """Floyd's sample of one row of picks, a pick at a time: pick i goes in
    unless it already is, and then n - size + i does."""
    chosen: list[int] = []
    for pick, top in zip(picks, range(n - len(picks), n)):
        chosen.append(top if pick in chosen else pick)
    return sorted(chosen)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.data())
def test_floyd_set_matches_a_pick_at_a_time(n, data):
    # pick i is in 0 .. n - size + i.  Rows that crowd their picks into the
    # top values n - size .. n - size + i make long chains of picks that are
    # already in because an earlier top value went in
    size = data.draw(st.integers(1, n), label="size")
    rows = data.draw(st.integers(1, 4), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
    picks = (rng.random((rows, size)) * np.arange(n - size + 1, n + 1)).astype(np.int64)
    top = n - size + rng.integers(0, np.arange(1, size + 1), (rows, size))
    crowded = rng.random((rows, size)) < data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    picks = np.where(crowded, top, picks)
    expected = [_floyd_reference(row, n) for row in picks.tolist()]
    assert _floyd_set(picks, n).tolist() == expected


def test_generate_memory_is_linear_in_edges():
    # O(n * k) picks; an n x (n-1) score matrix alone would take 191 MiB
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        net = generate_network(5000, 3, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.edge_count == 15_000
    assert peak < 8 * 2**20


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
    assert a != c and a != format_network(a)
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


def test_validate_reports_raw_trust_range():
    net = TrustNetwork([0.5, 0.5], [0, 1], [1, 0], [0.5, 1.5])
    assert validate_network(net) == ["edge (1, 0): raw trust 1.5 outside [0.0, 1.0]"]


def test_out_of_range_endpoints_rejected():
    # the per-node totals and the solvers index by endpoint and keep one flow
    # entry per (source, target) pair, so neither fault survives construction
    with pytest.raises(ValueError, match="out-of-range endpoints"):
        TrustNetwork([0.8, 0.8, 0.5, 0.9], [0, 1, 1], [1, 2, 4], [1.0, 0.25, 0.75])
    with pytest.raises(ValueError, match="out-of-range endpoints"):
        TrustNetwork([0.8, 0.8], [-1], [0], [1.0])
    with pytest.raises(ValueError, match="duplicate edges"):
        TrustNetwork([0.1, 0.5, 0.9], [0, 0, 1], [1, 1, 2], [0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="edge arrays must have identical lengths"):
        TrustNetwork([0.1, 0.5, 0.9], [0, 1], [1, 2, 0], [0.5, 0.5])


_NOT_INT64 = [1.7, -0.5, float("nan"), float("inf"), 2.0**63, 10**30, -10**30]
_ID = st.one_of(st.integers(-2, 5), st.sampled_from([0.0, 1.0, 3.0] + _NOT_INT64))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 4), st.lists(st.tuples(_ID, _ID), max_size=6))
@example(2, [(0, 1.7)])
@example(2, [(0, 10**30)])
@example(2, [(0, 1), (1, 2**63)])
def test_constructor_refuses_exactly_the_malformed_edges(n, pairs):
    def build():
        return TrustNetwork([0.5] * n, [s for s, _ in pairs], [t for _, t in pairs],
                            [0.5] * len(pairs))
    # an id is an integer within int64, never truncated or overflowed into one
    if any(not (math.isfinite(node) and node == int(node) and -2**63 <= node < 2**63)
           for pair in pairs for node in pair):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            build()
    elif any(not 0 <= node < n for pair in pairs for node in pair):
        with pytest.raises(ValueError, match="out-of-range endpoints"):
            build()
    elif len(set(pairs)) < len(pairs):
        with pytest.raises(ValueError, match="duplicate edges"):
            build()
    else:
        net = build()
        assert list(zip(net.edge_source.tolist(), net.edge_target.tolist())) == sorted(pairs)


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


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**16))
def test_sorted_and_shuffled_edges_build_equal_networks(n, seed):
    # edges already in order skip the sort; either way the network keeps its
    # own read-only copies and leaves the caller's arrays writable
    rng = np.random.default_rng(seed)
    net = generate_network(n, int(rng.integers(1, n)), rng)
    fields = ("opinions", "edge_source", "edge_target", "raw_trust")
    for perm in (np.arange(net.edge_count), rng.permutation(net.edge_count)):
        arrays = [net.opinions.copy()] + [getattr(net, f)[perm] for f in fields[1:]]
        built = TrustNetwork(*arrays)
        for field, caller in zip(fields, arrays):
            mine = getattr(built, field)
            assert mine.tobytes() == getattr(net, field).tobytes()
            assert not mine.flags.writeable and caller.flags.writeable
            assert not np.shares_memory(mine, caller)


def test_active_set_invariants():
    with pytest.raises(ValueError):
        ActiveSet([])
    with pytest.raises(ValueError):
        ActiveSet([-1, 2])
    for members in ([1.7], [0, 2.5], [10**30], [2**63], [float("nan")], [2.0**70]):
        with pytest.raises(ValueError, match="active node ids must be integers"):
            ActiveSet(members)
    assert ActiveSet([3.0, 1]).ids.tolist() == [1, 3]
    active = ActiveSet([3, 1, 3])
    assert len(active) == 2
    assert active.ids.tolist() == [1, 3] and active.ids.dtype == np.int64
    assert not active.ids.flags.writeable
    assert list(active) == [1, 3] and 3 in active and 2 not in active
    assert 3.0 in active and np.int64(1) in active
    assert active == ActiveSet([1, 3]) and hash(active) == hash(frozenset({1, 3}))
    assert active != [1, 3] and repr(active) == "ActiveSet([1, 3])"
    active.validate_for(4)
    with pytest.raises(ValueError):
        active.validate_for(3)
    with pytest.raises(AttributeError):
        active.members = frozenset()


def test_validate_pins_every_message_in_order():
    nan = float("nan")
    broken = TrustNetwork(
        [0.5, nan, 1.5, 0.2],
        [3, 0, 1, 2, 1, 3],
        [3, 1, 2, 3, 1, 0],
        [2.0, 0.5, 1.25, nan, 0.4, -0.5],
    )
    assert validate_network(broken) == [
        "node 1: opinion nan outside [0.0, 1.0]",
        "node 2: opinion 1.5 outside [0.0, 1.0]",
        "edge (1, 1): self-loop on node 1",
        "edge (1, 2): raw trust 1.25 outside [0.0, 1.0]",
        "edge (2, 3): raw trust nan outside [0.0, 1.0]",
        "edge (3, 0): raw trust -0.5 outside [0.0, 1.0]",
        "edge (3, 3): self-loop on node 3",
        "edge (3, 3): raw trust 2.0 outside [0.0, 1.0]",
    ]
