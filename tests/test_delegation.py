import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxyvote import (
    ActiveSet,
    DelegationError,
    NoConvergenceError,
    PropagationConfig,
    SingularSystemError,
    StrandedPolicy,
    StrandedTrustError,
    TrustNetwork,
    compute_weights_exact,
    compute_weights_iterative,
    generate_network,
    reachability_partition,
)
from proxyvote import delegation
from conftest import elimination_rounds, exact_core_count, random_instance

UNIFORM = PropagationConfig(stranded_policy=StrandedPolicy.UNIFORM_TO_ACTIVE)


def _net(opinions, edges):
    src = [s for s, _, _ in edges]
    tgt = [t for _, t, _ in edges]
    raw = [r for _, _, r in edges]
    return TrustNetwork(opinions, src, tgt, raw)


def test_four_node_weights_both_solvers(four_node, four_node_active):
    iterative = compute_weights_iterative(four_node, four_node_active)
    exact = compute_weights_exact(four_node, four_node_active)
    for vector in (iterative, exact):
        assert vector.weights[2] == pytest.approx(1.5, abs=1e-12)
        assert vector.weights[3] == pytest.approx(2.5, abs=1e-12)
        assert vector.stranded_mass == 0.0
    assert iterative.iterations_used == 2
    assert exact.iterations_used is None


def test_all_active_identity():
    net = generate_network(12, 3, np.random.default_rng(4))
    active = ActiveSet(range(12))
    vector = compute_weights_iterative(net, active)
    assert all(w == 1.0 for w in vector.weights.values())
    assert vector.iterations_used == 0
    exact = compute_weights_exact(net, active)
    assert all(w == 1.0 for w in exact.weights.values())


def test_chain_single_absorber_collects_everything():
    net = _net([0.1, 0.2, 0.3], [(0, 1, 0.9), (1, 2, 0.9)])
    vector = compute_weights_iterative(net, ActiveSet([2]))
    assert vector.weights[2] == pytest.approx(3.0, abs=1e-9)


def test_star_center_absorbs_in_one_step():
    k = 7
    opinions = [0.5] * (k + 1)
    edges = [(i, 0, 0.8) for i in range(1, k + 1)]
    net = _net(opinions, edges)
    vector = compute_weights_exact(net, ActiveSet([0]))
    assert vector.weights[0] == pytest.approx(k + 1, abs=1e-12)


def test_reachability_four_node(four_node, four_node_active):
    part = reachability_partition(four_node, four_node_active)
    assert part.transient.tolist() == [0, 1]
    assert part.stranded.tolist() == []


def test_reachability_isolated_node_is_stranded():
    net = _net([0.5, 0.25, 0.75], [(0, 1, 0.75), (1, 0, 0.75)])
    part = reachability_partition(net, ActiveSet([1]))
    assert part.transient.tolist() == [0]
    assert part.stranded.tolist() == [2]


def test_reachability_all_active_is_empty():
    net = generate_network(6, 2, np.random.default_rng(0))
    part = reachability_partition(net, ActiveSet(range(6)))
    assert part.transient.tolist() == [] and part.stranded.tolist() == []


def test_reachability_ignores_zero_trust_edges():
    # the only route from 0 runs over a zero-weight edge, so 0 is stranded
    net = _net([0.5, 0.5, 0.5], [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.9)])
    part = reachability_partition(net, ActiveSet([2]))
    assert part.stranded.tolist() == [0]
    assert part.transient.tolist() == [1]


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    raws = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                         min_size=len(pairs), max_size=len(pairs)))
    active = draw(st.sets(st.integers(0, n - 1), min_size=1))
    edges = [(s, t, r) for (s, t), r in zip(sorted(pairs), raws)]
    return _net([0.5] * n, edges), ActiveSet(active)


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_normalized_rows_are_unit_distributions(graph):
    net, _ = graph
    share = net.normalized_trust
    assert np.all((share >= 0.0) & (share <= 1.0))
    dangling = np.zeros(net.n, dtype=bool)
    dangling[net.dangling_nodes()] = True
    # a node without out-edges has total 0, so every non-dangling node has some
    sums = np.bincount(net.edge_source, weights=share, minlength=net.n)
    assert np.all(np.abs(sums[~dangling] - 1.0) <= 1e-12)
    assert np.all(share[dangling[net.edge_source]] == 0.0)


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_reachability_matches_brute_force_closure(graph):
    net, active = graph
    n = net.n
    step = np.eye(n, dtype=bool)
    positive = net.normalized_trust > 0.0
    step[net.edge_source[positive], net.edge_target[positive]] = True
    closure = step
    while True:
        wider = (closure.astype(int) @ step.astype(int)) > 0
        if np.array_equal(wider, closure):
            break
        closure = wider
    members = active.ids.tolist()
    reaches = closure[:, members].any(axis=1)
    others = [i for i in range(n) if i not in active]
    part = reachability_partition(net, active)
    assert part.transient.tolist() == [i for i in others if reaches[i]]
    assert part.stranded.tolist() == [i for i in others if not reaches[i]]
    assert part.transient.dtype == part.stranded.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_solvers_conserve_and_agree_or_raise(graph):
    net, active = graph
    vectors = []
    try:
        vectors.append(compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE))
    except SingularSystemError:
        pass
    try:
        vectors.append(compute_weights_iterative(net, active, UNIFORM))
    except NoConvergenceError:
        pass
    nothing_stranded = not reachability_partition(net, active).stranded.size
    for vector in vectors:
        assert abs(vector.total() - net.n) <= 1e-6
        assert min(vector.weights.values()) >= 1.0 - 1e-9
        if nothing_stranded:  # not a leak of fp residue, also when the sweeps close by the tail
            assert vector.stranded_mass == 0.0
    if len(vectors) == 2:
        exact, iterative = (vector.weights for vector in vectors)
        for node, w in exact.items():
            assert abs(iterative[node] - w) <= 1e-6


@pytest.mark.parametrize("eps, conserved", [(1e-3, True), (1e-8, True), (1e-12, False), (1e-16, False)])
def test_exact_near_closed_cycle_conserves_or_raises(eps, conserved):
    # 0 <-> 1 pass half their trust back and forth; 1 leaks eps to the
    # representative 2, so all three units end there, however slowly
    net = _net([0.5] * 3, [(0, 1, 0.5), (1, 0, 0.5), (1, 2, eps)])
    if conserved:
        assert compute_weights_exact(net, ActiveSet([2])).weights[2] == pytest.approx(3.0, abs=1e-6)
    else:
        with pytest.raises(SingularSystemError):
            compute_weights_exact(net, ActiveSet([2]))


def test_iterative_closes_the_tail_of_a_near_closed_cycle():
    # the cycle of test_exact_near_closed_cycle_conserves_or_raises at eps =
    # 1e-8 would take about 10^9 sweeps to reach the tolerance; after a few
    # sweeps the walk is in its slowest mode and the residual is handed out
    net = _net([0.5] * 3, [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 1e-8)])
    vector = compute_weights_iterative(net, ActiveSet([2]))
    assert vector.weights[2] == pytest.approx(3.0, abs=1e-6)
    assert vector.iterations_used <= 10
    # leaking to one representative from each node, it absorbs with period 2
    net = _net([0.5] * 4, [(0, 1, 0.5), (0, 2, 1e-8), (1, 0, 0.5), (1, 3, 1e-8)])
    vector = compute_weights_iterative(net, ActiveSet([2, 3]))
    assert list(vector.weights.values()) == pytest.approx([2.0, 2.0], abs=1e-6)
    assert vector.iterations_used <= 10


def _agree_or_no_convergence(net, active):
    try:
        iterative = compute_weights_iterative(net, active)
    except NoConvergenceError:
        return
    exact = compute_weights_exact(net, active)
    for node, w in exact.weights.items():
        assert abs(iterative.weights[node] - w) <= 1e-6


# leak ratios in [0.9, 1.1], many within 1e-12 .. 1e-1 of 1
_NEAR_ONE = st.one_of(st.floats(0.9, 1.1),
                      st.tuples(st.sampled_from([-1, 1]), st.floats(-12.0, -1.0))
                      .map(lambda sign_exp: 1.0 + sign_exp[0] * 10 ** sign_exp[1]))


@settings(max_examples=20, deadline=None)
@given(st.floats(1e-3, 1e-1), _NEAR_ONE, st.floats(0.0, 1e-2))
@example(1e-3, 1.01, 0.0)
@example(1e-2, 1.0 + 1e-9, 1e-9)
def test_iterative_two_near_closed_cycles_agree_with_exact(leak, ratio, coupling):
    # 0 <-> 1 drain to 4 and 2 <-> 3 to 5 at nearly equal rates, and 0 <-> 2
    # couple them: two slow modes absorb in different splits, and closing the
    # tail while both are alive would misplace trust
    net = _net([0.5] * 6, [(0, 1, 1.0), (0, 2, coupling), (1, 0, 1.0 - leak), (1, 4, leak),
                           (2, 0, coupling), (2, 3, 1.0), (3, 2, 1.0 - leak * ratio),
                           (3, 5, leak * ratio)])
    _agree_or_no_convergence(net, ActiveSet([4, 5]))


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e-1), st.floats(0.0, 1.0), st.integers(1, 20), st.integers(1, 20))
def test_iterative_unequal_chains_agree_with_exact(leak, part, first, second):
    # the near-closed cycle 0 <-> 1 leaks into two chains of unequal length
    # that end at different representatives, so each absorbs with its own delay
    heads, tails = [2, 2 + first], [1 + first, 1 + first + second]
    n = 4 + first + second
    edges = [(0, 1, 1.0), (1, 0, 1.0 - leak), (1, heads[0], leak * part),
             (1, heads[1], leak * (1.0 - part))]
    for head, tail, rep in zip(heads, tails, (n - 2, n - 1)):
        edges += [(v, v + 1, 1.0) for v in range(head, tail)] + [(tail, rep, 1.0)]
    _agree_or_no_convergence(_net([0.5] * n, edges), ActiveSet([n - 2, n - 1]))


def test_exact_subnormal_cycle_raises_instead_of_nan(monkeypatch):
    # 0 <-> 1 leak a subnormal share to the representative 2, and 3 feeds
    # 0 a subnormal share; the adjoint solve meets an exactly zero pivot
    net = _net([0.5] * 4, [(0, 1, 1.0), (0, 2, 1e-310), (1, 0, 1.0), (3, 0, 1e-309), (3, 2, 1.0)])
    with pytest.raises(SingularSystemError, match="absorption system reported singular"):
        compute_weights_exact(net, ActiveSet([2]))
    # with a gate of 0 the cycle is eliminated first: 3 and 1 go in the
    # first round, 1 lowers 0's pivot to exactly zero, and 0 meets it next
    monkeypatch.setattr(delegation, "_GATE_BYTES", 0)
    with pytest.raises(SingularSystemError, match="absorption system reported singular: pivot"):
        compute_weights_exact(net, ActiveSet([2]))


def test_elimination_of_a_tree_leaves_no_dense_solve(monkeypatch):
    # every transient node has fill p s <= 1; the first round takes 0 (the
    # hash of local id 0 is the lowest) and 5, the next 1 and 2, and nothing
    # is left to factor
    def boom(*args, **kwargs):
        raise AssertionError("the core is empty")

    monkeypatch.setattr(delegation, "_GATE_BYTES", 0)
    monkeypatch.setattr(delegation.np.linalg, "solve", boom)
    net = _net([0.5] * 6, [(0, 1, 1.0), (0, 2, 3.0), (1, 3, 1.0), (2, 4, 1.0), (2, 5, 1.0),
                           (5, 3, 1.0)])
    # 0 sends 1/4 to 1 and 3/4 to 2; 1 passes its 1.25 to 3; 2 splits its 1.75
    # between 4 and 5; 5 passes its 1.875 to 3
    assert compute_weights_exact(net, ActiveSet([3, 4])).weights == {3: 4.125, 4: 1.875}


def test_elimination_with_fill_leaves_no_dense_solve(monkeypatch):
    # 1, 2 and 3 each have two transient predecessors and two transient
    # successors (fill 4), and 2 has the lowest hash of the three, so the
    # first round takes 2 and the isolated 0.  2's in-edges 1 -> 2 and 3 -> 2
    # join its out-edges 2 -> 1 and 2 -> 3: the fill 1 -> 3 (1/2 * 1/4) and
    # 3 -> 1 (1/2 * 1/2) merge into the edges there, to 3/8 and 3/4, and the
    # fill self-loops lower the pivots to d[1] = 3/4 and d[3] = 7/8, while
    # rhs[1] = 3/2 and rhs[3] = 5/4.  Then 1 goes (fill 1, lower hash than 3):
    # q(1, 3) / d[1] = 1/2, so rhs[3] = 2 and d[3] = 7/8 - 3/4 * 1/2 = 1/2,
    # and 3 goes last.  Back-substitution: y3 = 4, y1 = (3/2 + 3/4 y3) / (3/4) = 6,
    # y2 = 1 + y1 / 2 + y3 / 2 = 6, y0 = 1; every step is exact in binary
    def boom(*args, **kwargs):
        raise AssertionError("the core is empty")

    monkeypatch.setattr(delegation, "_GATE_BYTES", 0)
    monkeypatch.setattr(delegation.np.linalg, "solve", boom)
    net = _net([0.5] * 6, [(0, 4, 1.0), (1, 2, 2.0), (1, 3, 1.0), (1, 5, 1.0), (2, 1, 2.0),
                           (2, 3, 1.0), (2, 5, 1.0), (3, 1, 1.0), (3, 2, 1.0)])
    # 4 takes y0; 5 takes a quarter of y1 and of y2
    assert compute_weights_exact(net, ActiveSet([4, 5])).weights == {4: 2.0, 5: 4.0}


def test_elimination_keeps_a_self_loop_in_the_core(monkeypatch):
    # 1 keeps half its trust on a self-loop, so it is its own neighbour of equal
    # key and never goes: the first round takes 0 (rhs[1] = 2), the second
    # picks nothing and ends the rounds, and the core 1 x 1 block gives y1 = 4
    monkeypatch.setattr(delegation, "_GATE_BYTES", 0)
    net = TrustNetwork([0.5] * 3, [0, 1, 1], [1, 1, 2], [1.0, 0.5, 0.5])
    assert exact_core_count(net, ActiveSet([2])) == 1
    assert compute_weights_exact(net, ActiveSet([2])).weights == {2: 3.0}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**16), st.sampled_from(list(StrandedPolicy)))
def test_elimination_agrees_with_the_dense_solve(n, seed, policy):
    # with a gate of 0 every trial eliminates before its dense solve; zero-trust
    # edges strand nodes and cut in-degrees, so chains, trees and cycles vary
    rng = np.random.default_rng(seed)
    net = generate_network(n, int(rng.integers(1, n)), rng)
    net = TrustNetwork(net.opinions, net.edge_source, net.edge_target,
                       net.raw_trust * (rng.random(net.edge_count) < 0.7))
    active = ActiveSet(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))

    def solve():
        try:
            return compute_weights_exact(net, active, policy)
        except DelegationError as exc:
            return type(exc)

    dense = solve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delegation, "_GATE_BYTES", 0)
        eliminated = solve()
    if isinstance(dense, type):
        assert eliminated is dense
        return
    # the two sum the leftover in different orders, so a real leak may differ in its last bits
    np.testing.assert_allclose(eliminated.stranded_mass, dense.stranded_mass, rtol=1e-12)
    np.testing.assert_allclose(list(eliminated.weights.values()), list(dense.weights.values()),
                               rtol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_elimination_at_the_benchmark_shape_agrees(seed, monkeypatch):
    # n=2000, k=3, 100 active: T = 1,900, of which about 540 are left for the
    # dense core; fill edges and merged repeats are many here
    rng = np.random.default_rng(seed)
    net = generate_network(2000, 3, rng)
    active = ActiveSet(rng.choice(2000, size=100, replace=False))
    eliminated = compute_weights_exact(net, active)
    iterative = compute_weights_iterative(net, active)
    monkeypatch.setattr(delegation, "_GATE_BYTES", 2**30)  # no round runs
    dense = compute_weights_exact(net, active)
    weights = np.array(list(eliminated.weights.values()))
    np.testing.assert_allclose(weights, list(dense.weights.values()), rtol=1e-12)
    np.testing.assert_allclose(weights, list(iterative.weights.values()), rtol=0, atol=1e-9)


def test_elimination_rounds_at_the_benchmark_shape():
    # a round runs Luby's pick to completion, so it takes a maximal independent
    # set of the candidates: over seeds 1-100 at n=2000, k=3, 100 active the
    # solve took 5-7 rounds, where one Luby step per round took 10-13
    for seed in range(1, 21):
        rng = np.random.default_rng(seed)
        net = generate_network(2000, 3, rng)
        active = ActiveSet(rng.choice(2000, size=100, replace=False))
        assert elimination_rounds(net, active) <= 7


def test_exact_solve_memory_is_that_of_the_core():
    # at n=2000 about 540 of the 1,900 transient nodes are left after
    # elimination (2.2 MiB of core block, 4.3 MiB traced peak); the full
    # T x T block alone would take 27.5 MiB
    rng = np.random.default_rng(1)
    net = generate_network(2000, 3, rng)
    active = ActiveSet(rng.choice(2000, size=100, replace=False))
    tracemalloc.start()
    try:
        compute_weights_exact(net, active)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_exact_refuses_dense_blocks_over_the_limit(monkeypatch):
    # n=2000, k=3, 100 active: T = 1,900, and about 540 nodes are left for the
    # dense core.  The guard is on the core, after elimination: a limit that
    # admits the core block but not the T x T one solves, and a limit one byte
    # below the core block refuses before the block is allocated, while the
    # edge sweeps still solve the network
    rng = np.random.default_rng(1)
    net = generate_network(2000, 3, rng)
    active = ActiveSet(rng.choice(2000, size=100, replace=False))
    core = exact_core_count(net, active)
    monkeypatch.setattr(delegation, "EXACT_BLOCK_BYTES", core * core * 8)
    assert 1900 ** 2 * 8 > delegation.EXACT_BLOCK_BYTES
    assert compute_weights_exact(net, active).total() == pytest.approx(2000, abs=1e-6)
    monkeypatch.setattr(delegation, "EXACT_BLOCK_BYTES", core * core * 8 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"of {core} transient nodes.*use the iterative solver"):
            compute_weights_exact(net, active)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < core * core * 8 < 8 * 2**20
    vector = compute_weights_iterative(net, active)
    assert vector.total() == pytest.approx(2000, abs=1e-6)


def test_elimination_gate_is_a_1_mib_block():
    # the gate is one trial's T x T block over 1 MiB (T > 362), whatever the
    # kernel's pass budget.  A 13-node clique (fill 12 x 13, and 12 x 12 once the
    # chain is gone: just over 128) feeds a chain into its last node: at T = 363
    # the chain is eliminated and the clique alone is factored, at T = 362 the
    # whole block is
    assert 12 * 12 > delegation._FILL >= 11 * 11
    for t, core in ((363, 13), (362, 362)):
        edges = [(i, j, 0.5) for i in range(13) for j in range(14) if i != j]
        net = _net([0.5] * (t + 1), edges + [(i, i + 1, 0.5) for i in range(13, t)])
        active = ActiveSet([t])
        assert exact_core_count(net, active) == core
        assert compute_weights_exact(net, active).weights[t] == pytest.approx(t + 1, abs=1e-6)


def test_exact_solves_a_long_chain_in_few_rounds():
    # a chain of n nodes into its last leaves no core; hashed priorities take a
    # constant share of the chain each round, so the rounds are O(log T), not one
    # per node.  At n = 12,000 one T x T block would pass EXACT_BLOCK_BYTES, but
    # the guard is on the empty core
    for n in (11_000, 12_000):
        net = _net([0.5] * n, [(i, i + 1, 0.5) for i in range(n - 1)])
        start = time.perf_counter()
        vector = compute_weights_exact(net, ActiveSet([n - 1]))
        assert time.perf_counter() - start < 1.0
        assert vector.weights[n - 1] == pytest.approx(n, abs=1e-6)


def test_reachability_long_chain():
    # 0 -> 1 -> ... -> 1999; the nodes past the active one drain into the
    # dangling tail, so they are stranded
    n = 2000
    net = _net([0.5] * n, [(i, i + 1, 0.5) for i in range(n - 1)])
    part = reachability_partition(net, ActiveSet([n - 1]))
    assert part.transient.tolist() == list(range(n - 1))
    assert part.stranded.tolist() == []
    part = reachability_partition(net, ActiveSet([999]))
    assert part.transient.tolist() == list(range(999))
    assert part.stranded.tolist() == list(range(1000, n))


def test_stranded_pair_reject_and_uniform():
    net = _net([0.6, 0.4, 0.2, 1.0], [(0, 1, 1.0), (1, 0, 1.0)])
    active = ActiveSet([2, 3])
    with pytest.raises(StrandedTrustError) as excinfo:
        compute_weights_iterative(net, active)
    assert excinfo.value.stranded == [0, 1]
    restored = pickle.loads(pickle.dumps(excinfo.value))
    assert type(restored) is StrandedTrustError
    assert restored.stranded == [0, 1]
    assert str(restored) == str(excinfo.value)
    # attributes set after raising (a simulate trial's coordinates) survive too
    excinfo.value.trial = (2, 5, 7)
    assert pickle.loads(pickle.dumps(excinfo.value)).trial == (2, 5, 7)
    with pytest.raises(StrandedTrustError):
        compute_weights_exact(net, active)
    # hand trace: both stranded units split evenly over the two actives
    for vector in (
        compute_weights_iterative(net, active, UNIFORM),
        compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE),
    ):
        assert vector.weights[2] == pytest.approx(2.0, abs=1e-12)
        assert vector.weights[3] == pytest.approx(2.0, abs=1e-12)
        assert vector.stranded_mass == pytest.approx(2.0, abs=1e-12)


def test_transient_mass_leaking_into_stranded_region_is_redistributed():
    # node 0 reaches the active node but half its trust drains into the
    # stranded 1<->2 cycle; conservation must still hold
    net = _net(
        [0.5, 0.5, 0.5, 0.5],
        [(0, 3, 0.5), (0, 1, 0.5), (1, 2, 1.0), (2, 1, 1.0)],
    )
    active = ActiveSet([3])
    for vector in (
        compute_weights_iterative(net, active, UNIFORM),
        compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE),
    ):
        assert vector.weights[3] == pytest.approx(4.0, abs=1e-12)
        assert vector.stranded_mass == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(StrandedTrustError):
        compute_weights_iterative(net, active)


def test_exact_stranded_mass_is_the_stranded_count_when_nothing_leaks():
    # 3 has no edges, so it is stranded but no trust can flow into it; the
    # near-closed cycle's rounding stays in the weight, within the tolerance,
    # instead of passing for leaked trust
    net = _net([0.5] * 4, [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 1e-8)])
    vector = compute_weights_exact(net, ActiveSet([2]), StrandedPolicy.UNIFORM_TO_ACTIVE)
    assert vector.stranded_mass == 1.0
    assert vector.weights[2] == pytest.approx(4.0, abs=1e-6)


def test_conservation_and_lower_bound_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        net, active = random_instance(rng, max_n=60)
        iterative = compute_weights_iterative(net, active, UNIFORM)
        exact = compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
        assert abs(iterative.total() - net.n) <= 1e-6
        assert abs(exact.total() - net.n) <= 1e-9
        assert min(iterative.weights.values()) >= 1.0 - 1e-9
        assert min(exact.weights.values()) >= 1.0 - 1e-9


def test_iterative_matches_exact_on_seeded_instance():
    rng = np.random.default_rng(1234)
    net = generate_network(50, 3, rng)
    active = ActiveSet(rng.choice(50, size=5, replace=False))
    iterative = compute_weights_iterative(net, active, UNIFORM)
    exact = compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
    for node in active:
        assert iterative.weights[node] == pytest.approx(exact.weights[node], abs=1e-6)


def test_weights_match_monte_carlo_random_walks():
    # third route, independent of the shared flow-matrix assembly: walk
    # each non-active unit along edges sampled straight from the edge
    # lists until an active node absorbs it
    rng = np.random.default_rng(2718)
    net = generate_network(12, 3, rng)
    active = ActiveSet([1, 6, 9])
    exact = compute_weights_exact(net, active)

    k = 3
    cdf = np.zeros((12, k))
    targets = np.zeros((12, k), dtype=np.int64)
    for node in range(12):
        out = net.edge_source == node
        cdf[node] = np.cumsum(net.normalized_trust[out])
        targets[node] = net.edge_target[out]

    walkers_per_node = 40_000
    transient = [i for i in range(12) if i not in active]
    position = np.repeat(transient, walkers_per_node)
    is_active = np.zeros(12, dtype=bool)
    is_active[list(active)] = True
    moving = ~is_active[position]
    while moving.any():
        at = position[moving]
        u = rng.random(len(at))
        pick = (u[:, None] > cdf[at]).sum(axis=1).clip(max=k - 1)
        position[moving] = targets[at, pick]
        moving = ~is_active[position]

    for node in active:
        estimate = 1.0 + np.count_nonzero(position == node) / walkers_per_node
        # ~4 sigma band for the summed binomial estimates
        sigma = len(transient) * 0.5 / np.sqrt(walkers_per_node * len(transient))
        assert abs(estimate - exact.weights[node]) < 4 * sigma


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        net, active = random_instance(rng, max_n=30)
        perm = rng.permutation(net.n)
        relabeled = TrustNetwork(
            net.opinions[np.argsort(perm)],
            perm[net.edge_source],
            perm[net.edge_target],
            net.raw_trust,
        )
        mapped_active = ActiveSet(int(perm[a]) for a in active)
        base = compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
        moved = compute_weights_exact(relabeled, mapped_active, StrandedPolicy.UNIFORM_TO_ACTIVE)
        for node in active:
            assert moved.weights[int(perm[node])] == pytest.approx(
                base.weights[node], abs=1e-9
            )


def _exact_or_error(net, active):
    try:
        return compute_weights_exact(net, active, StrandedPolicy.UNIFORM_TO_ACTIVE)
    except SingularSystemError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_permutation_equivariance_property(data):
    net, active = data.draw(_small_graphs())
    perm = np.array(data.draw(st.permutations(range(net.n))), dtype=np.int64)
    relabeled = TrustNetwork(
        net.opinions[np.argsort(perm)], perm[net.edge_source], perm[net.edge_target], net.raw_trust
    )
    mapped_active = ActiveSet(int(perm[a]) for a in active)
    assert relabeled.dangling_nodes() == sorted(perm[net.dangling_nodes()].tolist())
    base = reachability_partition(net, active)
    moved = reachability_partition(relabeled, mapped_active)
    assert moved.transient.tolist() == sorted(perm[base.transient].tolist())
    assert moved.stranded.tolist() == sorted(perm[base.stranded].tolist())
    base, moved = _exact_or_error(net, active), _exact_or_error(relabeled, mapped_active)
    if isinstance(base, type) or isinstance(moved, type):
        assert base is moved
    else:
        for node, w in base.weights.items():
            assert abs(moved.weights[int(perm[node])] - w) <= 1e-9


def test_raw_scale_invariance_of_weights():
    rng = np.random.default_rng(10)
    net = generate_network(20, 3, rng)
    active = ActiveSet(rng.choice(20, size=4, replace=False))
    base = compute_weights_exact(net, active)
    raw = net.raw_trust.copy()
    node = int(rng.integers(0, 20))
    raw[net.edge_source == node] *= 37.5
    scaled = TrustNetwork(net.opinions, net.edge_source, net.edge_target, raw)
    rescored = compute_weights_exact(scaled, active)
    for node_id, w in base.weights.items():
        assert rescored.weights[node_id] == pytest.approx(w, abs=1e-9)


def test_residual_monotone_decreasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        net = generate_network(n, min(3, n - 1), rng)
        active = ActiveSet(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        if reachability_partition(net, active).stranded.size:
            continue
        used = compute_weights_iterative(net, active).iterations_used
        previous, budget = float(n - len(active)), 1
        while budget < used:  # the residual left after `budget` sweeps
            with pytest.raises(NoConvergenceError) as excinfo:
                compute_weights_iterative(net, active, PropagationConfig(max_iterations=budget))
            value = float(re.match(r"residual mobile trust (\S+) ", str(excinfo.value))[1])
            assert value <= previous
            if previous >= 1e-9:
                assert value < previous
            previous, budget = value, 2 * budget


def test_singular_report_is_wrapped(four_node, four_node_active, monkeypatch):
    from proxyvote import SingularSystemError, delegation

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic singular matrix")

    monkeypatch.setattr(delegation.np.linalg, "solve", boom)
    with pytest.raises(SingularSystemError):
        compute_weights_exact(four_node, four_node_active)


def test_no_convergence_when_budget_too_small():
    net = _net([0.1, 0.2, 0.3], [(0, 1, 0.9), (1, 2, 0.9)])
    tight = PropagationConfig(max_iterations=1)
    with pytest.raises(NoConvergenceError):
        compute_weights_iterative(net, ActiveSet([2]), tight)


def test_iterative_final_residual_below_tolerance(four_node, four_node_active):
    # nothing is stranded, so the residue the last sweep drops is n - sum(w)
    config = PropagationConfig(tolerance=1e-12)
    vector = compute_weights_iterative(four_node, four_node_active, config)
    assert abs(four_node.n - vector.total()) < config.tolerance
    short = PropagationConfig(tolerance=1e-12, max_iterations=vector.iterations_used - 1)
    with pytest.raises(NoConvergenceError):
        compute_weights_iterative(four_node, four_node_active, short)


def test_iterative_solve_memory_is_linear_in_edges():
    # the sweeps run on the edge arrays; a dense T x T flow block alone
    # would take about 29 MiB here
    rng = np.random.default_rng(1)
    net = generate_network(2000, 3, rng)
    active = ActiveSet(rng.choice(2000, size=100, replace=False))
    tracemalloc.start()
    try:
        compute_weights_iterative(net, active)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(2, 6), st.integers(0, 2**16),
       st.sampled_from([1e-9, 1e-3, 1.5, 4.5]), st.sampled_from([3, 100_000]), st.booleans(),
       st.sampled_from([0, delegation._GATE_BYTES, None]))
def test_batch_gives_each_trial_its_lone_bits(n, b, seed, tolerance, budget, exact, gate_bytes):
    # trials of one pass that stop after different sweep counts, or sweep
    # not at all, or share a stacked exact solve, with or without eliminating
    # first, leave each other's weights, masses and counts alone; zero-trust
    # edges vary the transient count from trial to trial; a gate of None is
    # 8 T^2 at the batch's least T, so its other trials eliminate and these do not
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, n + 1))
    nets = [generate_network(n, int(rng.integers(1, n)), rng) for _ in range(b)]
    nets = [TrustNetwork(net.opinions, net.edge_source, net.edge_target,
                         net.raw_trust * (rng.random(len(net.raw_trust)) < 0.7)) for net in nets]
    active = np.sort([rng.choice(n, size=size, replace=False) for _ in range(b)], axis=1)
    config = PropagationConfig(tolerance, budget, StrandedPolicy.UNIFORM_TO_ACTIVE)
    if gate_bytes is None:
        gate_bytes = 8 * min(np.count_nonzero(delegation._reach(
            net.edge_source, net.edge_target, net.normalized_trust, ids, n)) - size
            for net, ids in zip(nets, active)) ** 2

    def absorb(trials):
        src = np.concatenate([nets[i].edge_source + j * n for j, i in enumerate(trials)])
        tgt = np.concatenate([nets[i].edge_target + j * n for j, i in enumerate(trials)])
        norm = np.concatenate([nets[i].normalized_trust for i in trials])
        offset = np.arange(len(trials))[:, None] * n
        reached = delegation._reach(src, tgt, norm, (active[trials] + offset).ravel(),
                                    len(trials) * n).reshape(-1, n)
        try:
            return delegation._absorb(n, src, tgt, norm, active[trials], reached,
                                      config.stranded_policy, None if exact else config)
        except DelegationError:
            return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delegation, "_GATE_BYTES", gate_bytes)
        batch, singles = absorb(list(range(b))), [absorb([i]) for i in range(b)]
    if batch is None:
        assert None in singles
        return
    for i, single in enumerate(singles):
        assert [part[i].tobytes() for part in batch] == [part[0].tobytes() for part in single]


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(tolerance=-1e-9)
    with pytest.raises(ValueError):
        PropagationConfig(max_iterations=0)


@pytest.mark.parametrize("budget", [50.5, float("inf"), True, "5"])
def test_propagation_config_refuses_a_budget_that_is_not_an_integer(budget):
    # the sweep loop stops at iterations == max_iterations, so a float budget
    # of 50.5 would sweep forever; it is refused before any solve
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        PropagationConfig(max_iterations=budget)


@pytest.mark.parametrize("tolerance", ["1e-9", True, False, None, 1e-9j])
def test_propagation_config_refuses_a_tolerance_that_is_not_a_number(tolerance):
    # a string would fail the positivity test with a TypeError, and True would
    # be kept and swept as a tolerance of 1.0
    with pytest.raises(ValueError, match="tolerance must be a number"):
        PropagationConfig(tolerance=tolerance)


def test_propagation_config_stores_a_numpy_tolerance_as_float():
    for tolerance in (np.float64(1e-9), np.float32(0.5), np.int64(2), 3):
        config = PropagationConfig(tolerance=tolerance)
        assert type(config.tolerance) is float and config.tolerance == float(tolerance)


def test_fed_three_cycle_raises_when_its_integer_budget_is_spent():
    # 0 -> 1 -> 2 -> 0 leaks 1e-8 to representative 3 and is fed by node 4:
    # its tail never settles in a two-sweep window, so the budget ends it
    fed = _net([0.5] * 5, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1e-8), (4, 0, 1.0)])
    with pytest.raises(NoConvergenceError, match=r"after 50 sweeps \(tolerance 1e-09\)$"):
        compute_weights_iterative(fed, ActiveSet([3]), PropagationConfig(max_iterations=np.int64(50)))


def test_propagation_config_stores_a_numpy_budget_as_int_and_a_policy_value_as_its_member():
    config = PropagationConfig(max_iterations=np.int64(5), stranded_policy="uniform")
    assert type(config.max_iterations) is int and config.max_iterations == 5
    assert config.stranded_policy is StrandedPolicy.UNIFORM_TO_ACTIVE
    with pytest.raises(ValueError, match="bogus"):
        PropagationConfig(stranded_policy="bogus")


def test_policy_given_by_its_value_is_obeyed_by_both_solvers():
    # nodes 0 <-> 1 reach no representative; "reject" must not split their trust
    net = _net([0.5] * 4, [(0, 1, 1.0), (1, 0, 1.0), (3, 2, 1.0)])
    active = ActiveSet([2])
    with pytest.raises(StrandedTrustError):
        compute_weights_exact(net, active, "reject")
    with pytest.raises(StrandedTrustError):
        compute_weights_iterative(net, active, PropagationConfig(stranded_policy="reject"))
    with pytest.raises(ValueError, match="bogus"):
        compute_weights_exact(net, active, "bogus")
    for vector in (compute_weights_exact(net, active, "uniform"),
                   compute_weights_iterative(net, active, PropagationConfig(stranded_policy="uniform"))):
        assert vector.weights == {2: 4.0} and vector.stranded_mass == 2.0


def test_active_out_of_range_rejected(four_node):
    with pytest.raises(ValueError):
        compute_weights_exact(four_node, ActiveSet([2, 99]))
