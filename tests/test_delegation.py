import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyvote import (
    ActiveSet,
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
from conftest import random_instance

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
    for vector in vectors:
        assert abs(vector.total() - net.n) <= 1e-6
        assert min(vector.weights.values()) >= 1.0 - 1e-9
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


def test_exact_subnormal_cycle_raises_instead_of_nan():
    # 0 <-> 1 leak a subnormal share to the representative 2, and 3 feeds
    # 0 a subnormal share; the solve's subnormal pivot yields NaN weights
    net = _net([0.5] * 4, [(0, 1, 1.0), (0, 2, 1e-310), (1, 0, 1.0), (3, 0, 1e-309), (3, 2, 1.0)])
    with pytest.raises(SingularSystemError, match="nan of 3 transient units"):
        compute_weights_exact(net, ActiveSet([2]))


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
        residuals: list[float] = []
        compute_weights_iterative(net, active, callback=residuals.append)
        previous = float(n - len(active))
        for value in residuals:
            assert value <= previous
            if previous >= 1e-9:
                assert value < previous
            previous = value


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
    residuals: list[float] = []
    config = PropagationConfig(tolerance=1e-12)
    compute_weights_iterative(four_node, four_node_active, config, callback=residuals.append)
    assert residuals[-1] < 1e-12


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(tolerance=-1e-9)
    with pytest.raises(ValueError):
        PropagationConfig(max_iterations=0)


def test_out_of_range_endpoints_rejected(four_node_active):
    broken = TrustNetwork([0.8, 0.8, 0.5, 0.9], [0, 1, 1], [1, 2, 4], [1.0, 0.25, 0.75])
    with pytest.raises(ValueError, match="out-of-range endpoints"):
        compute_weights_iterative(broken, four_node_active)
    with pytest.raises(ValueError, match="out-of-range endpoints"):
        compute_weights_exact(broken, four_node_active)
    # the flow blocks hold one entry per (source, target) pair, so a repeated
    # pair is refused rather than half dropped
    doubled = TrustNetwork([0.1, 0.5, 0.9], [0, 0, 1], [1, 1, 2], [0.5, 0.5, 1.0])
    for solve in (compute_weights_iterative, compute_weights_exact):
        with pytest.raises(ValueError, match="duplicate edges"):
            solve(doubled, ActiveSet([2]))


def test_active_out_of_range_rejected(four_node):
    with pytest.raises(ValueError):
        compute_weights_exact(four_node, ActiveSet([2, 99]))
