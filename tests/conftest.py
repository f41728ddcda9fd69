from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from proxyvote import ActiveSet, TrustNetwork, compute_weights_exact, generate_network

# the same examples on every run, so a property test passes or fails for good
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def four_node_network() -> TrustNetwork:
    """The worked four-node example: A(0.8)->B(0.8) fully, B splits 1:3
    between C(0.5) and D(0.9); C and D are the representatives."""
    return TrustNetwork([0.8, 0.8, 0.5, 0.9], [0, 1, 1], [1, 2, 3], [1.0, 0.25, 0.75])


@pytest.fixture
def four_node() -> TrustNetwork:
    return four_node_network()


@pytest.fixture
def four_node_active() -> ActiveSet:
    return ActiveSet([2, 3])


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def random_instance(rng: np.random.Generator, max_n: int = 100, max_k: int = 5):
    """One random (network, active set) pair for property loops."""
    n = int(rng.integers(4, max_n + 1))
    k = int(rng.integers(1, min(max_k, n - 1) + 1))
    net = generate_network(n, k, rng)
    size = int(rng.integers(1, n + 1))
    active = ActiveSet(rng.choice(n, size=size, replace=False))
    return net, active


def exact_core_count(net: TrustNetwork, active: ActiveSet) -> int:
    """The node count of the one dense core block that the exact solve factors."""
    shapes, solve = [], np.linalg.solve

    def spy(m, rhs):
        shapes.append(m.shape)
        return solve(m, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", spy)
        compute_weights_exact(net, active)
    (shape,) = shapes
    return shape[1]


def elimination_rounds(net: TrustNetwork, active: ActiveSet) -> int:
    """The elimination rounds of the exact solve: each round starts with the one
    stable argsort that merges repeated edges, and a last merge finds none to go."""
    calls, argsort = [], np.argsort

    def spy(*args, **kwargs):
        calls.append(None)
        return argsort(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", spy)
        compute_weights_exact(net, active)
    return max(len(calls) - 1, 0)
