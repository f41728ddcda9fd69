from pathlib import Path

import numpy as np
import pytest

from proxyvote import ActiveSet, TrustNetwork, generate_network, normalize_outgoing

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def four_node_network() -> TrustNetwork:
    """The worked four-node example: A(0.8)->B(0.8) fully, B splits 1:3
    between C(0.5) and D(0.9); C and D are the representatives."""
    net = TrustNetwork([0.8, 0.8, 0.5, 0.9], [0, 1, 1], [1, 2, 3], [1.0, 0.25, 0.75])
    net, _ = normalize_outgoing(net)
    return net


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
