import os
from pathlib import Path

import numpy as np
import pytest

import densecap
from densecap.networks import random_network


def find_mnist_dir():
    """Dataset directory: $DENSECAP_DATA, ./data/mnist, or /root/mnist-data."""
    candidates = [os.environ.get("DENSECAP_DATA"), "data/mnist", "/root/mnist-data"]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "train-labels-idx1-ubyte")):
            return cand
        if cand and os.path.exists(os.path.join(cand, "train-labels-idx1-ubyte.gz")):
            return cand
    return None


MNIST_DIR = find_mnist_dir()


def package_env():
    """Environment in which a child Python imports the densecap under test."""
    path = [str(Path(densecap.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


needs_mnist = pytest.mark.skipif(
    MNIST_DIR is None, reason="no IDX dataset directory found (set DENSECAP_DATA)"
)


def random_layered_net(rng, L=None, max_d=24, B=None, d0=None, dL=None):
    """Random valid network with small dimensions for equivalence tests."""
    L = L or int(rng.integers(2, 5))
    d0 = d0 or int(rng.integers(1, 4))
    dL = dL or int(rng.integers(1, 4))
    mult = int(np.lcm(d0, dL))
    d = mult * int(rng.integers(1, max(2, max_d // mult + 1)))
    B = B if B is not None else float(rng.uniform(L + 2, 10.0))
    return random_network(L, d0, dL, d, B, rng)
