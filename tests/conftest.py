"""Shared fixtures: small datasets and pre-built indexes (session scoped)."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.broadcast import SystemConfig
from repro.core import DsiIndex, DsiParameters
from repro.hci import HciAirIndex
from repro.rtree import RTreeAirIndex
from repro.spatial import (
    grid_dataset,
    real_surrogate_dataset,
    running_example_dataset,
    uniform_dataset,
)

# Tier-1 draws the same hypothesis cases on every host and every run:
# derandomized examples derive from each test itself, and no example
# database replays an earlier run's failures.  ``--hypothesis-profile=deep``
# instead draws fresh random cases, a hundred per cell of the kernel
# brute-force suites (tests/test_fleet_kernel.py), and prints the blob that
# reproduces a failure.
settings.register_profile("tier1", derandomize=True)
settings.register_profile(
    "deep", derandomize=False, max_examples=100, print_blob=True
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def config64() -> SystemConfig:
    return SystemConfig(packet_capacity=64)


@pytest.fixture(scope="session")
def config128() -> SystemConfig:
    return SystemConfig(packet_capacity=128)


@pytest.fixture(scope="session")
def small_uniform():
    return uniform_dataset(200, seed=3)


@pytest.fixture(scope="session")
def medium_uniform():
    return uniform_dataset(600, seed=7)


@pytest.fixture(scope="session")
def clustered():
    return real_surrogate_dataset(400, seed=11)


@pytest.fixture(scope="session")
def grid8():
    return grid_dataset(8)


@pytest.fixture(scope="session")
def running_example():
    return running_example_dataset()


@pytest.fixture(scope="session")
def dsi_m1(small_uniform, config64):
    return DsiIndex(small_uniform, config64, DsiParameters(n_segments=1))


@pytest.fixture(scope="session")
def dsi_m2(small_uniform, config64):
    return DsiIndex(small_uniform, config64, DsiParameters(n_segments=2))


@pytest.fixture(scope="session")
def rtree_small(small_uniform, config64):
    return RTreeAirIndex(small_uniform, config64)


@pytest.fixture(scope="session")
def hci_small(small_uniform, config64):
    return HciAirIndex(small_uniform, config64)


@pytest.fixture()
def rng():
    return random.Random(12345)
