"""Shared fixtures of the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    discrete_sample_database,
    random_reference_object,
    uniform_rectangle_database,
)
from repro.geometry import Rectangle
from repro.uncertain import (
    BoxUniformObject,
    DiscreteObject,
    TruncatedGaussianObject,
    UncertainDatabase,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running soak/load tests, run in a dedicated CI job "
        "(deselect locally with -m 'not slow')",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def unit_square() -> Rectangle:
    return Rectangle.from_bounds([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def box_object() -> BoxUniformObject:
    """A simple 2-D box-uniform object."""
    return BoxUniformObject(Rectangle.from_bounds([0.2, 0.3], [0.4, 0.7]), label="box")


@pytest.fixture
def gaussian_object() -> TruncatedGaussianObject:
    """A truncated Gaussian object centred in the unit square."""
    return TruncatedGaussianObject([0.5, 0.5], [0.05, 0.08], label="gauss")


@pytest.fixture
def discrete_object(rng) -> DiscreteObject:
    """A discrete object with seven weighted alternatives."""
    points = rng.uniform(0.0, 1.0, size=(7, 2))
    weights = rng.uniform(0.2, 1.0, size=7)
    return DiscreteObject(points, weights / weights.sum(), label="disc")


@pytest.fixture
def small_box_database() -> UncertainDatabase:
    """A small database of box-uniform objects (fast IDCA runs)."""
    return uniform_rectangle_database(num_objects=60, max_extent=0.05, seed=3)


@pytest.fixture
def small_discrete_database() -> UncertainDatabase:
    """A small discrete database for which the exact oracle is available."""
    return discrete_sample_database(
        num_objects=10, samples_per_object=5, max_extent=0.25, seed=11
    )


@pytest.fixture
def reference_object():
    """A random uncertain reference (query) object."""
    return random_reference_object(extent=0.05, seed=21, label="reference")


@pytest.fixture(scope="session")
def span_lanes():
    """Extend a batch until affine dispatch puts work on every lane.

    Lanes are a hash of each request's affinity key, so which lanes a
    given batch reaches varies with the interpreter's hash seed.  Tests
    that need every lane busy (one warm-start file per lane, one pid per
    lane) append kNN queries over database positions ``0, 1, ...`` until
    :func:`~repro.engine.executor.affine_partition` reports every lane.
    """
    from repro.engine import KNNQuery, affine_partition

    def extend(requests, workers, num_objects):
        batch = list(requests)
        for index in range(num_objects):
            if len(affine_partition(batch, workers)[1]) == workers:
                break
            batch.append(KNNQuery(index, k=2, tau=0.5, max_iterations=3))
        assert len(affine_partition(batch, workers)[1]) == workers
        return batch

    return extend
