"""Soundness of RkNN and expected-rank ranking against the exact oracle.

On small discrete databases ``baselines/exact.py`` gives the exact
domination-count distribution, so every reported bound can be checked: for
each ``max_iterations`` in 1..6 the predicate (RkNN) or expected-rank
(ranking) bounds must bracket the exact value, must not widen as the budget
grows, and every decided RkNN predicate must agree with the exact value at
``tau``.  The databases include coincident objects, zero-extent (point)
objects and ``k >= N``; ``tau`` includes 0 and 1.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines import exact_domination_count_pmf
from repro.datasets import discrete_sample_database
from repro.engine import QueryEngine
from repro.uncertain import DiscreteObject, UncertainDatabase

SLACK = 1e-12
ITERATIONS = range(1, 7)


@functools.lru_cache(maxsize=None)
def _scenario(name: str):
    """``(database, query)``; the query is an object or a database index."""
    if name.startswith("random"):
        seed = int(name.split("-")[1])
        rng = np.random.default_rng(seed)
        database = discrete_sample_database(
            num_objects=9, samples_per_object=8, max_extent=0.4, seed=seed
        )
        return database, DiscreteObject(rng.uniform(0, 1, size=(6, 2)), label="query")
    if name == "coincident":
        rng = np.random.default_rng(5)
        cloud = rng.uniform(0.3, 0.7, size=(3, 2))
        database = UncertainDatabase(
            [
                DiscreteObject(cloud),
                DiscreteObject(cloud.copy()),
                DiscreteObject(cloud + 0.05),
                DiscreteObject(cloud + 0.05),
                DiscreteObject(rng.uniform(0, 1, size=(3, 2))),
                DiscreteObject(rng.uniform(0, 1, size=(2, 2))),
            ]
        )
        return database, 0  # the query has a twin in the database
    if name == "zero-extent":
        points = ([0.2, 0.2], [0.4, 0.1], [0.5, 0.5], [0.9, 0.3], [0.45, 0.4])
        database = UncertainDatabase(
            [DiscreteObject([p]) for p in points]
            + [DiscreteObject([[0.3, 0.3], [0.6, 0.6]], [0.5, 0.5])]
        )
        return database, DiscreteObject([[0.45, 0.42], [0.5, 0.3]], [0.5, 0.5])
    raise KeyError(name)


SCENARIOS = ["random-2", "random-11", "random-31", "coincident", "zero-extent"]


def _query_object(database, query):
    return database[query] if isinstance(query, int) else query


def _excluded(query) -> list[int]:
    return [query] if isinstance(query, int) else []


@functools.lru_cache(maxsize=None)
def _exact_rknn(name: str, k: int) -> dict[int, float]:
    """``P(DomCount(Q, B) < k)`` per candidate ``B``, counted over the others."""
    database, query = _scenario(name)
    out = {}
    for index in range(len(database)):
        if index in _excluded(query):
            continue
        pmf = exact_domination_count_pmf(
            database,
            _query_object(database, query),
            database[index],
            exclude_indices=_excluded(query) + [index],
        )
        out[index] = float(pmf[:k].sum())
    return out


@functools.lru_cache(maxsize=None)
def _exact_expected_rank(name: str) -> dict[int, float]:
    """``1 + E[DomCount(A, Q)]`` per object ``A``."""
    database, query = _scenario(name)
    out = {}
    for index in range(len(database)):
        if index in _excluded(query):
            continue
        pmf = exact_domination_count_pmf(
            database,
            database[index],
            _query_object(database, query),
            exclude_indices=_excluded(query) + [index],
        )
        out[index] = 1.0 + float(np.arange(pmf.shape[0]) @ pmf)
    return out


@pytest.mark.parametrize(
    "k, tau, strict",
    [
        (1, 0.0, False),
        (1, 0.5, False),
        (2, 1.0, False),
        (3, 0.0, True),
        (3, 0.6, True),
        (50, 0.5, False),  # k >= N
    ],
)
@pytest.mark.parametrize("name", SCENARIOS)
def test_rknn_bounds_bracket_the_exact_probability(name, k, tau, strict):
    database, query = _scenario(name)
    exact = _exact_rknn(name, k)
    previous: dict[int, float] = {}
    for iterations in ITERATIONS:
        result = QueryEngine(database).rknn(
            query, k=k, tau=tau, max_iterations=iterations, strict=strict
        )
        assert result.candidate_count() == len(exact)
        for match in result.all_evaluated():
            truth = exact[match.index]
            assert match.probability_lower <= truth + SLACK
            assert truth <= match.probability_upper + SLACK
            assert match.iterations <= iterations
            if match.decision is True:
                assert truth > tau - SLACK if strict else truth >= tau - SLACK
            elif match.decision is False:
                assert truth < tau + SLACK if strict else truth <= tau + SLACK
            width = match.probability_upper - match.probability_lower
            assert width <= previous.get(match.index, np.inf) + SLACK
            previous[match.index] = width
        if k >= len(database):
            # every object is a reverse k-NN in every world
            assert all(m.decision is not False for m in result.all_evaluated())


@pytest.mark.parametrize("candidates", [None, (1, 2, 3, 5)])
@pytest.mark.parametrize("name", SCENARIOS)
def test_expected_rank_bounds_bracket_the_exact_rank(name, candidates):
    database, query = _scenario(name)
    exact = _exact_expected_rank(name)
    previous: dict[int, float] = {}
    for iterations in ITERATIONS:
        result = QueryEngine(database).ranking(
            query,
            max_iterations=iterations,
            uncertainty_budget=0.0,
            candidate_indices=candidates,
        )
        expected = [i for i in (candidates or exact) if i in exact]
        assert sorted(entry.index for entry in result.ranking) == sorted(expected)
        for entry in result.ranking:
            truth = exact[entry.index]
            assert entry.expected_rank_lower <= truth + SLACK
            assert truth <= entry.expected_rank_upper + SLACK
            assert entry.iterations <= iterations
            width = entry.expected_rank_upper - entry.expected_rank_lower
            assert width <= previous.get(entry.index, np.inf) + SLACK
            previous[entry.index] = width
