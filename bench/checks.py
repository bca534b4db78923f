"""Correctness checks the benchmark counts into ``failed``.

Three kinds, all on the program's *encoded* results (``encode_result``
documents — the same shape an HTTP body parses to — so one checker serves
the in-process and the gateway workloads):

* structural invariants on a result document (:func:`check_document`);
* byte identity of sampled service / HTTP payloads against an in-process
  serial ``QueryEngine`` on the same snapshot (done by the workloads, with
  :func:`payload` as the canonical form);
* a start-up soundness self-test against the possible-world oracle
  ``repro.baselines.exact`` on a 10-object discrete database
  (:func:`selftest`) — bit-identity between the program's own paths only
  proves they agree, the oracle says they are right.
"""

from __future__ import annotations

import numpy as np

from repro import QueryEngine
from repro.baselines import exact_domination_count_pmf
from repro.datasets import discrete_sample_database
from repro.gateway.codec import canonical_json, encode_result
from repro.uncertain import DiscreteObject
from repro.uncertain.sampling import pairwise_distances

_TOL = 1e-9


def payload(result) -> bytes:
    """Canonical bytes of one engine result (what the gateway would send)."""
    return canonical_json(encode_result(result))


def _bounds_ok(lower: float, upper: float, ceiling: float = 1.0) -> bool:
    return -_TOL <= lower <= upper + _TOL and upper <= ceiling + _TOL


def check_document(document: dict, eligible: int | None) -> str | None:
    """Structural invariants of one result document; ``None`` when they hold.

    ``eligible`` is the number of database objects the query ranges over
    (``N`` minus the query's own position when it is a database member);
    pass ``None`` where the partition invariant does not apply.
    """
    kind = document.get("kind")
    if kind == "threshold":
        evaluated = document["matches"] + document["undecided"] + document["rejected"]
        for match in evaluated:
            if not _bounds_ok(match["probability_lower"], match["probability_upper"]):
                return f"probability bounds out of order for object {match['index']}"
        if eligible is not None and len(evaluated) + document["pruned"] != eligible:
            return (
                f"{len(evaluated)} evaluated + {document['pruned']} pruned "
                f"!= {eligible} eligible objects"
            )
        return None
    if kind == "ranking":
        entries = document["ranking"]
        for entry in entries:
            lower, upper = entry["expected_rank_lower"], entry["expected_rank_upper"]
            if not (1.0 - _TOL <= lower <= upper + _TOL):
                return f"expected-rank bounds out of order for object {entry['index']}"
        keys = [
            (0.5 * (e["expected_rank_lower"] + e["expected_rank_upper"]), e["index"])
            for e in entries
        ]
        return None if keys == sorted(keys) else "ranking is not sorted"
    if kind == "rank_distribution":
        lower, upper = np.asarray(document["lower"]), np.asarray(document["upper"])
        if lower.shape != upper.shape or lower.size == 0:
            return "rank distribution bounds differ in length"
        if np.any(lower < -_TOL) or np.any(lower > upper + _TOL) or np.any(upper > 1 + _TOL):
            return "rank probability bounds out of order"
        return None
    return f"unknown result kind {kind!r}"


def tally(document: dict, counts) -> None:
    """Add one threshold document's filter/refine counts to ``counts``."""
    if document.get("kind") == "threshold":
        evaluated = (
            len(document["matches"]) + len(document["undecided"]) + len(document["rejected"])
        )
        counts["threshold_queries"] += 1
        counts["evaluated"] += evaluated
        counts["matches"] += len(document["matches"])
        counts["pruned"] += document["pruned"]


# --------------------------------------------------------------------- #
# soundness self-test against the exact oracle
# --------------------------------------------------------------------- #
def selftest() -> list[str]:
    """Engine bounds must bracket the exact answer for all five query kinds.

    Returns the list of violations (empty when sound).
    """
    database = discrete_sample_database(10, samples_per_object=6, max_extent=0.3, seed=3)
    rng = np.random.default_rng(3)
    query = DiscreteObject(0.5 + 0.2 * rng.uniform(-1, 1, size=(5, 2)), label="selftest-q")
    engine = QueryEngine(database)
    k, target = 3, 4
    failures: list[str] = []

    def expect(name: str, lower: float, exact: float, upper: float) -> None:
        if not lower - _TOL <= exact <= upper + _TOL:
            failures.append(f"selftest {name}: {exact} outside [{lower}, {upper}]")

    def pmf(obj_index: int, reverse: bool = False) -> np.ndarray:
        member = database[obj_index]
        pair = (query, member) if reverse else (member, query)
        return exact_domination_count_pmf(database, *pair, exclude_indices=[obj_index])

    for match in engine.knn(query, k=k, tau=0.5, max_iterations=6).all_evaluated():
        expect("knn", match.probability_lower, pmf(match.index)[:k].sum(), match.probability_upper)
    for match in engine.rknn(query, k=k, tau=0.5, max_iterations=6).all_evaluated():
        expect(
            "rknn",
            match.probability_lower,
            pmf(match.index, reverse=True)[:k].sum(),
            match.probability_upper,
        )
    for entry in engine.ranking(query, max_iterations=6).ranking:
        exact = pmf(entry.index)
        expected_rank = 1.0 + float(np.arange(exact.shape[0]) @ exact)
        expect("ranking", entry.expected_rank_lower, expected_rank, entry.expected_rank_upper)
    distribution = engine.inverse_ranking(target, query, max_iterations=6)
    for rank, exact in enumerate(pmf(target), start=1):
        lower, upper = distribution.rank_bounds(rank)
        expect("inverse_ranking", lower, float(exact), upper)
    epsilon = 0.25
    for match in engine.range(query, epsilon=epsilon, tau=0.5, max_depth=6).all_evaluated():
        member = database[match.index]
        within = pairwise_distances(member.points, query.points) <= epsilon
        exact = float(member.weights @ within @ query.weights)
        expect("range", match.probability_lower, exact, match.probability_upper)
    return failures
