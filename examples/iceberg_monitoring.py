"""Iceberg monitoring: probabilistic kNN and reverse kNN on the simulated IIP data.

Scenario (the paper's real-world evaluation): the International Ice Patrol
tracks icebergs in the North Atlantic.  Each iceberg's position is uncertain —
the longer since its last sighting, the larger its uncertainty region.  A
vessel (itself reporting an imprecise position) wants to know:

* "Which icebergs are among the 5 closest to me with probability >= 50%?"
  (probabilistic threshold kNN, Corollary 4)
* "For which icebergs am I among their 3 nearest tracked objects?"
  (probabilistic threshold reverse kNN, Corollary 5) — the icebergs whose
  drift updates should be prioritised for this vessel.

The second half turns the one-shot analysis into a *streaming* watch: the
database is served through :class:`~repro.engine.QueryService` and the HTTP
gateway, and each monitoring tick applies a batch of drift re-sightings via
``POST /v1/mutate``.  The gateway advances the snapshot epoch behind its
mutation barrier; after each tick the vessel re-posts its kNN and range
documents to ``POST /v1/query`` and reads answers for the new snapshot.

Run with::

    python examples/iceberg_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    IIPSimulationConfig,
    iip_iceberg_database,
    probabilistic_knn_threshold,
    probabilistic_rknn_threshold,
)
from repro.geometry import Rectangle
from repro.uncertain import BoxUniformObject


def main() -> None:
    # ------------------------------------------------------------------ #
    # the simulated IIP iceberg sightings dataset (6,216 objects by default;
    # reduced here so the example finishes in a few seconds)
    # ------------------------------------------------------------------ #
    config = IIPSimulationConfig(num_objects=1_500, seed=2009)
    icebergs = iip_iceberg_database(config)
    extents = icebergs.mbrs()[..., 1] - icebergs.mbrs()[..., 0]
    print(
        f"{len(icebergs)} tracked icebergs, max uncertainty extent "
        f"{extents.max():.6f} (normalised coordinates)"
    )

    # a vessel with an imprecise GPS fix, modelled as a small uniform rectangle
    vessel = BoxUniformObject(
        Rectangle.from_center_extent([0.52, 0.44], 0.0008), label="vessel"
    )

    # ------------------------------------------------------------------ #
    # probabilistic threshold kNN: icebergs probably among the 5 closest
    # ------------------------------------------------------------------ #
    knn = probabilistic_knn_threshold(icebergs, vessel, k=5, tau=0.5, max_iterations=8)
    print(
        f"\nIcebergs among the vessel's 5 nearest with P >= 0.5: "
        f"{len(knn.matches)} confirmed, {len(knn.undecided)} undecided, "
        f"{knn.pruned} pruned without probabilistic evaluation"
    )
    for match in sorted(knn.matches, key=lambda m: -m.probability_midpoint):
        label = icebergs[match.index].label
        print(
            f"  {label}: P(among 5 nearest) in "
            f"[{match.probability_lower:.2f}, {match.probability_upper:.2f}]"
        )

    # ------------------------------------------------------------------ #
    # probabilistic threshold reverse kNN: icebergs that consider the vessel
    # one of their 3 nearest tracked objects
    # ------------------------------------------------------------------ #
    # restrict the candidates to the icebergs near the vessel (the spatially
    # distant ones cannot be reverse neighbours anyway)
    near = knn_candidate_subset(icebergs, vessel, limit=120)
    rknn = probabilistic_rknn_threshold(
        icebergs, vessel, k=3, tau=0.25, candidate_indices=near, max_iterations=6
    )
    print(
        f"\nIcebergs with the vessel among their 3 nearest (P >= 0.25): "
        f"{len(rknn.matches)} confirmed, {len(rknn.undecided)} undecided"
    )
    for match in rknn.matches:
        print(
            f"  {icebergs[match.index].label}: P in "
            f"[{match.probability_lower:.2f}, {match.probability_upper:.2f}] "
            f"after {match.iterations} refinement iterations"
        )

    # ------------------------------------------------------------------ #
    # streaming: drift via /v1/mutate, the vessel's queries via /v1/query
    # ------------------------------------------------------------------ #
    streaming_watch(icebergs, vessel)


def streaming_watch(icebergs, vessel) -> None:
    """Serve the database and re-ask the vessel's questions across drift.

    Applies three rounds of mutations — drift re-sightings of the nearest
    icebergs, then a far-away new sighting, then another drift round — and
    after each one re-posts the vessel's kNN document ("the 5 icebergs
    probably nearest the vessel") and range document ("icebergs probably
    within ``epsilon`` of the vessel") to ``/v1/query``.
    """
    import json
    import urllib.request

    from repro.engine import ExecutorConfig, QueryService
    from repro.gateway import GatewayServer

    def post(url: str, document: dict) -> dict:
        request = urllib.request.Request(
            url,
            data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    mbr = vessel.mbr
    vessel_literal = {
        "box": {
            "lower": [iv.lo for iv in mbr.intervals],
            "upper": [iv.hi for iv in mbr.intervals],
        }
    }
    knn_document = {"type": "knn", "query": vessel_literal, "k": 5, "tau": 0.5,
                    "max_iterations": 6}
    range_document = {"type": "range", "query": vessel_literal, "epsilon": 0.015,
                      "tau": 0.2, "max_depth": 4}
    watched = knn_candidate_subset(icebergs, vessel, limit=3)
    centers = {i: icebergs[i].mean() for i in watched}
    drift_rng = np.random.default_rng(41)

    print("\n--- streaming watch (queries re-posted after each mutation) ---")
    with QueryService(icebergs, ExecutorConfig(workers=2)) as service:
        with GatewayServer(service) as server:
            for tick in range(3):
                ops = []
                if tick != 1:
                    # drift re-sightings: the watched icebergs move a little
                    # and come back with a fresh, tighter uncertainty region
                    for i in watched:
                        centers[i] = centers[i] + drift_rng.normal(0.0, 0.002, size=2)
                        ops.append({
                            "op": "update",
                            "position": i,
                            "object": {"gaussian": {"mean": list(centers[i]),
                                                    "std": [0.0008, 0.0008]},
                                       "label": icebergs[i].label},
                        })
                else:
                    # a brand-new sighting far from the vessel
                    ops.append({
                        "op": "insert",
                        "object": {"gaussian": {"mean": [0.95, 0.95],
                                                "std": [0.002, 0.002]},
                                   "label": f"iceberg-{len(icebergs)}"},
                    })
                outcome = post(f"{server.url}/v1/mutate", {"mutations": ops})
                knn = post(f"{server.url}/v1/query", knn_document)["result"]
                nearby = post(f"{server.url}/v1/query", range_document)["result"]
                print(
                    f"tick {tick}: {outcome['applied']} ops -> epoch "
                    f"{outcome['epoch']} ({outcome['size']} icebergs); "
                    f"{len(knn['matches'])} kNN matches, "
                    f"{len(nearby['matches'])} within range"
                )
                database = service.engine.database
                ranked = sorted(knn["matches"], key=lambda m: -m["probability_upper"])
                for match in ranked[:3]:
                    label = database[match["index"]].label
                    print(
                        f"    {label}: P(among 5 nearest) in "
                        f"[{match['probability_lower']:.2f}, "
                        f"{match['probability_upper']:.2f}]"
                    )


def knn_candidate_subset(database, query, limit: int) -> list[int]:
    """Indices of the ``limit`` objects closest to the query by MinDist."""
    from repro.index import min_dist_order

    order = min_dist_order(database.mbrs(), query.mbr)
    return [int(i) for i in order[:limit]]


if __name__ == "__main__":
    main()
