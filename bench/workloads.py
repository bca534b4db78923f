"""The four named workloads: inputs, system under test, operations, checks.

Each workload makes its inputs from the seed alone and hands the program
nothing but the generated objects / documents.  ``setup()`` builds the
database and starts the system under test (this is what ``setup_s`` times);
``prepare()`` derives request inputs that need the database (harness work,
untimed); ``run()`` executes operations — ``warmup`` untimed ones first by
the caller, then the timed phase — and checks every result.

Operation ``i`` is a pure function of ``(seed, i)``, so a phase that is
replayed (the traced pass) or cut short by the clock still executes a prefix
of the same sequence.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import hashlib
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import (
    Delete,
    ExecutorConfig,
    Insert,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    QueryService,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
    Update,
    random_reference_object,
    uniform_rectangle_database,
)
from repro.engine.candidates import RTreeCandidateSource
from repro.gateway import GatewayServer
from repro.gateway.codec import decode_query
from repro.geometry import min_dist_arrays

from . import checks

TAU = 0.5
IDENTITY_EVERY = 50  # every 50th service / HTTP response is compared byte for byte
_MAX_DRAWS = 1 << 16  # pre-drawn request choices; the sequence wraps beyond


@dataclass
class Phase:
    """Outcome of one run of operations.

    ``samples`` holds ``(operation index, kind, seconds)`` per timed call as
    the caller issued it (kind ``"mutate"`` for a ``service.apply``, a query
    kind otherwise); ``wall`` is the time ``throughput`` is taken over;
    ``requests`` counts correct completed requests.
    """

    samples: list = field(default_factory=list)
    wall: float = 0.0
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    counts: collections.Counter = field(default_factory=collections.Counter)
    digests: dict = field(default_factory=dict)
    sampled: list = field(default_factory=list)  # responses kept for verify()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def seconds(self, kind: str | None = None) -> list[float]:
        """Latencies of one kind; of every query operation when ``None``."""
        if kind is None:
            return [s for _, k, s in self.samples if k != "mutate"]
        return [s for _, k, s in self.samples if k == kind]

    def typical_seconds(self) -> float:
        """The per-kind median latency, averaged by each kind's request share.

        On a workload that issues one kind of query operation this is the
        plain median.  On a mix whose kinds differ a hundredfold in cost the
        plain median falls into the gap between two modes (or inside the one
        kind that is half memo-cold, half warm) and moves by a quarter from
        seed to seed; the stratified figure does not.
        """
        by_kind = collections.defaultdict(list)
        for _, kind, seconds in self.samples:
            if kind != "mutate":
                by_kind[kind].append(seconds)
        total = sum(len(v) for v in by_kind.values())
        return sum(len(v) / total * statistics.median(v) for v in by_kind.values())

    def op_seconds(self, first: int, count: int) -> dict[int, float]:
        """Time of each operation ``first .. first+count-1`` (all its calls)."""
        out: dict[int, float] = collections.defaultdict(float)
        for index, _, seconds in self.samples:
            if first <= index < first + count:
                out[index] += seconds
        return out

    def result_digest(self, first: int, count: int) -> str:
        """Digest of the results of operations ``first .. first+count-1``."""
        digest = hashlib.sha256()
        for index in range(first, first + count):
            digest.update(self.digests.get(index, b"missing"))
        return digest.hexdigest()


def _zipf_draws(rng: np.random.Generator, pool: int, rotate: int) -> np.ndarray:
    """``_MAX_DRAWS`` pool members drawn Zipf(1.3) by popularity rank.

    Which member holds which rank is re-shuffled every ``rotate`` draws.
    Under Zipf(1.3) the top rank alone takes a quarter of the draws, so with
    one fixed ranking a run would mostly time whichever object the seed made
    hottest, and medians would differ by a third between seeds; a drifting
    hot set keeps the skew (and the recurrence the caches live on) while a
    run averages over several hottest objects.
    """
    weights = 1.0 / np.arange(1, pool + 1) ** 1.3
    ranks = rng.choice(pool, size=_MAX_DRAWS, p=weights / weights.sum())
    rankings = np.stack([rng.permutation(pool) for _ in range(_MAX_DRAWS // rotate + 1)])
    return rankings[np.arange(_MAX_DRAWS) // rotate, ranks]


@contextlib.contextmanager
def _operation_span(recorder, index: int):
    """The root span of operation ``index`` (nothing when not tracing)."""
    if recorder is None:
        yield
        return
    span = recorder.begin_op(index)
    try:
        yield
    finally:
        recorder.end_op(span)


def _nearest(database, mbr, count: int) -> list[int]:
    distances = min_dist_arrays(database.mbrs(), mbr.to_array(), 2.0)
    return [int(i) for i in np.argsort(distances, kind="stable")[:count]]


class Workload:
    """Shared plumbing; subclasses define the inputs and the operations."""

    name = ""
    #: sizes: ``n`` objects of maximum ``extent``, untimed ``warmup``
    #: operations, ``traced`` operations replayed under the span recorder
    #: (also the minimum the timed phase runs, whatever the clock says).
    #: The toy sizes use large extents so that refinement still iterates.
    full = {}
    toy = {}
    workers = 0

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.size = dict(self.toy if toy else self.full)
        self.database = None

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    # -- lifecycle ------------------------------------------------------ #
    def setup(self) -> None:
        raise NotImplementedError

    def _build_database(self):
        return uniform_rectangle_database(
            self.size["n"], max_extent=self.size["extent"], rng=self.rng(0)
        )

    def prepare(self) -> None:
        """Derive request inputs from the database (untimed harness work)."""

    def close(self) -> None:
        """Stop everything ``setup`` started."""

    def context_stats(self) -> dict | None:
        """The serial engine's memo counters; ``None`` when lanes own the memo."""
        engine = getattr(self, "engine", None)
        return engine.context.stats() if engine is not None else None

    def payload_nbytes(self) -> int:
        """Bytes of engine payload each worker lane received (0 without lanes)."""
        service = getattr(self, "service", None)
        return service.payload_nbytes if service is not None else 0

    def input_digest(self) -> str:
        """Digest of the generated inputs (database plus first operations)."""
        digest = hashlib.sha256(np.ascontiguousarray(self.database.mbrs()).tobytes())
        for index in range(self.size["warmup"] + self.size["traced"]):
            digest.update(repr(self.describe(index)).encode())
        return digest.hexdigest()

    def describe(self, index: int):
        """A printable, seed-determined description of operation ``index``."""
        raise NotImplementedError

    # -- operations ----------------------------------------------------- #
    def run(self, first: int, count: int | None, seconds: float | None, recorder=None) -> Phase:
        """Run operations from ``first``: ``count`` of them, or at least
        ``traced`` and until ``seconds`` of operation time have passed."""
        phase = Phase()
        index = first
        while not self._enough(index - first, count, phase.wall, seconds):
            started = perf_counter()
            try:
                self.operation(index, phase, recorder)
            except Exception as error:  # noqa: BLE001 - counted, never hidden
                phase.wall += perf_counter() - started  # a failing stream still ends
                phase.fail(f"operation {index}: {type(error).__name__}: {error}")
            index += 1
        return phase

    def _enough(self, done: int, count: int | None, elapsed: float, seconds: float | None) -> bool:
        """The stop rule of a phase: a fixed count, or the clock plus a floor."""
        if count is not None:
            return done >= count
        return done >= self.size["traced"] and elapsed >= seconds

    def request(self, index: int):
        """The query request of operation ``index`` (serial workloads)."""
        raise NotImplementedError

    def operation(self, index: int, phase: Phase, recorder) -> None:
        """Issue operation ``index``; its timed calls sit in the root span.

        By default one ``evaluate_many([request])`` on the serial engine.
        """
        request = self.request(index)
        phase.attempted += 1
        with _operation_span(recorder, index):
            start = perf_counter()
            result = self.engine.evaluate_many([request])[0]
            elapsed = perf_counter() - start
        phase.wall += elapsed
        phase.samples.append((index, request.kind, elapsed))
        self._check(index, request, result, phase)

    def verify(self, phase: Phase) -> None:
        """Checks that need the program again (a serial reference engine).

        Called by the harness after :meth:`run`, with the span recorder off,
        so the reference evaluations never count as the program's work.
        """

    def _check(self, index: int, request, result, phase: Phase, database=None) -> None:
        """Structural invariants of one in-process result; records its digest."""
        database = database if database is not None else self.database
        document = checks.encode_result(result)
        query = getattr(request, "query", None)
        eligible = None
        if request.kind in ("knn", "rknn", "range"):
            eligible = len(database) - isinstance(query, (int, np.integer))
        problem = checks.check_document(document, eligible)
        phase.digests[index] = hashlib.sha256(checks.canonical_json(document)).digest()
        checks.tally(document, phase.counts)
        phase.counts["eligible"] += eligible or 0
        if problem is not None:
            phase.fail(f"operation {index} ({request.kind}): {problem}")
        else:
            phase.requests += 1


# --------------------------------------------------------------------- #
# knn_scale_100k
# --------------------------------------------------------------------- #
class KnnScale(Workload):
    name = "knn_scale_100k"
    full = {"n": 100_000, "extent": 0.002, "warmup": 4, "traced": 4}
    toy = {"n": 200, "extent": 0.08, "warmup": 1, "traced": 3}

    def setup(self) -> None:
        self.database = self._build_database()
        self.engine = QueryEngine(self.database)

    def request(self, index: int) -> KNNQuery:
        query = random_reference_object(extent=self.size["extent"], rng=self.rng(1, index))
        # 3 iterations, not the issue's 5: a query then costs ~0.7 s instead of
        # ~1.4 s, ~30 instead of ~14 fit into the timed phase, and the spread
        # of the median between seeds halves (0.19 -> 0.10).  The layer
        # budget is the same: N-length PMF aggregation owns the request.
        return KNNQuery(query, k=5, tau=TAU, max_iterations=3)

    def describe(self, index: int):
        return self.request(index).query.mbr.to_array().tolist()


# --------------------------------------------------------------------- #
# mixed_hot_5k
# --------------------------------------------------------------------- #
class MixedHot(Workload):
    name = "mixed_hot_5k"
    full = {"n": 5_000, "extent": 0.01, "warmup": 20, "traced": 40, "pool": 32}
    toy = {"n": 200, "extent": 0.08, "warmup": 5, "traced": 10, "pool": 8}
    kinds = ("knn", "rknn", "range", "ranking", "inverse_ranking")
    # one popularity ranking for the whole run: a drifting hot set would push
    # the share of first-time (memo-cold) requests towards one half, and the
    # median would then flip between the cold and the warm mode
    rotate = _MAX_DRAWS

    def setup(self) -> None:
        self.database = self._build_database()
        self.engine = QueryEngine(self.database)

    def prepare(self) -> None:
        rng = self.rng(1)
        pool = self.size["pool"]
        self.pool = [random_reference_object(extent=self.size["extent"], rng=rng) for _ in range(pool)]
        self.near = [_nearest(self.database, query.mbr, 12) for query in self.pool]
        self.picks = _zipf_draws(rng, pool, self.rotate)

    def request(self, index: int):
        kind = self.kinds[index % len(self.kinds)]
        pick = int(self.picks[index % _MAX_DRAWS])
        query, near = self.pool[pick], self.near[pick]
        if kind == "knn":
            return KNNQuery(query, k=5, tau=TAU, max_iterations=5)
        if kind == "rknn":
            return RKNNQuery(query, k=3, tau=TAU, max_iterations=4, candidate_indices=near)
        if kind == "range":
            return RangeQuery(query, epsilon=0.02, tau=TAU, max_depth=4)
        if kind == "ranking":
            return RankingQuery(query, max_iterations=3, candidate_indices=near[:8])
        return InverseRankingQuery(near[2], query, max_iterations=5)

    def describe(self, index: int):
        return (self.kinds[index % len(self.kinds)], int(self.picks[index % _MAX_DRAWS]))

    def input_digest(self) -> str:
        digest = hashlib.sha256(super().input_digest().encode())
        for query in self.pool:
            digest.update(query.mbr.to_array().tobytes())
        return digest.hexdigest()


# --------------------------------------------------------------------- #
# http_light_1500
# --------------------------------------------------------------------- #
class HttpLight(Workload):
    name = "http_light_1500"
    full = {"n": 1_500, "extent": 0.005, "warmup": 300, "traced": 400, "hot": 64}
    toy = {"n": 150, "extent": 0.08, "warmup": 10, "traced": 20, "hot": 16}
    workers = 2
    connections = 2  # closed loop: each waits for its reply; nproc is 2
    rotate = 200  # requests between re-shuffles of the hot pool's popularity ranking

    def setup(self) -> None:
        self.database = self._build_database()
        self.service = QueryService(self.database, ExecutorConfig(workers=self.workers))
        self.server = GatewayServer(self.service)  # start() warms every lane
        self.host, self.port = self.server.address

    def close(self) -> None:
        try:
            self.server.close()
        finally:
            self.service.close()  # the lanes end even if the gateway does not

    def prepare(self) -> None:
        rng = self.rng(1)
        n, hot = self.size["n"], self.size["hot"]
        hot_pool = rng.choice(n, size=hot, replace=False)
        from_hot = rng.random(_MAX_DRAWS) < 0.75
        self.queries = np.where(
            from_hot,
            hot_pool[_zipf_draws(rng, hot, self.rotate)],
            rng.integers(0, n, size=_MAX_DRAWS),
        )
        self.kind_draws = rng.random(_MAX_DRAWS)
        self._third_nearest: dict[int, int] = {}

    def document(self, index: int) -> dict:
        query = int(self.queries[index % _MAX_DRAWS])
        draw = self.kind_draws[index % _MAX_DRAWS]
        if draw < 0.6:
            return {"type": "knn", "query": query, "k": 2, "tau": TAU, "max_iterations": 3}
        if draw < 0.9:
            return {"type": "range", "query": query, "epsilon": 0.05, "tau": TAU, "max_depth": 3}
        target = self._third_nearest.get(query)
        if target is None:
            near = _nearest(self.database, self.database[query].mbr, 4)
            target = self._third_nearest[query] = [i for i in near if i != query][2]
        return {"type": "inverse_ranking", "target": target, "reference": query, "max_iterations": 3}

    def describe(self, index: int):
        return sorted(self.document(index).items())

    def frame(self, index: int) -> tuple[str, bytes]:
        """The query kind and the HTTP request bytes of operation ``index``."""
        document = self.document(index)
        body = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        head = (
            "POST /v1/query HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return document["type"], head.encode("latin-1") + body

    def run(self, first: int, count: int | None, seconds: float | None, recorder=None) -> Phase:
        phase = Phase()
        before = self.server.metrics()
        phase.wall = asyncio.run(self._closed_loop(phase, first, count, seconds, recorder))
        after = self.server.metrics()
        phase.counts["gateway.requests"] = after["requests_total"] - before["requests_total"]
        phase.counts["gateway.coalesce_hits"] = after["coalesce_hits"] - before["coalesce_hits"]
        phase.counts["gateway.non200"] = sum(
            after["responses_by_status"].get(status, 0)
            - before["responses_by_status"].get(status, 0)
            for status in after["responses_by_status"]
            if status != "200"
        )
        return phase

    async def _closed_loop(self, phase, first, count, seconds, recorder) -> float:
        cursor = [first]
        started = perf_counter()

        def take() -> int | None:
            if self._enough(cursor[0] - first, count, perf_counter() - started, seconds):
                return None
            cursor[0] += 1
            return cursor[0] - 1

        async def connection() -> None:
            reader = writer = None
            try:
                while (index := take()) is not None:
                    phase.attempted += 1
                    kind, frame = self.frame(index)
                    try:
                        if writer is None:
                            reader, writer = await asyncio.open_connection(self.host, self.port)
                        sent = perf_counter()
                        writer.write(frame)
                        await writer.drain()
                        status, body = await asyncio.wait_for(_read_response(reader), 60)
                        received = perf_counter()
                    except (OSError, ValueError, asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
                        phase.fail(f"request {index}: transport {type(error).__name__}: {error}")
                        if writer is not None:
                            writer.close()
                        reader = writer = None
                        continue
                    if recorder is not None:
                        recorder.record("op", sent, received, index)
                    phase.samples.append((index, kind, received - sent))
                    phase.digests[index] = hashlib.sha256(body).digest()
                    # cheap framing check on every reply; the sampled ones are
                    # parsed and compared with the serial engine after the phase
                    if status != 200 or not body.startswith(b'{"result":{') or body[-2:] != b"}}":
                        phase.fail(f"request {index}: status {status}: {body[:120]!r}")
                    else:
                        phase.requests += 1
                        if index % IDENTITY_EVERY == 0 or recorder is not None:
                            phase.sampled.append((index, body))
            finally:
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except OSError:
                        pass

        await asyncio.gather(*(connection() for _ in range(self.connections)))
        return perf_counter() - started

    def verify(self, phase: Phase) -> None:
        """Invariants + byte identity of the sampled replies."""
        reference = QueryEngine(self.database)
        for index, body in sorted(phase.sampled):
            document = json.loads(body)["result"]
            checks.tally(document, phase.counts)
            request = decode_query(self.document(index), self.database)
            eligible = len(self.database) - 1 if request.kind != "inverse_ranking" else None
            phase.counts["eligible"] += eligible or 0
            problem = checks.check_document(document, eligible)
            if problem is None and index % IDENTITY_EVERY == 0:
                expected = b'{"result":' + checks.payload(request.run(reference)) + b"}"
                if body != expected:
                    problem = "payload differs from the serial engine's"
            if problem is not None:
                phase.fail(f"request {index}: {problem}")
                phase.requests -= 1


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Parse one fixed-length HTTP/1.1 response."""
    status_line = (await reader.readuntil(b"\r\n")).split(b" ", 2)
    if len(status_line) < 2 or not status_line[1].isdigit():
        raise ValueError(f"malformed status line {status_line!r}")
    length = 0
    while (line := await reader.readuntil(b"\r\n")) != b"\r\n":
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return int(status_line[1]), body


# --------------------------------------------------------------------- #
# mutate_mixed_15k
# --------------------------------------------------------------------- #
class MutateMixed(Workload):
    name = "mutate_mixed_15k"
    full = {"n": 15_000, "extent": 0.006, "warmup": 5, "traced": 6}
    toy = {"n": 200, "extent": 0.04, "warmup": 1, "traced": 2}
    workers = 2
    # Query positions 0..63 recur, eight drawn per round; mutations touch
    # positions >= 64.  (The issue proposed 16 positions in a fixed rotation;
    # a round then has one of two compositions, the batch median sits between
    # those two clusters, and the cost of 16 objects differs by a sixth from
    # seed to seed.  Each position still recurs about every eighth round.)
    recurring = 64
    batch = 8

    def setup(self) -> None:
        self.database = self._build_database()
        engine = QueryEngine(
            self.database, candidate_source=RTreeCandidateSource(self.database)
        )
        self.service = QueryService(engine, ExecutorConfig(workers=self.workers))
        self.service.warm()
        self._served = 0

    def close(self) -> None:
        self.service.close()

    def mutations(self, index: int) -> list:
        rng = self.rng(2, index)
        n = self.size["n"]  # constant: every round inserts two and deletes two
        fresh = uniform_rectangle_database(14, max_extent=self.size["extent"], rng=rng)
        touched = rng.choice(np.arange(self.recurring, n), size=14, replace=False)
        updates = [Update(int(p), fresh[i]) for i, p in enumerate(touched[:12])]
        inserts = [Insert(fresh[12]), Insert(fresh[13])]
        # descending, so the first delete does not shift the second's position
        deletes = [Delete(int(p)) for p in sorted(touched[12:], reverse=True)]
        return updates + inserts + deletes

    def requests(self, index: int) -> list:
        out = []
        queries = self.rng(3, index).choice(self.recurring, size=self.batch, replace=False)
        for slot, query in enumerate(int(q) for q in queries):
            if slot % 2 == 0:
                out.append(KNNQuery(query, k=3, tau=TAU, max_iterations=4))
            else:
                out.append(RangeQuery(query, epsilon=0.05, tau=TAU))
        return out

    def describe(self, index: int):
        return (
            [(type(m).__name__, getattr(m, "position", -1)) for m in self.mutations(index)],
            [(r.kind, r.query) for r in self.requests(index)],
        )

    def operation(self, index: int, phase: Phase, recorder) -> None:
        mutations, requests = self.mutations(index), self.requests(index)
        phase.attempted += 2
        with _operation_span(recorder, index):
            start = perf_counter()
            self.service.apply(mutations)
            applied = perf_counter()
            results = self.service.evaluate_many(requests)
            done = perf_counter()
        phase.samples.append((index, "mutate", applied - start))
        phase.samples.append((index, "batch", done - applied))
        phase.wall += done - start
        snapshot = self.service.engine.database
        digest = hashlib.sha256()
        for slot, (request, result) in enumerate(zip(requests, results)):
            self._check(index, request, result, phase, database=snapshot)
            digest.update(phase.digests[index])
            if self._served % IDENTITY_EVERY == 0:
                phase.sampled.append((index, slot, snapshot, request, checks.payload(result)))
            self._served += 1
        phase.digests[index] = digest.digest()
        report = self.service.last_batch_report
        lookups = report.pair_bounds_hits + report.pair_bounds_misses
        phase.counts["post_lookups"] += lookups
        phase.counts["post_hits"] += report.pair_bounds_hits + report.shared_hits

    def verify(self, phase: Phase) -> None:
        """Byte identity against a serial engine on the snapshot each sampled
        batch saw (snapshots are immutable and share untouched objects)."""
        for index, slot, snapshot, request, served in phase.sampled:
            if checks.payload(request.run(QueryEngine(snapshot))) != served:
                phase.fail(f"round {index} request {slot}: differs from the serial engine's")
                phase.requests -= 1


WORKLOADS = {cls.name: cls for cls in (KnnScale, MixedHot, HttpLight, MutateMixed)}
