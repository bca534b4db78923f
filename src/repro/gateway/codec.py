"""JSON codecs between the HTTP surface and the engine's typed requests.

Three jobs, all deterministic:

* **decode** — turn a client JSON document into exactly one of the five
  query-request dataclasses (``repro/engine/requests.py``), validating
  every field eagerly so malformed input fails with :class:`CodecError`
  (→ HTTP 400) *before* anything reaches the service queue.  Object
  arguments accept a database position or an inline uncertain-object
  literal (box-uniform, discrete, truncated Gaussian);
* **key** — derive the process-independent *request key* used for
  in-flight request coalescing: the snapshot epoch, the
  :func:`~repro.engine.boundstore.stable_object_key` identity of every
  object argument and the full result-relevant parameter tuple.  Two
  requests with equal keys are guaranteed to produce equal results (the
  engine is deterministic), so the gateway can serve both from one
  evaluation;
* **encode** — serialise result objects into *canonical* JSON bytes
  (sorted keys, no whitespace, no wall-clock fields), so coalesced
  duplicates — and the same request replayed at any worker count — are
  byte-identical.  Timing lives in the gateway metrics, never in
  payloads.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Union

from ..engine.boundstore import encode_stable_key, stable_object_key
from ..engine.requests import (
    InverseRankingQuery,
    KNNQuery,
    QueryRequest,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
)
from ..geometry import Rectangle
from ..queries.common import ThresholdQueryResult
from ..queries.inverse_ranking import RankDistribution
from ..queries.ranking import RankingResult
from ..uncertain import (
    BoxUniformObject,
    DiscreteObject,
    TruncatedGaussianObject,
    UncertainObject,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uncertain import UncertainDatabase

__all__ = [
    "CodecError",
    "SUPPORTED_KINDS",
    "canonical_json",
    "decode_mutations",
    "decode_query",
    "encode_result",
    "request_key",
]

#: The five query types the gateway serves.
SUPPORTED_KINDS = ("knn", "rknn", "range", "ranking", "inverse_ranking")


class CodecError(ValueError):
    """A client document that does not decode into a supported query."""


# --------------------------------------------------------------------- #
# field validation helpers
# --------------------------------------------------------------------- #
def _require(payload: dict, name: str):
    if name not in payload:
        raise CodecError(f"missing required field {name!r}")
    return payload[name]


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"{name} must be an integer, got {value!r}")
    return value


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CodecError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise CodecError(f"{name} must be a boolean, got {value!r}")
    return value


def _as_index_list(value, name: str) -> Optional[tuple[int, ...]]:
    if value is None:
        return None
    if not isinstance(value, list):
        raise CodecError(f"{name} must be a list of integers, got {value!r}")
    return tuple(_as_int(item, f"{name}[{i}]") for i, item in enumerate(value))


def _vector(value, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise CodecError(f"{name} must be a non-empty list of numbers")
    return [_as_number(item, f"{name}[{i}]") for i, item in enumerate(value)]


def _decode_object(
    spec, database: "UncertainDatabase", name: str
) -> Union[int, UncertainObject]:
    """Decode an object argument: a database position or an inline literal."""
    if isinstance(spec, bool):
        raise CodecError(f"{name} must be an index or an object literal")
    if isinstance(spec, int):
        if not 0 <= spec < len(database):
            raise CodecError(
                f"{name} index {spec} out of range for a database of "
                f"{len(database)} objects"
            )
        return spec
    if not isinstance(spec, dict):
        raise CodecError(f"{name} must be an index or an object literal")
    kinds = {"box", "points", "gaussian"} & spec.keys()
    if len(kinds) != 1:
        raise CodecError(
            f"{name} literal must have exactly one of 'box', 'points', "
            f"'gaussian', got {sorted(spec)}"
        )
    (shape,) = kinds
    allowed = {shape, "label", "weights"} if shape == "points" else {shape, "label"}
    _reject_unknown(spec, allowed, f"{name} literal")
    label = spec.get("label")
    if label is not None and not isinstance(label, str):
        raise CodecError(f"{name}.label must be a string, got {label!r}")
    try:
        if shape == "box":
            box = _nested(spec, "box", {"lower", "upper"}, name)
            lower = _vector(_require(box, "lower"), f"{name}.box.lower")
            upper = _vector(_require(box, "upper"), f"{name}.box.upper")
            return BoxUniformObject(Rectangle.from_bounds(lower, upper), label=label)
        if shape == "points":
            points = spec["points"]
            if not isinstance(points, list) or not points:
                raise CodecError(f"{name}.points must be a non-empty list")
            rows = [_vector(row, f"{name}.points[{i}]") for i, row in enumerate(points)]
            weights = spec.get("weights")
            if weights is not None:
                weights = _vector(weights, f"{name}.weights")
            return DiscreteObject(rows, weights, label=label)
        gaussian = _nested(spec, "gaussian", {"mean", "std"}, name)
        mean = _vector(_require(gaussian, "mean"), f"{name}.gaussian.mean")
        std = _vector(_require(gaussian, "std"), f"{name}.gaussian.std")
        return TruncatedGaussianObject(mean, std, label=label)
    except CodecError:
        raise
    except (TypeError, ValueError) as error:
        raise CodecError(f"invalid {name} literal: {error}") from error


def _nested(spec: dict, shape: str, allowed: set, name: str) -> dict:
    """The ``box`` / ``gaussian`` object of a literal, its fields checked."""
    value = spec[shape]
    if not isinstance(value, dict):
        raise CodecError(f"{name}.{shape} must be an object")
    _reject_unknown(value, allowed, f"{name}.{shape}")
    return value


def _reject_unknown(payload: dict, allowed: set, where: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise CodecError(f"unknown field(s) in {where}: {sorted(unknown)}")


# --------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------- #
def decode_query(payload, database: "UncertainDatabase") -> QueryRequest:
    """Decode one client JSON document into a typed query request.

    ``payload`` must be a JSON object with a ``type`` field naming one of
    :data:`SUPPORTED_KINDS`; every other field mirrors the corresponding
    request dataclass.  Unknown fields are rejected (a typo'd optional
    field silently falling back to its default would change results), as
    are values of the wrong type — all as :class:`CodecError`, which the
    server maps to HTTP 400.  The transport-level field ``timeout_ms`` is
    the server's job and must be stripped before calling.
    """
    if not isinstance(payload, dict):
        raise CodecError("query must be a JSON object")
    kind = _require(payload, "type")
    if kind not in SUPPORTED_KINDS:
        raise CodecError(
            f"unsupported query type {kind!r}; expected one of {SUPPORTED_KINDS}"
        )
    if kind == "knn":
        _reject_unknown(
            payload, {"type", "query", "k", "tau", "max_iterations", "strict"}, kind
        )
        return KNNQuery(
            query=_decode_object(_require(payload, "query"), database, "query"),
            k=_as_int(_require(payload, "k"), "k"),
            tau=_as_number(_require(payload, "tau"), "tau"),
            max_iterations=_as_int(payload.get("max_iterations", 10), "max_iterations"),
            strict=_as_bool(payload.get("strict", False), "strict"),
        )
    if kind == "rknn":
        _reject_unknown(
            payload,
            {"type", "query", "k", "tau", "max_iterations", "candidate_indices",
             "strict"},
            kind,
        )
        return RKNNQuery(
            query=_decode_object(_require(payload, "query"), database, "query"),
            k=_as_int(_require(payload, "k"), "k"),
            tau=_as_number(_require(payload, "tau"), "tau"),
            max_iterations=_as_int(payload.get("max_iterations", 10), "max_iterations"),
            candidate_indices=_as_index_list(
                payload.get("candidate_indices"), "candidate_indices"
            ),
            strict=_as_bool(payload.get("strict", False), "strict"),
        )
    if kind == "range":
        _reject_unknown(
            payload, {"type", "query", "epsilon", "tau", "max_depth", "strict"}, kind
        )
        return RangeQuery(
            query=_decode_object(_require(payload, "query"), database, "query"),
            epsilon=_as_number(_require(payload, "epsilon"), "epsilon"),
            tau=_as_number(_require(payload, "tau"), "tau"),
            max_depth=_as_int(payload.get("max_depth", 6), "max_depth"),
            strict=_as_bool(payload.get("strict", False), "strict"),
        )
    if kind == "ranking":
        _reject_unknown(
            payload,
            {"type", "query", "max_iterations", "uncertainty_budget",
             "candidate_indices"},
            kind,
        )
        return RankingQuery(
            query=_decode_object(_require(payload, "query"), database, "query"),
            max_iterations=_as_int(payload.get("max_iterations", 6), "max_iterations"),
            uncertainty_budget=_as_number(
                payload.get("uncertainty_budget", 0.25), "uncertainty_budget"
            ),
            candidate_indices=_as_index_list(
                payload.get("candidate_indices"), "candidate_indices"
            ),
        )
    _reject_unknown(
        payload,
        {"type", "target", "reference", "max_iterations", "uncertainty_budget",
         "exclude_indices"},
        kind,
    )
    budget = payload.get("uncertainty_budget")
    return InverseRankingQuery(
        target=_decode_object(_require(payload, "target"), database, "target"),
        reference=_decode_object(_require(payload, "reference"), database, "reference"),
        max_iterations=_as_int(payload.get("max_iterations", 10), "max_iterations"),
        uncertainty_budget=(
            None if budget is None else _as_number(budget, "uncertainty_budget")
        ),
        exclude_indices=_as_index_list(
            payload.get("exclude_indices"), "exclude_indices"
        ),
    )


def _decode_literal(spec, database: "UncertainDatabase", name: str) -> UncertainObject:
    """Decode an object literal, rejecting database positions.

    Mutations carry object *content*; a bare position would be ambiguous
    (insert object number 5?), so only inline literals are accepted.
    """
    if isinstance(spec, int) and not isinstance(spec, bool):
        raise CodecError(
            f"{name} must be an object literal, not a database position"
        )
    return _decode_object(spec, database, name)


def decode_mutations(payload, database: "UncertainDatabase") -> tuple:
    """Decode a client mutation list into typed mutation operations.

    ``payload`` must be a non-empty JSON list of operation objects, each
    carrying an ``op`` field: ``{"op": "insert", "object": <literal>}``,
    ``{"op": "update", "position": n, "object": <literal>}`` or
    ``{"op": "delete", "position": n}``.  Operations are sequential —
    each position refers to the database state after the preceding
    operations — and positions are bounds-checked against that running
    state here, so a malformed batch fails with :class:`CodecError`
    (→ HTTP 400) before anything reaches the service queue.
    """
    from ..uncertain.base import Delete, Insert, Update

    if not isinstance(payload, list) or not payload:
        raise CodecError("mutations must be a non-empty list of operations")
    length = len(database)
    decoded = []
    for i, op in enumerate(payload):
        name = f"mutations[{i}]"
        if not isinstance(op, dict):
            raise CodecError(f"{name} must be an operation object")
        kind = _require(op, "op")
        if kind == "insert":
            _reject_unknown(op, {"op", "object"}, "insert")
            decoded.append(
                Insert(_decode_literal(_require(op, "object"), database, f"{name}.object"))
            )
            length += 1
            continue
        if kind not in ("update", "delete"):
            raise CodecError(
                f"{name}.op must be one of 'insert', 'update', 'delete', got {kind!r}"
            )
        position = _as_int(_require(op, "position"), f"{name}.position")
        if not 0 <= position < length:
            raise CodecError(
                f"{name}.position {position} out of range for a database of "
                f"{length} objects at that point in the batch"
            )
        if kind == "update":
            _reject_unknown(op, {"op", "position", "object"}, "update")
            decoded.append(
                Update(
                    position,
                    _decode_literal(_require(op, "object"), database, f"{name}.object"),
                )
            )
        else:
            _reject_unknown(op, {"op", "position"}, "delete")
            if length == 1:
                raise CodecError(f"{name} would delete the last remaining object")
            decoded.append(Delete(position))
            length -= 1
    return tuple(decoded)


# --------------------------------------------------------------------- #
# coalescing keys
# --------------------------------------------------------------------- #
def _object_key(database: "UncertainDatabase", spec) -> tuple:
    if isinstance(spec, int):
        return ("db", spec)
    return stable_object_key(database, spec)


def request_key(database: "UncertainDatabase", request: QueryRequest) -> bytes:
    """Process-independent identity of one decoded request.

    Built from the database's snapshot epoch, the
    :func:`~repro.engine.boundstore.stable_object_key` of every object
    argument and all result-relevant parameters — equal keys imply
    bit-identical results, so the gateway may serve concurrent duplicates
    from a single evaluation.  A database position and an inline literal
    never share a key, even for equal content.  The transport field
    ``timeout_ms`` never enters the key: it affects *whether and when* a
    request runs, not what it returns.
    """
    if isinstance(request, KNNQuery):
        parts = (
            "knn",
            _object_key(database, request.query),
            request.k,
            request.tau,
            request.max_iterations,
            request.strict,
        )
    elif isinstance(request, RKNNQuery):
        candidates = request.candidate_indices
        parts = (
            "rknn",
            _object_key(database, request.query),
            request.k,
            request.tau,
            request.max_iterations,
            None if candidates is None else tuple(int(i) for i in candidates),
            request.strict,
        )
    elif isinstance(request, RangeQuery):
        parts = (
            "range",
            _object_key(database, request.query),
            request.epsilon,
            request.tau,
            request.max_depth,
            request.strict,
        )
    elif isinstance(request, RankingQuery):
        candidates = request.candidate_indices
        parts = (
            "ranking",
            _object_key(database, request.query),
            request.max_iterations,
            request.uncertainty_budget,
            None if candidates is None else tuple(int(i) for i in candidates),
        )
    elif isinstance(request, InverseRankingQuery):
        exclude = request.exclude_indices
        parts = (
            "inverse_ranking",
            _object_key(database, request.target),
            _object_key(database, request.reference),
            request.max_iterations,
            request.uncertainty_budget,
            None if exclude is None else tuple(int(i) for i in exclude),
        )
    else:  # pragma: no cover - decode_query cannot produce other kinds
        raise CodecError(f"cannot key request of type {type(request).__name__}")
    # the snapshot epoch scopes the key to one database version: results are
    # a function of the *whole* snapshot, so requests decoded against
    # different epochs must never coalesce even when every object argument
    # is untouched (position keys also fold per-object generations, but the
    # epoch covers content changes anywhere in the database)
    return encode_stable_key((database.epoch,) + parts)


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #
def _encode_match(match) -> dict:
    return {
        "index": match.index,
        "probability_lower": match.probability_lower,
        "probability_upper": match.probability_upper,
        "decision": match.decision,
        "iterations": match.iterations,
        "sequence": match.sequence,
    }


def encode_result(result) -> dict:
    """Serialise one engine result into a JSON-safe dict.

    Deliberately omits wall-clock fields (``elapsed_seconds``): payloads
    must be a pure function of the query and the database so coalesced
    duplicates — and replays at any worker count — stay byte-identical.
    """
    if isinstance(result, ThresholdQueryResult):
        return {
            "kind": "threshold",
            "k": result.k,
            "tau": result.tau,
            "pruned": result.pruned,
            "matches": [_encode_match(m) for m in result.matches],
            "undecided": [_encode_match(m) for m in result.undecided],
            "rejected": [_encode_match(m) for m in result.rejected],
        }
    if isinstance(result, RankingResult):
        return {
            "kind": "ranking",
            "ranking": [
                {
                    "index": entry.index,
                    "expected_rank_lower": entry.expected_rank_lower,
                    "expected_rank_upper": entry.expected_rank_upper,
                    "iterations": entry.iterations,
                }
                for entry in result.ranking
            ],
        }
    if isinstance(result, RankDistribution):
        return {
            "kind": "rank_distribution",
            "lower": [float(value) for value in result.lower],
            "upper": [float(value) for value in result.upper],
            "expected_rank_bounds": list(result.expected_rank_bounds()),
            "most_likely_rank": result.most_likely_rank(),
        }
    raise CodecError(f"cannot encode result of type {type(result).__name__}")


def canonical_json(document) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8.

    The byte-identity contract of coalescing and of the determinism gate
    rests on this being a pure function of the document structure.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
