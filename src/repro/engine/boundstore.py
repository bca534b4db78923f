"""Stable, process-independent object keys.

The engine memoises the domination-bound matrix columns the batched kernel
produces per process (``engine/context.py``), keyed by process-unique tree
tokens; nothing of that memo leaves its process.  Some keys must instead
mean the same thing in every process: the gateway's request keys
(``gateway/codec.py``) identify a query by the objects it names, whichever
process decodes it.  :func:`stable_object_key` gives each object such an
identity — its database position and generation for members, a content
digest for ad-hoc query objects — and :func:`encode_stable_key` turns a
whole key into bytes.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..uncertain import UncertainDatabase, UncertainObject

__all__ = ["encode_stable_key", "stable_object_key"]


def stable_object_key(database: "UncertainDatabase", obj: "UncertainObject") -> tuple:
    """Process-independent identity of ``obj`` relative to ``database``.

    Database members key by position *and generation*
    (``("db", index, generation)``) — identical in every process that holds
    the same snapshot, including worker lanes that advanced it by applying
    mutation deltas.  A mutated object gets a fresh generation, so keys that
    named its old content become unreachable while untouched objects keep
    theirs.  Ad-hoc objects (e.g. query objects shipped inside requests)
    key by a content digest of their pickle (``("pickle", hexdigest)``): an
    unpickled copy digests to the same value as the original.  The digest
    is memoised in a weak side table — never written onto the object, which
    would change its future pickles and therefore the digests other
    processes compute.
    """
    position = database.position_of(obj)
    if position is not None:
        return ("db", position, database.generation_of(position))
    digest = _DIGESTS.get(obj)
    if digest is None:
        digest = hashlib.blake2b(
            pickle.dumps(obj, protocol=4), digest_size=16
        ).hexdigest()
        _DIGESTS[obj] = digest
    return ("pickle", digest)


#: Content digests of ad-hoc objects, keyed weakly by the object itself so
#: transient query objects do not accumulate.
_DIGESTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def encode_stable_key(key: tuple) -> bytes:
    """Deterministic byte encoding of a stable key.

    The key is a nested tuple of strings, ints and floats; ``repr`` is
    deterministic for those across processes of the same interpreter, and
    the result is only ever compared for equality.
    """
    return repr(key).encode()
