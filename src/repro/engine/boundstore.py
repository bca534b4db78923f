"""Stable pair-bounds keys and the warm-start file.

The engine memoises the domination-bound matrix columns the batched kernel
produces per process (``engine/context.py``), keyed by process-unique tree
tokens.  This module holds what lets a column outlive its process:

* **Stable keys.**  :func:`stable_object_key` translates each participating
  object into a process-independent identity — its database position and
  generation for members, a content digest for ad-hoc query objects — and
  :func:`encode_stable_key` turns a whole memo key into bytes.  A column is
  a deterministic function of its key, so serving it from anywhere is
  bit-identical to recomputing it.  The gateway builds its request keys from
  the same identities.
* **The warm-start file.**  A :class:`~repro.engine.service.QueryService`
  given a ``bounds_store_path`` directory gives every worker lane one
  append-only file there.  A lane appends each column it computes to its
  own file — one writer per file, so no lock — and, when it spawns, loads
  the validated records of every lane's file into its local memo.  A
  restarted service, or a lane respawned after a crash, therefore starts
  with the columns its predecessors computed.

File layout (little-endian)::

    header   magic "RWS1" | u32 version | 16 B database digest | 16 B config fingerprint
    record   u32 key length | u32 pairs | u32 CRC-32 | key | f8 lower[pairs] | f8 upper[pairs]

The CRC covers the two lengths, the key and both columns.

The header is a handshake: a file whose header does not match the expected
magic, version, :func:`database_digest` and :func:`config_fingerprint` is
rejected whole and rebuilt empty.  The loader serves only records whose
frame and CRC validate and stops at the first one that does not, so a torn
tail (a lane killed mid-append) or a scribbled byte costs the records from
there on, never a wrong column.  A lane truncates a torn tail off its own
file before appending.  An append that would take a file past
:data:`MAX_FILE_BYTES` is skipped.  Appends are unbuffered writes, so they survive the
death of the writing process; a host crash may lose the unflushed tail,
which the loader then discards.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle
import struct
import weakref
import zlib
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..uncertain import UncertainDatabase, UncertainObject

__all__ = [
    "MAX_FILE_BYTES",
    "WarmStartFile",
    "config_fingerprint",
    "database_digest",
    "encode_stable_key",
    "inspect_warm_start",
    "lane_file",
    "read_warm_file",
    "stable_object_key",
]

#: Size cap of one lane's warm-start file; appends beyond it are skipped.
MAX_FILE_BYTES = 16 << 20

_MAGIC = b"RWS1"
_VERSION = 1
_HEADER = struct.Struct("<4sI16s16s")
_FRAME = struct.Struct("<III")


# --------------------------------------------------------------------- #
# stable cross-process keys
# --------------------------------------------------------------------- #
def stable_object_key(database: "UncertainDatabase", obj: "UncertainObject") -> tuple:
    """Process-independent identity of ``obj`` relative to ``database``.

    Database members key by position *and generation*
    (``("db", index, generation)``) — identical in every process that holds
    the same snapshot, including workers that mapped it through shared
    memory or advanced it by replaying mutation deltas.  A mutated object
    gets a fresh generation, so the columns of its old content become
    unreachable while untouched objects keep their keys.  Ad-hoc objects
    (e.g. query objects shipped inside requests) key by a content digest of
    their pickle (``("pickle", hexdigest)``): a worker's unpickled copy
    digests to the same value as the parent's original.  The digest is
    memoised in a weak side table — never written onto the object, which
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
    """Deterministic byte encoding of a stable memo key.

    The key is a nested tuple of strings, ints and floats; ``repr`` is
    deterministic for those across processes of the same interpreter, and
    the result is only ever compared for equality.
    """
    return repr(key).encode()


def database_digest(database: "UncertainDatabase") -> bytes:
    """16-byte content digest of a database snapshot's member identities.

    Hashes every member's generation and pickled content in position order
    — exactly the inputs ``("db", position, generation)`` keys depend on —
    so two databases agree on the digest iff columns computed against one
    are valid for the other.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(struct.pack("<Q", len(database)))
    for position in range(len(database)):
        hasher.update(struct.pack("<q", database.generation_of(position)))
        hasher.update(pickle.dumps(database[position], protocol=4))
    return hasher.digest()


def config_fingerprint(axis_policy, key_schema: str = "pb1") -> bytes:
    """16-byte fingerprint of everything stable keys depend on besides data.

    Covers the key-schema version and the context's ``axis_policy`` (the
    partition arrays — and therefore every column — depend on it).  A
    warm-start file whose fingerprint differs was written under an
    incompatible configuration and is rebuilt empty.
    """
    return hashlib.blake2b(
        repr((key_schema, axis_policy)).encode(), digest_size=16
    ).digest()


# --------------------------------------------------------------------- #
# the warm-start file
# --------------------------------------------------------------------- #
def lane_file(directory: str, lane: int) -> str:
    """Path of worker lane ``lane``'s warm-start file inside ``directory``."""
    return os.path.join(directory, f"lane-{lane}.warm")


def _lane_files(directory: str) -> list[str]:
    return sorted(glob.glob(os.path.join(glob.escape(directory), "lane-*.warm")))


def read_warm_file(
    path: str, digest: bytes, config: bytes
) -> tuple[list[tuple[bytes, np.ndarray]], int, Optional[str]]:
    """Load the validated records of one warm-start file.

    Returns ``(records, end, rejected)``: the ``(key, column)`` records —
    ``column`` a private ``(2, pairs)`` array, rows lower and upper — in
    file order up to the first one that fails its frame or CRC
    check, the byte offset just past the last of them, and ``None`` — or,
    when the header fails the handshake, no records, ``end == 0`` and the
    reason (``"truncated-header"``, ``"bad-magic"``, ``"version-mismatch"``,
    ``"digest-mismatch"`` or ``"config-mismatch"``).  A missing file reads
    as empty and not rejected.  At most :data:`MAX_FILE_BYTES` are read.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_FILE_BYTES)
    except FileNotFoundError:
        return [], 0, None
    if len(data) < _HEADER.size:
        return [], 0, "truncated-header"
    magic, version, file_digest, file_config = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        return [], 0, "bad-magic"
    if version != _VERSION:
        return [], 0, "version-mismatch"
    if file_digest != digest:
        return [], 0, "digest-mismatch"
    if file_config != config:
        return [], 0, "config-mismatch"
    records = []
    offset = _HEADER.size
    while offset + _FRAME.size <= len(data):
        key_len, pairs, crc = _FRAME.unpack_from(data, offset)
        body = offset + _FRAME.size
        end = body + key_len + 16 * pairs
        if end > len(data):
            break
        if zlib.crc32(data[body:end], zlib.crc32(data[offset : offset + 8])) != crc:
            break
        key = data[body : body + key_len]
        column = np.frombuffer(data, dtype="<f8", count=2 * pairs, offset=body + key_len)
        records.append((key, column.reshape(2, pairs).astype(float)))
        offset = end
    return records, offset, None


def _record(key: bytes, column: np.ndarray) -> bytes:
    pairs = int(column.shape[1])
    lengths = struct.pack("<II", len(key), pairs)
    # row-major bytes of the (2, pairs) column: lower, then upper
    body = key + np.ascontiguousarray(column, dtype="<f8").tobytes()
    return lengths + struct.pack("<I", zlib.crc32(body, zlib.crc32(lengths))) + body


class WarmStartFile:
    """One worker lane's warm-start state: loaded columns plus its own file.

    Construction loads the validated records of every lane's file in
    ``directory`` into :attr:`columns` (the first copy of a key wins), then
    opens this lane's file for appending: a file that failed the handshake,
    or does not exist yet, is rewritten with a fresh header, and a torn
    tail is truncated away so later appends stay reachable.  Only this
    lane ever writes its file.

    :meth:`append` writes a column once per key until the file reaches
    :data:`MAX_FILE_BYTES`; an ``OSError`` while writing (e.g. a full disk)
    stops appending for the rest of the lane's life.  Loading and appending
    never change results: every record is a column some lane computed for
    the same stable key.
    """

    def __init__(self, directory: str, lane: int, digest: bytes, config: bytes):
        #: Columns by encoded stable key: everything loaded plus appended.
        self.columns: dict[bytes, np.ndarray] = {}
        own = lane_file(directory, lane)
        own_end = 0  # also what a rejected or missing file reads as
        for path in _lane_files(directory):
            records, end, _rejected = read_warm_file(path, digest, config)
            for key, column in records:
                self.columns.setdefault(key, column)
            if path == own:
                own_end = end
        self._file = open(own, "ab+", buffering=0)
        if own_end == 0:
            self._file.truncate(0)
            self._file.write(_HEADER.pack(_MAGIC, _VERSION, digest, config))
            own_end = _HEADER.size
        else:
            self._file.truncate(own_end)
        self._size = own_end

    def append(self, key: bytes, column: np.ndarray) -> bool:
        """Persist one freshly computed ``(2, pairs)`` column.

        Returns whether it was written.
        """
        if self._file is None or key in self.columns:
            return False
        record = _record(key, column)
        if self._size + len(record) > MAX_FILE_BYTES:
            return False
        try:
            self._file.write(record)
        except OSError:
            self.close()
            return False
        self._size += len(record)
        self.columns[key] = column
        return True

    def close(self) -> None:
        """Stop appending and close the file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None


def inspect_warm_start(directory: str, digest: bytes, config: bytes) -> dict:
    """Parent-side summary of the warm-start files in ``directory``.

    ``warm_started`` says whether at least one file passed the handshake
    with records to serve, ``rejected_store`` names the first rejection
    reason found (``None`` when every file passed), and ``records`` counts
    the validated records across all files.
    """
    loaded = [read_warm_file(path, digest, config) for path in _lane_files(directory)]
    reasons = [rejected for _records, _end, rejected in loaded if rejected]
    total = sum(len(records) for records, _end, _rejected in loaded)
    return {
        "path": directory,
        "warm_started": total > 0,
        "rejected_store": reasons[0] if reasons else None,
        "records": total,
    }
