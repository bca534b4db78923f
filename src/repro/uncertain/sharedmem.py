"""Shared-memory dataset transport for worker processes.

Shipping an :class:`~repro.uncertain.base.UncertainDatabase` to a worker
process by plain pickling copies every instance array (discrete alternative
sets, histogram bins, the MBR cache) once *per worker*.  For the long-lived
service front-end that cost is pure waste: the arrays are immutable after
construction, so every worker can **map** one shared copy instead.

The transport splits the database into two parts:

* the **array payload** — every numeric :class:`numpy.ndarray` of at least
  :data:`MIN_SHARED_NBYTES` bytes reachable from the database is copied once
  into a single :mod:`multiprocessing.shared_memory` block, laid out with
  aligned offsets;
* the **shell** — a pickle of the database in which each extracted array is
  replaced by a persistent-id token ``("repro-shm-array", index)``.  The
  shell holds only object scaffolding (class names, scalars, small arrays)
  and is typically a few kilobytes regardless of database size.

A :class:`SharedDatabaseHandle` (block name + shell + array descriptors) is
what crosses the process boundary; :func:`attach_shared_database` rebuilds
the database in the receiving process with every extracted array backed by
the mapped block — read-only, so a worker cannot corrupt its siblings.
Attachment is memoised per process and per block, so every engine unpickled
in a worker shares one database instance.

Ownership and unlink rules (documented in ``docs/architecture.md``):

* the process that created the export owns the block and is the only one
  that may unlink it;
* consumers (e.g. a :class:`~repro.engine.service.QueryService`) bracket
  their use with :meth:`SharedDatabaseExport.acquire` /
  :meth:`~SharedDatabaseExport.release`; the drop to zero acquisitions
  closes and unlinks the block;
* a :mod:`weakref` finalizer backs the explicit paths, so an export that is
  garbage-collected or alive at interpreter exit still unlinks its block;
* attaching processes never unlink, and they leave the block's
  :mod:`multiprocessing.resource_tracker` registration alone: pool workers
  share the owner's tracker under every start method, so the owner's
  registration is what lets the tracker unlink the block should the owner
  crash.

A service owns exactly one block, its base export.  Mutations reach the
workers as a :class:`MutationDelta`, a plain pickle of the touched objects.

Platforms without ``multiprocessing.shared_memory`` (or with the
``REPRO_DISABLE_SHARED_MEMORY`` environment variable set) fall back to plain
pickling transparently: :func:`shared_memory_available` reports the
capability and ``UncertainDatabase.__reduce__`` only takes the handle path
while an export is active.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .base import UncertainDatabase

try:  # pragma: no cover - the import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _shared_memory = None

__all__ = [
    "MIN_SHARED_NBYTES",
    "MutationDelta",
    "SharedDatabaseExport",
    "SharedDatabaseHandle",
    "attach_shared_database",
    "database_transport",
    "shared_memory_available",
]

#: Arrays below this many bytes stay in the shell pickle: a descriptor plus
#: alignment padding would cost more than the bytes it saves.
MIN_SHARED_NBYTES = 256

#: Offsets into the shared block are aligned to this many bytes.
_ALIGNMENT = 64

#: Environment kill-switch: any non-empty value forces the pickling fallback.
DISABLE_ENV = "REPRO_DISABLE_SHARED_MEMORY"

_ARRAY_TAG = "repro-shm-array"

_block_counter = itertools.count()


def shared_memory_available() -> bool:
    """Whether shared-memory dataset transport can be used on this platform.

    ``False`` when :mod:`multiprocessing.shared_memory` is missing or when
    the ``REPRO_DISABLE_SHARED_MEMORY`` environment variable is set (the
    tested fallback path); consumers must then ship databases by plain
    pickling.
    """
    if _shared_memory is None:
        return False
    if os.environ.get(DISABLE_ENV):
        return False
    return True


def _next_block_name() -> str:
    """A process-unique shared-memory block name (short, for macOS limits)."""
    return f"repro_{os.getpid()}_{next(_block_counter)}"


def _extractable(obj) -> bool:
    """Whether an object is an array worth moving into the shared block."""
    return (
        isinstance(obj, np.ndarray)
        and not obj.dtype.hasobject
        and obj.dtype.names is None
        and obj.nbytes >= MIN_SHARED_NBYTES
    )


class _ArrayExtractor(pickle.Pickler):
    """Pickler that siphons large numeric arrays out of the stream.

    Every qualifying array is appended to ``arrays`` (de-duplicated by
    identity so shared references stay shared after attach) and replaced in
    the pickle stream by a persistent id naming its position.
    """

    def __init__(self, file, arrays: list[np.ndarray]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays
        self._index_by_id: dict[int, int] = {}

    def persistent_id(self, obj):
        """Divert qualifying arrays to the side table (pickle hook)."""
        if not _extractable(obj):
            return None
        index = self._index_by_id.get(id(obj))
        if index is None:
            index = len(self._arrays)
            self._arrays.append(np.ascontiguousarray(obj))
            self._index_by_id[id(obj)] = index
        return (_ARRAY_TAG, index)


class _ShellUnpickler(pickle.Unpickler):
    """Unpickler that resolves persistent ids against the mapped arrays."""

    def __init__(self, file, arrays: list[np.ndarray]):
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid):
        """Swap a persistent id back for its shared-memory array view."""
        tag, index = pid
        if tag != _ARRAY_TAG:  # pragma: no cover - foreign pickle streams
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        return self._arrays[index]


@dataclass(frozen=True)
class SharedDatabaseHandle:
    """What crosses the process boundary instead of the database.

    The handle is small (shell pickle + one descriptor per extracted array)
    and only valid while the owning :class:`SharedDatabaseExport` keeps the
    block linked — it is a *transport* token for worker processes, not a
    persistence format.

    Attributes
    ----------
    shm_name:
        Name of the shared-memory block holding the array payload.
    shell:
        Pickle of the database with arrays replaced by persistent ids.
    descriptors:
        One ``(offset, shape, dtype_str)`` triple per extracted array, in
        persistent-id order.
    """

    shm_name: str
    shell: bytes
    descriptors: tuple[tuple[int, tuple[int, ...], str], ...]

    def attach(self) -> "UncertainDatabase":
        """Rebuild the database in this process, mapping the shared block."""
        return attach_shared_database(self)


def _layout(arrays: list[np.ndarray]) -> tuple[list[int], int]:
    """Aligned offsets for the arrays and the total block size."""
    offsets: list[int] = []
    total = 0
    for arr in arrays:
        total = -(-total // _ALIGNMENT) * _ALIGNMENT
        offsets.append(total)
        total += arr.nbytes
    return offsets, total


def _cleanup_block(shm) -> None:
    """Best-effort close + unlink used by finalizers and error paths."""
    try:
        shm.close()
    except Exception:  # pragma: no cover - nothing left to release
        pass
    try:
        shm.unlink()
    except Exception:  # already unlinked (or the platform removed it)
        pass


class SharedDatabaseExport:
    """Parent-side owner of one shared-memory copy of a database.

    Created through :meth:`UncertainDatabase.share_memory`.  While the
    export is :attr:`active`, pickling the database anywhere in the owning
    process produces the lightweight :class:`SharedDatabaseHandle` instead
    of the full object graph — that is the entire integration surface; the
    parallel executor and the query service need no special cases.

    Lifetime is reference-counted: every consumer brackets its use with
    :meth:`acquire`/:meth:`release`, and the drop to zero acquisitions (or
    an explicit :meth:`close`, or garbage collection / interpreter exit via
    the finalizer) closes and unlinks the block.  The export is also a
    context manager — ``with database.share_memory():`` — for script use.
    """

    def __init__(self, database: "UncertainDatabase"):
        if not shared_memory_available():
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable "
                f"(or disabled via {DISABLE_ENV}); use plain pickling"
            )
        database.mbrs()  # populate the MBR cache so workers map it too
        arrays: list[np.ndarray] = []
        buffer = io.BytesIO()
        _ArrayExtractor(buffer, arrays).dump(database)
        offsets, total = _layout(arrays)
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(total, 8), name=_next_block_name()
        )
        try:
            for arr, offset in zip(arrays, offsets):
                np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=self._shm.buf, offset=offset
                )[...] = arr
        except BaseException:  # pragma: no cover - copy failures are fatal
            _cleanup_block(self._shm)
            raise
        self.handle = SharedDatabaseHandle(
            shm_name=self._shm.name,
            shell=buffer.getvalue(),
            descriptors=tuple(
                (offset, arr.shape, arr.dtype.str)
                for arr, offset in zip(arrays, offsets)
            ),
        )
        self.database = database
        #: Bytes of array payload moved into the shared block.
        self.payload_nbytes = total
        #: Number of arrays extracted from the pickle stream.
        self.num_arrays = len(arrays)
        self._acquisitions = 0
        self._lock = threading.Lock()
        self._active = True
        self._finalizer = weakref.finalize(self, _cleanup_block, self._shm)

    # ------------------------------------------------------------------ #
    # lifetime
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """Whether the block is still linked and the handle path is taken."""
        return self._active

    def acquire(self) -> "SharedDatabaseExport":
        """Register a consumer; pair every call with :meth:`release`."""
        with self._lock:
            if not self._active:
                raise RuntimeError("the shared-memory export is already closed")
            self._acquisitions += 1
        return self

    def release(self) -> None:
        """Drop one consumer; the last release closes and unlinks the block."""
        close = False
        with self._lock:
            self._acquisitions -= 1
            close = self._acquisitions <= 0
        if close:
            self.close()

    def close(self) -> None:
        """Unlink the block and detach from the database (idempotent).

        After closing, pickling the database falls back to the plain path
        and previously shipped handles can no longer be attached by *new*
        processes; existing attachments keep their mappings until they exit
        (POSIX keeps unlinked segments alive while mapped).
        """
        with self._lock:
            if not self._active:
                return
            self._active = False
        if getattr(self.database, "_shared_export", None) is self:
            self.database._shared_export = None
        self._finalizer.detach()
        _cleanup_block(self._shm)

    def __enter__(self) -> "SharedDatabaseExport":
        """Context-manager use counts as one acquisition."""
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Release the context-manager acquisition."""
        self.release()


# One attachment per block and process: every engine/context unpickled in a
# worker resolves to the same database instance, so worker-local caches keyed
# by object identity keep working across chunks.
_ATTACHMENTS: dict[str, tuple[object, "UncertainDatabase"]] = {}


def attach_shared_database(handle: SharedDatabaseHandle) -> "UncertainDatabase":
    """Rebuild a database from its handle, mapping — not copying — the arrays.

    The target of ``UncertainDatabase.__reduce__`` on the shared-memory
    path, invoked by ``pickle.loads`` inside worker processes.  Array views
    are read-only; mutating a mapped database is a bug, never a data race.
    Memoised per process, so repeated unpickles are effectively free.
    """
    if _shared_memory is None:  # pragma: no cover - handle from another OS
        raise RuntimeError(
            "cannot attach a shared-memory database: "
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    cached = _ATTACHMENTS.get(handle.shm_name)
    if cached is not None:
        return cached[1]
    try:
        # Attaching registers the name with the resource tracker.  Pool
        # workers share their parent's tracker under every start method
        # (``fork`` inherits it, ``spawn`` and ``forkserver`` children are
        # handed its fd) and the tracker keeps a set of names, so the
        # registration is a no-op.  It must not be undone: that would drop
        # the owner's registration, which the owner's unlink and the
        # tracker's crash cleanup both rely on.
        shm = _shared_memory.SharedMemory(name=handle.shm_name)
    except FileNotFoundError as error:
        raise RuntimeError(
            f"shared-memory block {handle.shm_name!r} no longer exists — "
            "handles are transport tokens, only valid while the owning "
            "SharedDatabaseExport is active"
        ) from error
    arrays: list[np.ndarray] = []
    for offset, shape, dtype in handle.descriptors:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        arrays.append(view)
    database = _ShellUnpickler(io.BytesIO(handle.shell), arrays).load()
    database._shm_attachment = shm
    database._shm_name = handle.shm_name
    _ATTACHMENTS[handle.shm_name] = (shm, database)
    return database


@dataclass(frozen=True)
class MutationDelta:
    """A mutation batch in transport form: touched objects only.

    Shipping the batch — rather than re-exporting the whole database block —
    is what keeps mutations cheap on the worker path: the payload scales with
    the number of touched objects, not with the database.  ``shell`` is a
    plain pickle of the *resolved* mutation tuple (explicit generations, see
    :meth:`UncertainDatabase.resolve_mutations`).  Replaying a delta is
    idempotent by epoch: it applies only to a database at ``base_epoch`` and
    advances it to ``new_epoch``, so a respawned worker that already
    replayed it skips it.
    """

    base_epoch: int
    new_epoch: int
    shell: bytes


def database_transport(database: "UncertainDatabase") -> str:
    """How this process obtained ``database``: ``"shared_memory"`` when it
    was rebuilt from a handle with mapped arrays, ``"pickle"`` otherwise
    (including the original instance in the owning process)."""
    if getattr(database, "_shm_attachment", None) is not None:
        return "shared_memory"
    return "pickle"
