"""Base classes of the uncertainty model.

The paper's model (Definition 1) represents every database object ``o_i`` by a
multi-dimensional probability density function ``f_i`` that is minimally
bounded by a rectangular *uncertainty region* ``R_i``:

* ``f_i(x) = 0`` for every ``x`` outside ``R_i``;
* ``\\int_{R_i} f_i(x) dx = 1`` (existential certainty; the hooks for
  existentially uncertain objects with total mass below 1 are kept in the
  ``existence_probability`` attribute).

Attributes may be arbitrarily correlated, so subclasses describe the joint
distribution directly rather than via per-attribute marginals.  The discrete
uncertainty model (a finite set of weighted alternatives) is the special case
implemented by :class:`~repro.uncertain.discrete.DiscreteObject`.

Every concrete distribution must expose the three primitives the pruning
machinery relies on:

``mass_in(region)``
    exact probability that the object falls inside an axis-aligned region —
    used to weight decomposition partitions (Lemma 1);
``conditional_median(region, axis)``
    the median of the distribution restricted to ``region`` along ``axis`` —
    used by the kd-tree median-split decomposition (Section V), which
    guarantees that each split halves the remaining probability mass;
``sample(n, rng)``
    Monte-Carlo samples — used by the MC comparison partner and by the
    statistical tests.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..geometry import Rectangle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .sharedmem import SharedDatabaseExport


class UncertainObject(abc.ABC):
    """Abstract base class for uncertain (probabilistic) database objects."""

    def __init__(self, label: Optional[str] = None, existence_probability: float = 1.0):
        if not 0.0 < existence_probability <= 1.0:
            raise ValueError(
                f"existence probability must be in (0, 1], got {existence_probability}"
            )
        self.label = label
        self.existence_probability = float(existence_probability)

    # ------------------------------------------------------------------ #
    # abstract protocol
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def mbr(self) -> Rectangle:
        """Minimum bounding rectangle of the uncertainty region."""

    @abc.abstractmethod
    def mass_in(self, region: Rectangle) -> float:
        """Probability that the object lies inside ``region``.

        The returned value is an *absolute* probability, i.e. it already
        accounts for ``existence_probability``.
        """

    @abc.abstractmethod
    def conditional_median(self, region: Rectangle, axis: int) -> float:
        """Median along ``axis`` of the distribution restricted to ``region``.

        Callers guarantee ``mass_in(region) > 0``.
        """

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. samples, returned as an array of shape ``(n, d)``."""

    @abc.abstractmethod
    def mean(self) -> np.ndarray:
        """Expected location of the object (used by expected-distance baselines)."""

    # ------------------------------------------------------------------ #
    # derived helpers
    # ------------------------------------------------------------------ #
    @property
    def dimensions(self) -> int:
        """Number of spatial dimensions."""
        return self.mbr.dimensions

    def decompose(
        self, region: Rectangle, axis: int
    ) -> Optional[tuple[Rectangle, Rectangle, float, float]]:
        """Split the distribution restricted to ``region`` along ``axis``.

        Returns ``(left_region, right_region, left_mass, right_mass)`` or
        ``None`` when the region cannot be split along this axis (zero extent
        or all mass concentrated at a single coordinate).  Subclasses with a
        discrete support override this to split the alternative set exactly
        and to tighten the child regions to the contained alternatives.
        """
        interval = region.intervals[axis]
        if interval.is_degenerate:
            return None
        split_at = self.conditional_median(region, axis)
        if not (interval.lo < split_at < interval.hi):
            return None
        left, right = region.split(axis, split_at)
        left_mass = self.mass_in(left)
        right_mass = self.mass_in(right)
        return left, right, left_mass, right_mass

    def is_certain(self) -> bool:
        """True when the object degenerates to a single certain point."""
        return self.mbr.is_degenerate and self.existence_probability == 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.label if self.label is not None else "?"
        return f"{type(self).__name__}(label={name!r}, mbr={self.mbr.to_array().tolist()})"


@dataclass(frozen=True)
class Insert:
    """Append ``obj`` at the end of the database.

    ``generation`` is normally left ``None`` and assigned by
    :meth:`UncertainDatabase.resolve_mutations`; a resolved mutation carries
    the explicit value so replaying it in another process yields bit-identical
    versioning state (worker caches key columns by ``(position, generation)``).
    """

    obj: UncertainObject
    generation: Optional[int] = None


@dataclass(frozen=True)
class Update:
    """Replace the object at ``position`` with ``obj`` (fresh generation)."""

    position: int
    obj: UncertainObject
    generation: Optional[int] = None


@dataclass(frozen=True)
class Delete:
    """Remove the object at ``position``; later objects shift down by one."""

    position: int


Mutation = Union[Insert, Update, Delete]


class UncertainDatabase:
    """An ordered collection of uncertain objects, versioned by snapshots.

    The database is the unit that queries and the IDCA algorithm operate on.
    Objects are addressed by their integer position; an optional string label
    per object is kept for reporting.

    Each database instance is an immutable *snapshot*: :meth:`insert`,
    :meth:`update`, :meth:`delete` and :meth:`apply` never modify ``self`` but
    return a new snapshot that shares the untouched :class:`UncertainObject`
    instances (and their array payloads) with its parent.  Snapshots carry two
    pieces of versioning state:

    * a database-level **epoch** — incremented once per :meth:`apply` call —
      which layers above use for snapshot visibility ("a query admitted at
      epoch E sees exactly snapshot E");
    * a per-object **generation counter**, globally unique within a snapshot
      lineage, which process-independent object keys fold in so that only
      keys naming a mutated object change identity (see
      :func:`repro.engine.boundstore.stable_object_key`).
    """

    def __init__(self, objects: Sequence[UncertainObject]):
        self._objects = list(objects)
        if not self._objects:
            raise ValueError("an uncertain database must contain at least one object")
        d = self._objects[0].dimensions
        for obj in self._objects:
            if obj.dimensions != d:
                raise ValueError("all objects must share the same dimensionality")
        self._mbr_cache: Optional[np.ndarray] = None
        self._shared_export: Optional["SharedDatabaseExport"] = None
        self._share_lock = threading.Lock()
        self._position_by_id: Optional[dict[int, int]] = None
        # Versioning state.  A freshly constructed database is epoch 0 with
        # per-object generations 0..n-1: generations are unique per object
        # within a lineage, so a (position, generation) pair never aliases two
        # different object contents even after deletes shift positions.
        self._epoch: int = 0
        self._generations: list[int] = list(range(len(self._objects)))
        self._next_generation: int = len(self._objects)

    # ------------------------------------------------------------------ #
    # process transport
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        """Pickle as a lightweight handle while a shared-memory export is
        active; as constructor arguments otherwise.

        With an active export (see :meth:`share_memory`), the pickle stream
        carries only the block name, the object shells and the array
        descriptors — unpickling in another process *maps* the array payload
        instead of copying it.  Without one, the database reduces to its
        objects plus the MBR cache (so workers on the fallback path do not
        re-stack MBRs); the export itself never crosses the boundary.
        """
        export = self._shared_export
        if export is not None and export.active:
            from .sharedmem import attach_shared_database

            return (attach_shared_database, (export.handle,))
        return (
            _rebuild_database,
            (
                type(self),
                tuple(self._objects),
                self._mbr_cache,
                self._epoch,
                tuple(self._generations),
                self._next_generation,
            ),
        )

    def share_memory(self) -> "SharedDatabaseExport":
        """Move the database's array payload into a shared-memory block.

        Returns the active :class:`~repro.uncertain.sharedmem.SharedDatabaseExport`
        (creating it on first call; repeated calls return the same export
        while it is active).  While active, pickling this database — e.g.
        shipping an engine to worker processes — produces a small handle that
        workers attach instead of unpickling a full copy.  Consumers bracket
        their use with ``export.acquire()`` / ``export.release()``; the last
        release unlinks the block.  Raises ``RuntimeError`` when shared
        memory is unavailable on this platform (see
        :func:`~repro.uncertain.sharedmem.shared_memory_available`).
        """
        from .sharedmem import SharedDatabaseExport

        with self._share_lock:
            if self._shared_export is not None and self._shared_export.active:
                return self._shared_export
            export = SharedDatabaseExport(self)
            self._shared_export = export
            return export

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._objects)

    def __getitem__(self, index: int) -> UncertainObject:
        return self._objects[index]

    def __iter__(self):
        return iter(self._objects)

    @property
    def objects(self) -> list[UncertainObject]:
        """The underlying list of objects (do not mutate)."""
        return self._objects

    def position_of(self, obj: UncertainObject) -> Optional[int]:
        """Database position of ``obj``, or ``None`` for non-members — O(1).

        Membership is by identity (the same semantics the engine's caches
        use); the identity map is built once per snapshot and stays valid
        because snapshots are immutable — :meth:`apply` hands the *new*
        snapshot a maintained copy instead of re-scanning.  Stable object
        keys use positions as their process-independent part — positions
        are identical in every process that received this database, whether
        it was pickled or mapped through shared memory.
        """
        if self._position_by_id is None:
            self._position_by_id = {
                id(member): index for index, member in enumerate(self._objects)
            }
        return self._position_by_id.get(id(obj))

    # ------------------------------------------------------------------ #
    # versioning
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Snapshot epoch: 0 for a fresh database, +1 per :meth:`apply`."""
        return self._epoch

    def generations(self) -> tuple[int, ...]:
        """Per-object generation counters, aligned with positions."""
        return tuple(self._generations)

    def generation_of(self, position: int) -> int:
        """Generation counter of the object at ``position``."""
        return self._generations[position]

    def resolve_mutations(self, mutations: Sequence[Mutation]) -> tuple[Mutation, ...]:
        """Assign explicit generation counters to a mutation batch.

        Returns a tuple of mutations where every :class:`Insert` /
        :class:`Update` carries a concrete ``generation``.  Applying a
        *resolved* batch is fully deterministic, so the service can resolve
        once in the parent and replay the identical batch in every worker —
        generations (and therefore the shared-store keys derived from them)
        agree bit-for-bit across processes.  Positions inside the batch are
        interpreted sequentially: each mutation addresses the database state
        produced by the mutations before it in the list.
        """
        resolved: list[Mutation] = []
        clock = self._next_generation
        for mutation in mutations:
            if isinstance(mutation, Insert):
                if mutation.generation is None:
                    mutation = Insert(mutation.obj, clock)
                clock = max(clock, mutation.generation + 1)
            elif isinstance(mutation, Update):
                if mutation.generation is None:
                    mutation = Update(mutation.position, mutation.obj, clock)
                clock = max(clock, mutation.generation + 1)
            elif not isinstance(mutation, Delete):
                raise TypeError(f"not a mutation: {mutation!r}")
            resolved.append(mutation)
        return tuple(resolved)

    def apply(self, mutations: Sequence[Mutation]) -> "UncertainDatabase":
        """Apply a mutation batch, returning the next snapshot (epoch + 1).

        The returned database shares every untouched object (and its array
        payload) with ``self``; only the touched positions change identity.
        ``self`` is left fully usable — in-flight queries against the old
        snapshot keep seeing exactly the old content.  Mutations are applied
        sequentially, so positions address the intermediate state produced by
        the earlier entries of the batch.  Raises ``IndexError`` for
        out-of-range positions and ``ValueError`` when the batch would leave
        the database empty or mix dimensionalities.
        """
        resolved = self.resolve_mutations(mutations)
        objects = list(self._objects)
        generations = list(self._generations)
        next_generation = self._next_generation
        d = self.dimensions
        for mutation in resolved:
            if isinstance(mutation, Delete):
                if not 0 <= mutation.position < len(objects):
                    raise IndexError(
                        f"delete position {mutation.position} out of range"
                    )
                del objects[mutation.position]
                del generations[mutation.position]
                continue
            if mutation.obj.dimensions != d:
                raise ValueError("all objects must share the same dimensionality")
            if isinstance(mutation, Insert):
                objects.append(mutation.obj)
                generations.append(mutation.generation)
            else:  # Update
                if not 0 <= mutation.position < len(objects):
                    raise IndexError(
                        f"update position {mutation.position} out of range"
                    )
                objects[mutation.position] = mutation.obj
                generations[mutation.position] = mutation.generation
            next_generation = max(next_generation, mutation.generation + 1)
        if not objects:
            raise ValueError("an uncertain database must contain at least one object")

        snapshot = UncertainDatabase.__new__(UncertainDatabase)
        snapshot._objects = objects
        snapshot._shared_export = None
        snapshot._share_lock = threading.Lock()
        snapshot._epoch = self._epoch + 1
        snapshot._generations = generations
        snapshot._next_generation = next_generation
        # Maintain the O(1) position index and the stacked-MBR cache
        # incrementally: untouched objects reuse their cached MBR row.
        snapshot._position_by_id = {id(obj): i for i, obj in enumerate(objects)}
        snapshot._mbr_cache = None
        if self._mbr_cache is not None:
            old_rows = self.position_of  # identity → old position, O(1) each
            rows = np.empty((len(objects), d, 2), dtype=float)
            for i, obj in enumerate(objects):
                j = old_rows(obj)
                if j is not None:
                    rows[i] = self._mbr_cache[j]
                else:
                    mbr = obj.mbr
                    rows[i, :, 0] = mbr.lows
                    rows[i, :, 1] = mbr.highs
            rows.flags.writeable = False
            snapshot._mbr_cache = rows
        return snapshot

    def insert(self, obj: UncertainObject) -> "UncertainDatabase":
        """Snapshot with ``obj`` appended (see :meth:`apply`)."""
        return self.apply([Insert(obj)])

    def update(self, position: int, obj: UncertainObject) -> "UncertainDatabase":
        """Snapshot with the object at ``position`` replaced (see :meth:`apply`)."""
        return self.apply([Update(position, obj)])

    def delete(self, position: int) -> "UncertainDatabase":
        """Snapshot with the object at ``position`` removed (see :meth:`apply`)."""
        return self.apply([Delete(position)])

    @property
    def dimensions(self) -> int:
        """Dimensionality shared by all objects."""
        return self._objects[0].dimensions

    # ------------------------------------------------------------------ #
    # bulk geometry
    # ------------------------------------------------------------------ #
    def mbrs(self) -> np.ndarray:
        """All object MBRs stacked into an array of shape ``(n, d, 2)``.

        The array is cached per snapshot; :meth:`apply` patches the cache
        incrementally (touched rows only) instead of re-stacking.  The
        returned array is read-only — the cache is shared between every
        caller (and between snapshots that reuse rows), so an in-place
        write would silently corrupt the snapshot for everyone else.
        """
        if self._mbr_cache is None:
            n, d = len(self._objects), self.dimensions
            arr = np.empty((n, d, 2), dtype=float)
            for i, obj in enumerate(self._objects):
                mbr = obj.mbr
                arr[i, :, 0] = mbr.lows
                arr[i, :, 1] = mbr.highs
            arr.flags.writeable = False
            self._mbr_cache = arr
        return self._mbr_cache

    def labels(self) -> list[str]:
        """Per-object labels, synthesising ``obj-<i>`` when missing."""
        return [
            obj.label if obj.label is not None else f"obj-{i}"
            for i, obj in enumerate(self._objects)
        ]


def _rebuild_database(cls, objects, mbr_cache, epoch=0, generations=None, next_generation=None):
    """Unpickle target of the plain (non-shared-memory) database reduce."""
    database = cls(list(objects))
    database._mbr_cache = mbr_cache
    database._epoch = epoch
    if generations is not None:
        database._generations = list(generations)
    if next_generation is not None:
        database._next_generation = next_generation
    return database
