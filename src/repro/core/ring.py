"""Zero-copy output ring: shared-memory slots instead of pickled payloads.

The parallel result path — fleet members, which generate every daemon
chunk and every :class:`~repro.gpu.multigpu.MultiDeviceGenerator`
partition — used to ship every generated chunk back to the parent as
message *payload bytes*:
pickled into a pipe, copied into the queue buffer, copied back out,
unpickled.  For large chunks the serialisation round-trip costs more
than generating the bytes did.

:class:`SharedMemoryRing` replaces that with fixed-size slots in one
shared mapping.  The controller creates the ring and hands each
dispatched job a slot index; the worker attaches by name
(:func:`attach_ring`), writes its payload straight into the slot, and
returns a :class:`RingSlotRef` — two small ints and a string — through
the existing message plane.  The controller reads the bytes back out of
its own mapping.  Payload bytes cross the process boundary **zero**
times through the pickle machinery.

Integrity under concurrency is delegated to the receipt layer rather
than locks: slot ownership follows job assignment (one writer per slot
at a time in the happy path), and if an evicted-but-unkilled worker ever
races a reassigned slot, the torn bytes fail the existing CRC receipt
check and the chunk is retried — the same path a corrupted pickled
payload would take.  The fault drills in ``tests/test_ring.py`` exercise
exactly that.

Lifecycle depends on the backing, which :meth:`SharedMemoryRing.try_create`
picks from the workers' start method:

* **fork** — one anonymous ``MAP_SHARED`` :class:`mmap.mmap`.  The ring
  registers itself in a module-level table that forked children
  inherit, and :func:`attach_ring` looks names up there first, so a
  worker writes through the very mapping its parent created.  The ring
  must therefore exist *before* the workers fork (a fleet that forks a
  replacement later forks the parent, which still holds the mapping).
  There is no segment name to unlink and no ``resource_tracker``
  process; the memory goes away with the last process that maps it.
  :meth:`~SharedMemoryRing.close` only unmaps.
* **spawn** (and any other start method) — a named
  ``multiprocessing.shared_memory`` segment, the only backing a fresh
  interpreter can attach to.  The creating process owns the segment and
  unlinks it on :meth:`~SharedMemoryRing.close` (also covered by
  ``with``).  If the owner dies without closing — SIGTERM, SIGKILL, a
  crash — Python's ``resource_tracker`` (a separate watchdog process)
  unlinks it, so a named ring cannot leak past its owner.  Attachers
  only ever ``close`` their mapping; they never unlink.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing as mp
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro import obs
from repro.errors import SpecificationError

__all__ = [
    "RING_MIN_BYTES",
    "RingSlotRef",
    "SharedMemoryRing",
    "attach_ring",
    "resolve_start_method",
]

#: A payload larger than this crosses in a ring slot.  Up to it,
#: ``multiprocessing.connection`` sends a pickled message's header and
#: body in one write, and a slot ref's pickle plus the parent's copy out
#: cost more than the copy they save.
RING_MIN_BYTES = 16 * 1024


def resolve_start_method(mp_context: str | None) -> str:
    """*mp_context*, or where it is ``None`` the default every process
    layer uses: ``fork`` where available (a spawned worker re-imports the
    stack, a fixed ~second per process), else ``spawn``."""
    if mp_context is not None:
        return mp_context
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class RingSlotRef:
    """A picklable pointer to payload bytes parked in a ring slot."""

    ring: str  #: ring name (a segment name, or a fork ring's table key)
    slot: int
    length: int


class SharedMemoryRing:
    """Fixed-slot shared-memory buffer for cross-process result passing.

    Parameters
    ----------
    slot_bytes / slots:
        Slot capacity and count.  Size the pool to the maximum number of
        in-flight results (the controller enforces single-writer slots
        by tying a slot to a job for the job's lifetime).
    name:
        Attach to an existing named segment instead of creating one.
        The creator owns (and eventually unlinks) the segment; attachers
        share the mapping read-write but never unlink.
    anonymous:
        Create an anonymous mapping for fork-started workers instead of
        a named segment (see the module notes; :meth:`try_create` picks
        this for ``fork``).
    """

    def __init__(
        self, slot_bytes: int, slots: int, *, name: str | None = None, anonymous: bool = False
    ) -> None:
        if slot_bytes <= 0 or slots <= 0:
            raise SpecificationError("slot_bytes and slots must be positive")
        self.slot_bytes = int(slot_bytes)
        self.slots = int(slots)
        self.owner = name is None
        size = self.slot_bytes * self.slots
        self.shm: shared_memory.SharedMemory | None = None
        self._map: mmap.mmap | None = None
        if anonymous:
            self._map = mmap.mmap(-1, size)  # MAP_SHARED: forked children see writes
            self._name = f"repro_ring_{os.getpid()}_{next(_ANON_SEQ)}"
            self.buf = memoryview(self._map)
            _ANONYMOUS[self._name] = self
        else:
            if self.owner:
                self.shm = shared_memory.SharedMemory(create=True, size=size)
            else:
                self.shm = shared_memory.SharedMemory(name=name)
                if self.shm.size < size:
                    self.shm.close()
                    raise SpecificationError(
                        f"segment {name} holds {self.shm.size}B, ring needs {size}B"
                    )
            self._name = self.shm.name
            self.buf = self.shm.buf
        self._closed = False

    @classmethod
    def try_create(
        cls, slot_bytes: int, slots: int, mp_context: str | None = None
    ) -> "SharedMemoryRing | None":
        """Create a ring for workers started by *mp_context* (``None``:
        :func:`resolve_start_method`'s default) — anonymous under
        ``fork``, a named segment otherwise — or ``None`` where shared
        memory is unavailable (callers then fall back to pickled
        payloads)."""
        try:
            return cls(slot_bytes, slots, anonymous=resolve_start_method(mp_context) == "fork")
        except (OSError, ValueError):  # pragma: no cover - platform-dependent
            return None

    @property
    def name(self) -> str:
        """The attach key workers receive in their spec."""
        return self._name

    @property
    def spec(self) -> tuple[str, int, int]:
        """Picklable ``(name, slot_bytes, slots)`` for job/worker specs."""
        return (self.name, self.slot_bytes, self.slots)

    def _check_slot(self, slot: int, length: int) -> None:
        if not 0 <= slot < self.slots:
            raise SpecificationError(f"slot {slot} outside ring of {self.slots}")
        if not 0 <= length <= self.slot_bytes:
            raise SpecificationError(f"{length}B exceeds slot capacity {self.slot_bytes}B")

    def write(self, slot: int, data: bytes) -> RingSlotRef:
        """Park *data* in *slot*; returns the ref to send instead.

        Accounting happens on the receiving side (:meth:`resolve`), not
        here: writes run in worker processes after the scoped worker
        registry has already been snapshotted, so counts incremented
        here would never reach the parent.
        """
        self._check_slot(slot, len(data))
        start = slot * self.slot_bytes
        self.buf[start : start + len(data)] = data
        return RingSlotRef(ring=self.name, slot=slot, length=len(data))

    def read(self, ref: RingSlotRef) -> bytes:
        """Copy a parked payload back out of the mapping."""
        if ref.ring != self.name:
            raise SpecificationError(f"ref names ring {ref.ring!r}, this is {self.name!r}")
        self._check_slot(ref.slot, ref.length)
        start = ref.slot * self.slot_bytes
        return bytes(self.buf[start : start + ref.length])

    def resolve(self, obj):
        """Payload resolver hook: refs become bytes, all else passes through.

        The fleet controller resolves every ring-parked member result
        through it, so returned payloads are materialised *before* CRC
        verification — a torn or stale slot write is then
        indistinguishable from a corrupted transfer and handled by the
        same retry policy (a receipt strike and a requeue).  Counts
        how many payload bytes travelled through the ring versus through
        the pickled fallback, which is what the zero-copy regression
        tests assert on.
        """
        if isinstance(obj, RingSlotRef):
            if obs.metrics_enabled():
                obs.inc("repro_ring_slot_writes_total", 1)
                obs.inc("repro_ring_payload_bytes_total", obj.length)
            return self.read(obj)
        if isinstance(obj, (bytes, bytearray)) and obs.metrics_enabled():
            obs.inc("repro_result_pickled_payload_bytes_total", len(obj))
        return obj

    def close(self) -> None:
        """Release the mapping; the owner of a named segment also unlinks it."""
        if self._closed:
            return
        self._closed = True
        if self._map is not None:
            _ANONYMOUS.pop(self._name, None)
            self.buf.release()
            self._map.close()
            return
        self.shm.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass

    def __enter__(self) -> "SharedMemoryRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self.owner else "attached"
        return f"SharedMemoryRing({self.name}, {self.slots}x{self.slot_bytes}B, {role})"


#: Fork rings by name.  A forked child inherits this table together with
#: the mappings it holds, so its workers attach to the parent's ring
#: without any name lookup in the operating system.
_ANONYMOUS: dict[str, SharedMemoryRing] = {}
_ANON_SEQ = itertools.count()

#: Per-process attach cache for named segments: a worker serving many
#: jobs maps each ring once, not once per job.  Keyed by PID so fork
#: children re-attach.
_ATTACHED: dict[tuple[int, str], SharedMemoryRing] = {}


def attach_ring(name: str, slot_bytes: int, slots: int) -> SharedMemoryRing:
    """Worker-side attach: an inherited fork ring, else a cached mapping
    of the named segment (one per process per ring)."""
    ring = _ANONYMOUS.get(name)
    if ring is not None:
        return ring
    key = (os.getpid(), name)
    ring = _ATTACHED.get(key)
    if ring is None or ring._closed:
        ring = SharedMemoryRing(slot_bytes, slots, name=name)
        _ATTACHED[key] = ring
    return ring
