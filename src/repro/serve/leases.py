"""Counter-space leases: deterministic, non-overlapping stream slices.

The daemon serves one logical BSRNG stream — a fixed ``(algorithm, seed,
lanes, ...)`` configuration whose output is a pure function of the byte
offset.  Concurrency safety therefore reduces to an allocation problem:
every client must draw from a slice of the stream no other client ever
touches.  A :class:`LeaseManager` is that allocator.

Invariants (property-tested in ``tests/test_serve_leases.py``):

* **Partition** — the set of all leases ever granted tiles the prefix
  ``[0, high_water)`` of the stream: pairwise disjoint, union gap-free
  from offset 0.  Offsets are granted in strictly increasing order and
  *never reissued*: randomness handed to one client must not be replayed
  to another, even after the first client disconnects (releasing a lease
  marks it done, it does not return bytes to a free pool).
* **Durability** — every grant/release is appended to a JSONL journal
  *before* any byte of the lease is served, so a daemon restarted over
  the same journal resumes allocation at the recorded high-water mark
  and cannot re-grant a slice a dead client may already have received.
  Unreleased leases of a previous incarnation are adopted as
  ``orphaned`` — their clients are gone, their bytes stay burned.

Because a lease is just ``(offset, length)`` and the stream is
deterministic, any client can audit its bytes offline::

    rng = BSRNG(algorithm, seed=seed, lanes=lanes)
    rng.skip_bytes(lease.offset)
    assert rng.read(lease.length) == received
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

from repro.errors import SpecificationError

__all__ = ["Lease", "LeaseManager"]


@dataclass(frozen=True)
class Lease:
    """One granted slice ``[offset, offset + length)`` of the stream."""

    lease_id: int
    offset: int
    length: int
    client: str = ""

    @property
    def end(self) -> int:
        """First byte offset past the lease."""
        return self.offset + self.length

    def to_dict(self) -> dict:
        """JSON-serialisable form (the journal/status record)."""
        return {
            "lease_id": self.lease_id,
            "offset": self.offset,
            "length": self.length,
            "client": self.client,
        }


class LeaseManager:
    """Grant non-overlapping, gap-free byte-range leases on one stream.

    Parameters
    ----------
    journal_path:
        Append-only JSONL journal.  ``None`` keeps the manager purely
        in-memory (tests, benchmarks).  When the file already exists its
        records are replayed first: allocation resumes past every
        previously granted lease and that incarnation's unreleased
        leases are adopted as orphaned.
    max_lease_bytes:
        Upper bound on one grant (guards the daemon against a client
        requesting a petabyte in one call).

    Thread safety: all mutation happens under one internal lock; the
    daemon calls this from the event loop, tests call it from anywhere.
    """

    def __init__(
        self,
        journal_path: str | None = None,
        max_lease_bytes: int = 1 << 30,
    ) -> None:
        if max_lease_bytes <= 0:
            raise SpecificationError("max_lease_bytes must be positive")
        self.max_lease_bytes = max_lease_bytes
        self.journal_path = journal_path
        self._lock = threading.Lock()
        self._next_offset = 0
        self._next_id = 0
        self._active: dict[int, Lease] = {}
        self._released = 0
        self._orphaned: list[Lease] = []
        self._journal_fh = None
        if journal_path is not None:
            self._resume(journal_path)
            self._journal_fh = open(journal_path, "a", encoding="utf-8")

    # -- journal -----------------------------------------------------------------
    def _resume(self, path: str) -> None:
        """Replay an existing journal: adopt its high water and orphans."""
        if not os.path.exists(path):
            return
        active: dict[int, Lease] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SpecificationError(
                        f"{path}:{lineno}: corrupt journal line ({exc})"
                    ) from None
                op = rec.get("op")
                if op == "acquire":
                    lease = Lease(
                        rec["lease_id"], rec["offset"], rec["length"], rec.get("client", "")
                    )
                    if lease.offset != self._next_offset:
                        raise SpecificationError(
                            f"{path}:{lineno}: journal gap — lease {lease.lease_id} "
                            f"at offset {lease.offset}, expected {self._next_offset}"
                        )
                    active[lease.lease_id] = lease
                    self._next_offset = lease.end
                    self._next_id = max(self._next_id, lease.lease_id + 1)
                elif op == "release":
                    if active.pop(rec["lease_id"], None) is not None:
                        self._released += 1
                else:
                    raise SpecificationError(
                        f"{path}:{lineno}: unknown journal op {op!r}"
                    )
        # the previous incarnation's unreleased leases: clients are gone,
        # bytes stay burned (never re-granted)
        self._orphaned = sorted(active.values(), key=lambda lease: lease.offset)

    def _append(self, record: dict) -> None:
        if self._journal_fh is not None:
            self._journal_fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._journal_fh.flush()
            os.fsync(self._journal_fh.fileno())

    def close(self) -> None:
        """Flush and close the journal (the manager stays queryable)."""
        with self._lock:
            if self._journal_fh is not None:
                self._journal_fh.close()
                self._journal_fh = None

    # -- allocation --------------------------------------------------------------
    def acquire(self, length: int, client: str = "") -> Lease:
        """Grant the next ``length`` stream bytes as a new lease.

        The journal record is durable before the lease is returned, so a
        crash between grant and first served byte burns the range rather
        than risking a replay to a different client.
        """
        if length <= 0:
            raise SpecificationError("lease length must be positive")
        if length > self.max_lease_bytes:
            raise SpecificationError(
                f"lease length {length} exceeds max_lease_bytes {self.max_lease_bytes}"
            )
        with self._lock:
            lease = Lease(self._next_id, self._next_offset, length, client)
            self._append({"op": "acquire", **lease.to_dict()})
            self._next_id += 1
            self._next_offset = lease.end
            self._active[lease.lease_id] = lease
            return lease

    def release(self, lease_id: int) -> bool:
        """Mark a lease done.  Its byte range is consumed forever —
        releasing never returns bytes to a free pool.  Returns whether
        the id named an active lease (double-release is a no-op)."""
        with self._lock:
            lease = self._active.pop(lease_id, None)
            if lease is None:
                return False
            self._append({"op": "release", "lease_id": lease_id})
            self._released += 1
            return True

    # -- introspection -----------------------------------------------------------
    @property
    def high_water(self) -> int:
        """First never-granted stream offset (total bytes leased)."""
        with self._lock:
            return self._next_offset

    def active_leases(self) -> list[Lease]:
        """Currently active (granted, unreleased) leases, by offset."""
        with self._lock:
            return sorted(self._active.values(), key=lambda lease: lease.offset)

    def orphaned_leases(self) -> list[Lease]:
        """Leases adopted unreleased from a previous incarnation."""
        with self._lock:
            return list(self._orphaned)

    def stats(self) -> dict:
        """Snapshot for ``/v1/status``."""
        with self._lock:
            return {
                "high_water_bytes": self._next_offset,
                "active": len(self._active),
                "released": self._released,
                "orphaned": len(self._orphaned),
                "active_leases": [lease.to_dict() for lease in
                                  sorted(self._active.values(), key=lambda l: l.offset)],
            }
