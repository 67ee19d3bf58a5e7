"""Zero-copy output ring: unit behaviour, leak safety, zero-pickle paths.

Covers :mod:`repro.core.ring` directly (slot bounds, ref validation,
resolve accounting, owner/attacher lifecycle, the anonymous fork
backing), the leak guarantees (a named segment is unlinked on close and
reclaimed by the resource tracker when its owner dies by SIGTERM; a
fork ring starts no tracker at all), and the parallel result paths
that ride on it: :class:`~repro.gpu.multigpu.MultiDeviceGenerator`
partitions, fleet chunk leases and the serve engine's bulk chunks
(which the fleet generates) must move **zero pickled payload bytes**
for ring-eligible chunks — those above ``RING_MIN_BYTES`` — while
staying bit-identical to the sequential reference, including through a
corruption fault drill, where a damaged slot payload must fail the CRC
receipt and be retried.
"""

import os
import subprocess
import sys
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro import obs
from repro.core.ring import RingSlotRef, SharedMemoryRing, attach_ring
from repro.errors import SpecificationError
from repro.fleet.controller import FleetConfig, FleetController
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan
from repro.serve.engine import RangeSource, ServeEngine, StreamConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _counter_total(reg, name: str) -> int:
    return sum(
        entry["value"]
        for entry in reg.snapshot()["metrics"]
        if entry["type"] == "counter" and entry["name"] == name
    )


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


# -- unit behaviour ------------------------------------------------------------------
class TestRingUnit:
    def test_roundtrip_all_slots(self):
        with SharedMemoryRing(64, 4) as ring:
            refs = [ring.write(slot, bytes([slot]) * (slot + 1)) for slot in range(4)]
            for slot, ref in enumerate(refs):
                assert ref == RingSlotRef(ring=ring.name, slot=slot, length=slot + 1)
                assert ring.read(ref) == bytes([slot]) * (slot + 1)

    def test_overwrite_shorter_payload(self):
        # a retried job overwrites its slot; the ref length bounds the read
        with SharedMemoryRing(16, 1) as ring:
            ring.write(0, b"x" * 16)
            ref = ring.write(0, b"ab")
            assert ring.read(ref) == b"ab"

    def test_rejects_bad_geometry(self):
        with pytest.raises(SpecificationError):
            SharedMemoryRing(0, 4)
        with pytest.raises(SpecificationError):
            SharedMemoryRing(64, 0)

    def test_write_bounds(self):
        with SharedMemoryRing(8, 2) as ring:
            with pytest.raises(SpecificationError):
                ring.write(2, b"x")
            with pytest.raises(SpecificationError):
                ring.write(-1, b"x")
            with pytest.raises(SpecificationError):
                ring.write(0, b"x" * 9)

    def test_read_rejects_foreign_and_bad_refs(self):
        with SharedMemoryRing(8, 2) as ring:
            with pytest.raises(SpecificationError):
                ring.read(RingSlotRef(ring="not-this-ring", slot=0, length=1))
            with pytest.raises(SpecificationError):
                ring.read(RingSlotRef(ring=ring.name, slot=5, length=1))
            with pytest.raises(SpecificationError):
                ring.read(RingSlotRef(ring=ring.name, slot=0, length=9))

    def test_attach_shares_and_validates(self):
        with SharedMemoryRing(32, 2) as ring:
            ref = ring.write(1, b"hello")
            attached = SharedMemoryRing(32, 2, name=ring.name)
            try:
                assert not attached.owner
                assert attached.read(ref) == b"hello"
            finally:
                attached.close()
            # an attacher demanding more capacity than the segment holds
            with pytest.raises(SpecificationError):
                SharedMemoryRing(32, 3, name=ring.name)

    def test_resolve_accounting(self):
        with SharedMemoryRing(16, 1) as ring:
            ref = ring.write(0, b"abcd")
            with obs.scoped() as reg:
                assert ring.resolve(ref) == b"abcd"
                assert ring.resolve(b"pickled!") == b"pickled!"
                assert ring.resolve(("not", "bytes")) == ("not", "bytes")
                assert _counter_total(reg, "repro_ring_payload_bytes_total") == 4
                assert _counter_total(reg, "repro_ring_slot_writes_total") == 1
                assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 8

    def test_anonymous_ring_is_shared_with_fork_children(self):
        # a fork child finds the ring in the inherited table and writes
        # through the parent's own mapping; no segment name exists
        with SharedMemoryRing(16, 2, anonymous=True) as ring:
            assert attach_ring(ring.name, 16, 2) is ring
            assert not _segment_exists(ring.name)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                try:
                    attach_ring(ring.name, 16, 2).write(1, b"from child")
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            assert ring.read(RingSlotRef(ring.name, 1, 10)) == b"from child"
        with pytest.raises(FileNotFoundError):
            attach_ring(ring.name, 16, 2)  # closed: gone from the table

    def test_try_create_backing_follows_start_method(self):
        fork_ring = SharedMemoryRing.try_create(16, 1, "fork")
        spawn_ring = SharedMemoryRing.try_create(16, 1, "spawn")
        try:
            assert fork_ring.shm is None and not _segment_exists(fork_ring.name)
            assert spawn_ring.shm is not None and _segment_exists(spawn_ring.name)
        finally:
            fork_ring.close()
            spawn_ring.close()

    def test_attach_ring_caches_per_process(self):
        with SharedMemoryRing(16, 2) as ring:
            a = attach_ring(ring.name, 16, 2)
            b = attach_ring(ring.name, 16, 2)
            try:
                assert a is b
            finally:
                a.close()
            # a closed cache entry is replaced, not handed back
            c = attach_ring(ring.name, 16, 2)
            try:
                assert c is not a
            finally:
                c.close()


# -- lifecycle and leak safety -------------------------------------------------------
class TestRingLifecycle:
    def test_owner_close_unlinks(self):
        ring = SharedMemoryRing(16, 1)
        name = ring.name
        assert _segment_exists(name)
        ring.close()
        assert not _segment_exists(name)
        ring.close()  # idempotent

    def test_attacher_close_does_not_unlink(self):
        with SharedMemoryRing(16, 1) as ring:
            attached = SharedMemoryRing(16, 1, name=ring.name)
            attached.close()
            assert _segment_exists(ring.name)

    def test_sigterm_of_owner_does_not_leak(self):
        """An owner killed without cleanup must not leak the segment.

        SIGTERM's default disposition skips every Python-level finaliser,
        so reclamation is the ``resource_tracker`` watchdog's job; poll
        until it notices the death and unlinks.
        """
        code = (
            "import sys, time; sys.path.insert(0, %r)\n"
            "from repro.core.ring import SharedMemoryRing\n"
            "ring = SharedMemoryRing(64, 2)\n"
            "print(ring.name, flush=True)\n"
            "time.sleep(60)\n"
        ) % SRC
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        try:
            name = proc.stdout.readline().strip()
            assert name and _segment_exists(name)
            proc.terminate()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while _segment_exists(name):
                assert time.monotonic() < deadline, f"segment {name} leaked past SIGTERM"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.stdout.close()


    def test_fork_rings_start_no_tracker(self):
        """A fork-context fleet, serve engine and multi-device job each
        return payloads through a ring, and none starts the
        ``resource_tracker`` process a named segment would need."""
        code = (
            "import sys; sys.path.insert(0, %r)\n"
            "from multiprocessing import resource_tracker\n"
            "from repro import obs\n"
            "from repro.fleet.controller import FleetConfig, FleetController\n"
            "from repro.gpu.multigpu import MultiDeviceGenerator\n"
            "from repro.serve.engine import ServeEngine, StreamConfig\n"
            "stream = StreamConfig(algorithm='trivium', seed=11, lanes=128)\n"
            "with obs.scoped() as reg:\n"
            "    cfg = FleetConfig(workers=1, chunk_bytes=32768, mp_context='fork',\n"
            "                      heartbeat_timeout=30.0)\n"
            "    with FleetController(stream, cfg) as fleet:\n"
            "        fleet.read_range(0, 65536, timeout=120.0)\n"
            "    engine = ServeEngine(stream, workers=1,\n"
            "                         fleet=FleetConfig(mp_context='fork'))\n"
            "    engine.start()\n"
            "    try:\n"
            "        engine.generate_range(0, 65536)\n"
            "    finally:\n"
            "        engine.close()\n"
            "    gen = MultiDeviceGenerator('trivium', seed=7, lanes=128, n_devices=2,\n"
            "                               block_bytes=16384, mp_context='fork')\n"
            "    gen.generate(4)\n"
            "    ring = sum(e['value'] for e in reg.snapshot()['metrics']\n"
            "               if e['name'] == 'repro_ring_payload_bytes_total')\n"
            "print(ring, resource_tracker._resource_tracker._pid)\n"
        ) % SRC
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert out.returncode == 0, out.stderr
        ring_bytes, tracker = out.stdout.split()
        assert int(ring_bytes) == 65536 + 65536 + 4 * 16384
        assert tracker == "None"


# -- multi-device zero-pickle path ---------------------------------------------------
def _multidevice(ctx: str, **kw) -> MultiDeviceGenerator:
    # 16 KiB blocks: every partition (two or more blocks) is ring-eligible
    return MultiDeviceGenerator(
        "trivium",
        seed=7,
        lanes=128,
        n_devices=2,
        block_bytes=16384,
        mp_context=ctx,
        **kw,
    )


class TestMultiDeviceRing:
    @pytest.mark.parametrize("ctx", ["fork", "spawn"])
    def test_zero_pickled_payload_bytes(self, ctx):
        gen = _multidevice(ctx)
        with obs.scoped() as reg:
            out = gen.generate(6)
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == len(out)
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 0
        assert out == gen.sequential_reference(6)
        assert not gen.last_report.degraded

    def test_ring_disabled_still_correct(self, monkeypatch):
        # no shared memory: partitions fall back to pickled payloads
        monkeypatch.setattr(SharedMemoryRing, "try_create", classmethod(lambda cls, *a: None))
        gen = _multidevice("fork")
        with obs.scoped() as reg:
            out = gen.generate(4)
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == 0
        assert out == gen.sequential_reference(4)

    def test_corrupt_slot_payload_is_rejected_and_retried(self):
        """The fault drill: a payload damaged after its CRC was computed
        lands in the ring slot corrupted, must fail the receipt check on
        the controller side, and the retry must regenerate it exactly."""
        plan = FaultPlan((Fault("corrupt", 0, 0, corrupt_bytes=3),))
        gen = _multidevice("fork", fault_plan=plan)
        with obs.scoped() as reg:
            out = gen.generate(6)
            # both the corrupted attempt and the clean retry travelled
            # through the ring, never through the pickle machinery
            assert _counter_total(reg, "repro_ring_payload_bytes_total") > len(out)
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 0
        assert out == gen.sequential_reference(6)
        report = gen.last_report
        assert 0 in report.retried_partitions
        assert any(e.kind == "corrupt" for e in report.events)


# -- fleet zero-pickle path ----------------------------------------------------------
class TestFleetRing:
    """Every job above ``RING_MIN_BYTES`` (16 KiB) returns through a slot."""

    def _stream(self) -> StreamConfig:
        return StreamConfig(algorithm="trivium", seed=11, lanes=128)

    def test_zero_pickled_payload_bytes(self):
        stream = self._stream()
        n = 6 * 32768
        ref = RangeSource(stream).read_range(0, n)
        cfg = FleetConfig(
            workers=2, chunk_bytes=32768, mp_context="fork", heartbeat_timeout=30.0
        )
        with obs.scoped() as reg:
            with FleetController(stream, cfg) as fleet:
                name = fleet._ring.name
                out = fleet.read_range(0, n, timeout=120.0)
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == n
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 0
        assert out == ref
        assert not _segment_exists(name)  # close() unlinked the segment

    def test_corrupt_worker_payload_strikes_and_recovers(self):
        stream = self._stream()
        n = 4 * 32768
        ref = RangeSource(stream).read_range(0, n)
        plan = FaultPlan(
            (Fault("corrupt", 0, 0, corrupt_bytes=2), Fault("corrupt", 1, 0, corrupt_bytes=2))
        )
        cfg = FleetConfig(
            workers=2,
            chunk_bytes=32768,
            mp_context="fork",
            heartbeat_timeout=30.0,
            max_strikes=3,
        )
        with obs.scoped() as reg:
            with FleetController(stream, cfg, fault_plan=plan) as fleet:
                out = fleet.read_range(0, n, timeout=120.0)
            assert _counter_total(reg, "repro_fleet_receipt_failures_total") >= 1
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 0
        assert out == ref

    def test_ring_disabled_still_correct(self, monkeypatch):
        # no shared memory: members ship pickled payload bytes
        monkeypatch.setattr(SharedMemoryRing, "try_create", classmethod(lambda cls, *a: None))
        stream = self._stream()
        n = 2 * 32768
        ref = RangeSource(stream).read_range(0, n)
        cfg = FleetConfig(
            workers=1,
            chunk_bytes=32768,
            mp_context="fork",
            heartbeat_timeout=30.0,
        )
        with obs.scoped() as reg:
            with FleetController(stream, cfg) as fleet:
                assert fleet._ring is None
                out = fleet.read_range(0, n, timeout=120.0)
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == 0
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == n
        assert out == ref


# -- serve engine bulk-chunk path ----------------------------------------------------
class TestServePoolRing:
    """The serve engine's chunks.  The daemon's worker pool is its fleet:
    a chunk above ``RING_MIN_BYTES`` crosses in one of the fleet's ring
    slots, and a cancelled chunk's slot stays with its job until the
    member writing it has finished."""

    STREAM = StreamConfig(algorithm="trivium", seed=7, lanes=256)

    def _engine(self, workers: int = 1, chunk: int = 65536, **policy) -> ServeEngine:
        policy.setdefault("heartbeat_timeout", 30.0)
        engine = ServeEngine(self.STREAM, workers=workers, fleet=FleetConfig(**policy))
        engine.start(chunk_bytes=chunk)
        return engine

    @staticmethod
    def _await_members(engine: ServeEngine) -> None:
        """Pump until every member registered, so dispatch is immediate."""
        fleet = engine._fleet
        deadline = time.monotonic() + 60.0
        while len(fleet._live_members()) < engine.workers:
            assert time.monotonic() < deadline, "members never registered"
            fleet.pump(0.05)

    @staticmethod
    def _await_slots(engine: ServeEngine) -> None:
        """Wait until every ring slot is back on the free list."""
        fleet = engine._fleet
        deadline = time.monotonic() + 30.0
        while len(fleet._free_slots) < fleet._ring.slots:
            assert time.monotonic() < deadline, "slots never returned"
            fleet.pump(0.05)

    def _serve(self, engine: ServeEngine, chunk: int, count: int) -> bytes:
        try:
            tickets = [engine.submit(i * chunk, chunk, chunk_id=i) for i in range(count)]
            return b"".join(engine.collect(t) for t in tickets)
        finally:
            engine.close()

    def test_bulk_chunks_ride_the_ring(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        with obs.scoped() as reg:
            engine = self._engine()
            out = self._serve(engine, 65536, 6)
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == len(out)
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 0
        assert out == RangeSource(self.STREAM).read_range(0, 6 * 65536)
        assert engine.stats.crc_rejects == 0 and engine.stats.retries == 0

    def test_small_chunks_never_touch_the_ring(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        with obs.scoped() as reg:
            engine = self._engine(chunk=4096)
            out = self._serve(engine, 4096, 4)
            names = {e["name"] for e in reg.snapshot()["metrics"]}
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == len(out)
        assert out == RangeSource(self.STREAM).read_range(0, 4 * 4096)
        assert engine._fleet._ring is None  # no job could ever use one
        assert not any(name.startswith("repro_ring_") for name in names)

    def test_small_jobs_ship_pickled_beside_a_ring(self, monkeypatch):
        # a fleet leasing 64 KiB has a ring; its 4 KiB jobs still skip it
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        with obs.scoped() as reg:
            engine = self._engine()
            assert engine._fleet._ring is not None
            out = self._serve(engine, 4096, 4)
            names = {e["name"] for e in reg.snapshot()["metrics"]}
        assert out == RangeSource(self.STREAM).read_range(0, 4 * 4096)
        assert not any(name.startswith("repro_ring_") for name in names)

    def test_corrupt_slot_payload_is_rejected_and_retried(self, monkeypatch):
        plan = FaultPlan((Fault("corrupt", 0, 0, corrupt_bytes=3),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        with obs.scoped() as reg:
            engine = self._engine()
            out = self._serve(engine, 65536, 1)
            # the damaged job and its clean requeue both came through a slot
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == 2 * 65536
            assert _counter_total(reg, "repro_result_pickled_payload_bytes_total") == 0
        assert out == RangeSource(self.STREAM).read_range(0, 65536)
        assert engine.stats.crc_rejects == 1 and engine.stats.retries == 1
        assert engine.stats.degraded == 0

    def test_cancelled_attempt_keeps_its_slot_until_it_finishes(self, monkeypatch):
        plan = FaultPlan((Fault("delay", 0, 0, delay=2.0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        engine = self._engine(workers=2)
        try:
            self._await_members(engine)
            fleet = engine._fleet
            slow = engine.submit(0, 65536, chunk_id=0)  # member 0's first job
            held = fleet._job_slots[slow.jobs[0].job_id]
            engine.cancel(slow)
            assert held not in fleet._free_slots  # its writer is still running
            tickets = [engine.submit(i * 65536, 65536, chunk_id=i) for i in range(1, 4)]
            assert all(fleet._job_slots.get(t.jobs[0].job_id) != held for t in tickets)
            out = b"".join(engine.collect(t) for t in tickets)
            self._await_slots(engine)  # freed once the late result arrives
            assert fleet.stale_results == 1
        finally:
            engine.close()
        assert out == RangeSource(self.STREAM).read_range(65536, 3 * 65536)
        assert engine.stats.crc_rejects == 0

    def test_cancelling_a_hundred_inflight_chunks_frees_every_slot_once(self, monkeypatch):
        """A hundred 64 KiB chunks are cancelled while member 0 is wedged
        in its first job — as when their clients disconnect.  Chunks
        submitted meanwhile are served intact; afterwards no cancelled
        byte is held, nothing is assigned, and every slot is back on the
        free list exactly once."""
        plan = FaultPlan((Fault("delay", 0, 0, delay=1.0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        chunk = 65536
        engine = self._engine(workers=2)
        try:
            self._await_members(engine)
            fleet = engine._fleet
            doomed = [engine.submit(i * chunk, chunk, chunk_id=i) for i in range(100)]
            assert len(fleet._assigned) == fleet._ring.slots  # the ring is full
            live = [engine.submit((100 + i) * chunk, chunk, chunk_id=100 + i) for i in range(2)]
            for ticket in doomed:
                engine.cancel(ticket)
            live_ids = {job.job_id for t in live for job in t.jobs}
            assert {job.job_id for job in fleet._pending} <= live_ids
            out = b"".join(engine.collect(t) for t in live)
            late = [engine.submit((102 + i) * chunk, chunk, chunk_id=102 + i) for i in range(4)]
            out += b"".join(engine.collect(t) for t in late)
            self._await_slots(engine)
            assert fleet._results == {} and fleet._assigned == {} and fleet._cancelled == {}
            assert not fleet._pending
            assert sorted(fleet._free_slots) == list(range(fleet._ring.slots))
            stats = engine.stats
        finally:
            engine.close()
        assert out == RangeSource(self.STREAM).read_range(100 * chunk, 6 * chunk)
        assert stats.crc_rejects == 0 and stats.chunks_ok == 6

    def test_slot_free_list_survives_concurrent_collectors(self, monkeypatch):
        """More workers than cores, four collector threads, cancels in the
        mix and a tiny switch interval: every slot must come back exactly
        once (a lost or doubled free-list update breaks the final count)."""
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        chunk, per_thread = 65536, 6
        engine = self._engine(workers=3)
        served: dict[int, bytes] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(k: int) -> None:
                for i in range(per_thread):
                    offset = (k * per_thread + i) * chunk
                    ticket = engine.submit(offset, chunk, chunk_id=offset // chunk)
                    if i % 3 == 2:
                        engine.cancel(ticket)
                    else:
                        served[offset] = engine.collect(ticket)

            threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
            self._await_slots(engine)  # cancelled writers finish
            fleet = engine._fleet
            assert sorted(fleet._free_slots) == list(range(fleet._ring.slots))
            assert fleet._results == {} and fleet._cancelled == {}
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        stream = RangeSource(self.STREAM).read_range(0, 4 * per_thread * chunk)
        assert len(served) == 4 * (per_thread - per_thread // 3)
        for offset, data in served.items():
            assert data == stream[offset : offset + chunk]
        assert engine.stats.crc_rejects == 0

    def test_spawn_engine_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        with obs.scoped() as reg:
            engine = self._engine(mp_context="spawn")
            out = self._serve(engine, 65536, 2)
            assert _counter_total(reg, "repro_ring_payload_bytes_total") == len(out)
        assert out == RangeSource(self.STREAM).read_range(0, 2 * 65536)
