"""Zero-copy output ring: unit behaviour, leak safety, zero-pickle paths.

Covers :mod:`repro.core.ring` directly (slot bounds, ref validation,
resolve accounting, owner/attacher lifecycle), the segment-leak
guarantees (unlink on close; resource-tracker reclamation when the owner
dies by SIGTERM without cleanup), and the two parallel result paths that
ride on it: :class:`~repro.gpu.multigpu.MultiDeviceGenerator` partitions
and fleet chunk leases must move **zero pickled payload bytes** for
ring-eligible chunks while staying bit-identical to the sequential
reference — including through a corruption fault drill, where a damaged
slot payload must fail the CRC receipt and be retried.
"""

import os
import subprocess
import sys
import time
from multiprocessing import shared_memory

import pytest

from repro import obs
from repro.core.ring import RingSlotRef, SharedMemoryRing, attach_ring
from repro.errors import SpecificationError
from repro.fleet.controller import FleetConfig, FleetController
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust.faults import Fault, FaultPlan
from repro.serve.engine import RangeSource, StreamConfig


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
        ) % os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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


# -- multi-device zero-pickle path ---------------------------------------------------
def _multidevice(ctx: str, **kw) -> MultiDeviceGenerator:
    return MultiDeviceGenerator(
        "trivium",
        seed=7,
        lanes=128,
        n_devices=2,
        block_bytes=4096,
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
    def _stream(self) -> StreamConfig:
        return StreamConfig(algorithm="trivium", seed=11, lanes=128)

    def test_zero_pickled_payload_bytes(self):
        stream = self._stream()
        n = 6 * 16384
        ref = RangeSource(stream).read_range(0, n)
        cfg = FleetConfig(
            workers=2, chunk_bytes=16384, mp_context="fork", heartbeat_timeout=30.0
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
        n = 4 * 16384
        ref = RangeSource(stream).read_range(0, n)
        plan = FaultPlan(
            (Fault("corrupt", 0, 0, corrupt_bytes=2), Fault("corrupt", 1, 0, corrupt_bytes=2))
        )
        cfg = FleetConfig(
            workers=2,
            chunk_bytes=16384,
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
        n = 2 * 16384
        ref = RangeSource(stream).read_range(0, n)
        cfg = FleetConfig(
            workers=1,
            chunk_bytes=16384,
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
