"""Partition supervisor: crash/hang/corruption recovery on its fleet,
the attempt budget, degradation, and the supervised multi-device
equivalence guarantees."""

import multiprocessing
import zlib

import numpy as np
import pytest

from repro.errors import DeviceFailureError, SpecificationError
from repro.gpu.multigpu import LanePartitionedGenerator, MultiDeviceGenerator
from repro.robust.faults import Fault, FaultPlan
from repro.robust.supervisor import PartitionSupervisor, SupervisorConfig, payload_crc


class TestConfig:
    def test_defaults(self):
        cfg = SupervisorConfig()
        assert cfg.timeout is None and cfg.max_retries == 2

    def test_invalid_rejected(self):
        with pytest.raises(SpecificationError):
            SupervisorConfig(timeout=0.0)
        with pytest.raises(SpecificationError):
            SupervisorConfig(max_retries=-1)
        with pytest.raises(SpecificationError):
            SupervisorConfig(processes=0)


class TestPayloadCrc:
    def test_bytes_and_array_agree(self):
        data = bytes(range(100))
        assert payload_crc(data) == payload_crc(np.frombuffer(data, np.uint8))

    def test_every_buffer_form_is_zlib_crc32_of_its_bytes(self):
        data = bytes(range(256)) * 40 + b"tail"
        words = np.frombuffer(data[:10240], np.uint64)
        assert payload_crc(data) == zlib.crc32(data)
        for form in (bytearray(data), memoryview(data), np.frombuffer(data, np.uint8)):
            assert payload_crc(form) == zlib.crc32(data)
        # a wider dtype, and a non-contiguous view, read in C byte order
        assert payload_crc(words) == zlib.crc32(words.tobytes())
        assert payload_crc(words[::2]) == zlib.crc32(words[::2].tobytes())

    def test_sensitive_to_flips(self):
        data = bytearray(range(100))
        ref = payload_crc(bytes(data))
        data[42] ^= 0x01
        assert payload_crc(bytes(data)) != ref


def _mk(algorithm="xorwow", **kw):
    defaults = dict(seed=5, lanes=64, n_devices=3, block_bytes=256)
    defaults.update(kw)
    return MultiDeviceGenerator(algorithm, **defaults)


class TestCrashRecovery:
    def test_single_crash_retried_byte_identical(self):
        plan = FaultPlan((Fault("crash", 1, 0),))
        gen = _mk(fault_plan=plan)
        out = gen.generate(6, parallel=True)
        assert out == gen.sequential_reference(6)
        assert gen.last_report.attempts[1] == 2
        assert gen.last_report.retried_partitions == {1}

    def test_multiple_simultaneous_crashes(self):
        plan = FaultPlan((Fault("crash", 0, 0), Fault("crash", 2, 0)))
        gen = _mk(fault_plan=plan)
        assert gen.generate(6, parallel=True) == gen.sequential_reference(6)
        assert gen.last_report.retried_partitions == {0, 2}

    def test_repeated_crash_same_partition(self):
        plan = FaultPlan((Fault("crash", 1, 0), Fault("crash", 1, 1)))
        gen = _mk(fault_plan=plan, max_retries=3)
        assert gen.generate(6, parallel=True) == gen.sequential_reference(6)
        assert gen.last_report.attempts[1] == 3


class TestTimeoutRecovery:
    def test_hung_partition_times_out_and_retries(self):
        plan = FaultPlan((Fault("delay", 0, 0, delay=30.0),))
        gen = _mk(fault_plan=plan, timeout=0.75)
        out = gen.generate(6, parallel=True)
        assert out == gen.sequential_reference(6)
        kinds = [(e.partition, e.kind) for e in gen.last_report.events]
        assert (0, "timeout") in kinds

    def test_short_delay_within_timeout_is_fine(self):
        plan = FaultPlan((Fault("delay", 0, 0, delay=0.05),))
        gen = _mk(fault_plan=plan, timeout=10.0)
        assert gen.generate(3, parallel=True) == gen.sequential_reference(3)
        assert not gen.last_report.events


class TestCorruptionRecovery:
    def test_crc_detects_and_retries(self):
        plan = FaultPlan((Fault("corrupt", 2, 0, corrupt_bytes=3),), seed=1)
        gen = _mk(fault_plan=plan)
        out = gen.generate(6, parallel=True)
        assert out == gen.sequential_reference(6)
        assert any(e.kind == "corrupt" for e in gen.last_report.events)

    def test_stuck_payload_caught_by_crc(self):
        plan = FaultPlan((Fault("stuck", 0, 0),))
        gen = _mk(fault_plan=plan)
        assert gen.generate(6, parallel=True) == gen.sequential_reference(6)


class TestDegradation:
    def test_pool_exhaustion_degrades_to_inline(self):
        plan = FaultPlan(tuple(Fault("crash", 1, a) for a in range(3)))
        gen = _mk(fault_plan=plan, max_retries=2)
        out = gen.generate(6, parallel=True)
        assert out == gen.sequential_reference(6)
        assert gen.last_report.degraded
        assert any(e.kind == "degraded" for e in gen.last_report.events)

    def test_degradation_disabled_raises(self):
        plan = FaultPlan(tuple(Fault("crash", 1, a) for a in range(3)))
        gen = _mk(fault_plan=plan, max_retries=2, degrade_sequential=False)
        with pytest.raises(DeviceFailureError):
            gen.generate(6, parallel=True)

    def test_poison_partition_degrades_alone_and_leaves_no_worker(self):
        # partition 1 crashes on every fleet attempt: it alone runs
        # in-process, its peers are accepted from the fleet, and no
        # member outlives generate()
        plan = FaultPlan(tuple(Fault("crash", 1, a) for a in range(3)))
        gen = _mk(fault_plan=plan, max_retries=2)
        assert gen.generate(6, parallel=True) == gen.sequential_reference(6)
        assert [p.outcome for p in gen.last_report.partitions] == ["ok", "degraded", "ok"]
        assert gen.last_report.attempts == {0: 1, 1: 4, 2: 1}
        assert multiprocessing.active_children() == []

    def test_poison_partition_without_degrade_leaves_no_worker(self):
        plan = FaultPlan(tuple(Fault("crash", 1, a) for a in range(3)))
        gen = _mk(fault_plan=plan, max_retries=2, degrade_sequential=False)
        with pytest.raises(DeviceFailureError):
            gen.generate(6, parallel=True)
        assert multiprocessing.active_children() == []

    def test_unrecoverable_fault_raises_even_inline(self):
        # crash on every attempt the policy allows, parallel and inline
        plan = FaultPlan(tuple(Fault("crash", 1, a) for a in range(10)))
        gen = _mk(fault_plan=plan, max_retries=1)
        with pytest.raises(DeviceFailureError):
            gen.generate(6, parallel=True)


class TestSequentialPath:
    def test_inline_retry_handles_crash(self):
        plan = FaultPlan((Fault("crash", 1, 0),))
        gen = _mk(fault_plan=plan)
        assert gen.generate(6, parallel=False) == gen.sequential_reference(6)
        assert gen.last_report.attempts[1] == 2

    def test_inline_crc_verification(self):
        plan = FaultPlan((Fault("corrupt", 0, 0),), seed=4)
        gen = _mk(fault_plan=plan)
        assert gen.generate(6, parallel=False) == gen.sequential_reference(6)


class TestEmptyJobs:
    def test_zero_blocks_fast_path_parallel(self):
        gen = _mk()
        assert gen.generate(0, parallel=True) == b""
        assert gen.last_report is None  # no supervisor ran at all

    def test_negative_blocks_rejected(self):
        with pytest.raises(SpecificationError):
            _mk().generate(-1)

    def test_supervisor_empty_jobs(self):
        sup = PartitionSupervisor(bytes)
        assert sup.run({}, parallel=True) == {}

    def test_non_str_mp_context_rejected(self):
        with pytest.raises(SpecificationError):
            PartitionSupervisor(bytes, SupervisorConfig())


class TestLanePartitionedSupervision:
    def test_crash_recovery_lane_path(self):
        plan = FaultPlan((Fault("crash", 1, 0),))
        gen = LanePartitionedGenerator(
            "trivium", seed=1, total_lanes=16, n_devices=2, fault_plan=plan
        )
        lanes = gen.generate_lanes(64, parallel=True)
        assert np.array_equal(lanes, gen.sequential_reference(64))
        assert gen.last_report.retried_partitions == {1}

    def test_corruption_recovery_lane_path(self):
        plan = FaultPlan((Fault("corrupt", 0, 0, corrupt_bytes=2),), seed=8)
        gen = LanePartitionedGenerator(
            "trivium", seed=1, total_lanes=16, n_devices=2, fault_plan=plan
        )
        lanes = gen.generate_lanes(64, parallel=True)
        assert np.array_equal(lanes, gen.sequential_reference(64))


class TestReportShape:
    def test_clean_run_has_empty_report(self):
        gen = _mk()
        gen.generate(6, parallel=True)
        assert gen.last_report.events == []
        assert not gen.last_report.degraded
        assert set(gen.last_report.attempts.values()) == {1}


class TestFailureWallTimes:
    """Failed/evicted partitions get partition_wall entries too, not just
    accepted results — that is what makes drain latency measurable."""

    def test_retried_partition_timed_and_overwritten_by_acceptance(self):
        plan = FaultPlan((Fault("crash", 1, 0),))
        gen = _mk(fault_plan=plan)
        gen.generate(6, parallel=True)
        walls = gen.last_report.supervisor.partition_wall
        assert set(walls) == {0, 1, 2}  # the crashed partition is timed too
        assert all(w >= 0.0 for w in walls.values())
        assert all(p.wall_s is not None for p in gen.last_report.partitions)

    def test_unrecoverable_partition_still_timed(self):
        def body(payload):
            raise RuntimeError("boom")

        sup = PartitionSupervisor(
            body, config=SupervisorConfig(max_retries=1, degrade_sequential=False)
        )
        with pytest.raises(DeviceFailureError):
            sup.run({7: (b"x",)}, parallel=False)
        assert sup.report.attempts[7] == 2  # the policy's one retry, not the default two
        # the partition never delivered, but its failure wall is recorded
        assert 7 in sup.report.partition_wall
        assert sup.report.partition_wall[7] >= 0.0

    def test_corrupt_receipt_timed(self):
        plan = FaultPlan((Fault("corrupt", 0, 0),), seed=4)
        gen = _mk(fault_plan=plan)
        gen.generate(6, parallel=True)
        assert 0 in gen.last_report.supervisor.partition_wall
