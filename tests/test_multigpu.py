"""Multi-device scale-out tests (paper §5.4): partitioning, the
sequential-reconstruction equivalence and the scaling model."""

import threading

import numpy as np
import pytest

from repro.errors import ModelError, SpecificationError
from repro.gpu.multigpu import (
    DevicePartition,
    MultiDeviceGenerator,
    partition_counter_space,
    scaling_model,
)


class TestPartitioning:
    def test_even_split(self):
        parts = partition_counter_space(8, 2)
        assert parts == [DevicePartition(0, 0, 4), DevicePartition(1, 4, 4)]

    def test_remainder_spread_first(self):
        parts = partition_counter_space(10, 3)
        assert [p.n_blocks for p in parts] == [4, 3, 3]
        assert [p.start_block for p in parts] == [0, 4, 7]

    def test_covers_range_exactly(self):
        for total, n in [(0, 3), (1, 4), (17, 5), (100, 7)]:
            parts = partition_counter_space(total, n)
            assert sum(p.n_blocks for p in parts) == total
            cursor = 0
            for p in parts:
                assert p.start_block == cursor
                cursor += p.n_blocks

    def test_more_devices_than_blocks(self):
        parts = partition_counter_space(2, 4)
        assert [p.n_blocks for p in parts] == [1, 1, 0, 0]

    def test_invalid_inputs(self):
        with pytest.raises(SpecificationError):
            partition_counter_space(4, 0)
        with pytest.raises(SpecificationError):
            partition_counter_space(-1, 2)


class TestScalingModel:
    def test_single_device_is_unity(self):
        assert scaling_model(1) == pytest.approx(1.0)

    def test_calibrated_to_paper_two_gpu_point(self):
        # §5.4: "the performance achieves a near-linear throughput (1.92x)".
        assert scaling_model(2) == pytest.approx(1.92, abs=0.005)

    def test_degrades_below_linear(self):
        # "by increasing the number of GPUs to 4 or 8, the overall
        # performance descends" (relative to linear).
        for n in (2, 4, 8):
            assert scaling_model(n) < n
        eff = [scaling_model(n) / n for n in (1, 2, 4, 8)]
        assert eff == sorted(eff, reverse=True)

    def test_monotone_in_devices(self):
        speeds = [scaling_model(n) for n in range(1, 9)]
        assert speeds == sorted(speeds)

    def test_invalid(self):
        with pytest.raises(ModelError):
            scaling_model(0)


class TestMultiDeviceGenerator:
    @pytest.mark.parametrize("algorithm", ["mickey2", "xorwow"])
    def test_equivalence_serial_path(self, algorithm):
        # §5.4: "the same output sequence of random bits could be generated
        # identically in a single GPU sequentially."
        gen = MultiDeviceGenerator(algorithm, seed=11, lanes=128, n_devices=3, block_bytes=1024)
        multi = gen.generate(7, parallel=False)
        single = gen.sequential_reference(7)
        assert multi == single

    def test_equivalence_process_backed(self):
        # The real multiprocessing path (the paper's OpenMP host threads).
        gen = MultiDeviceGenerator("xorwow", seed=5, lanes=64, n_devices=2, block_bytes=512)
        assert gen.generate(4, parallel=True) == gen.sequential_reference(4)

    def test_device_count_one(self):
        gen = MultiDeviceGenerator("xorwow", seed=3, lanes=64, n_devices=1, block_bytes=256)
        assert gen.generate(3, parallel=False) == gen.sequential_reference(3)

    def test_zero_blocks(self):
        gen = MultiDeviceGenerator("xorwow", seed=3, lanes=64, n_devices=2, block_bytes=256)
        assert gen.generate(0, parallel=False) == b""

    def test_zero_blocks_parallel_fast_path(self):
        # the explicit empty-job fast path: no pool is built, no
        # supervisor report is produced
        gen = MultiDeviceGenerator("xorwow", seed=3, lanes=64, n_devices=4, block_bytes=256)
        assert gen.generate(0, parallel=True) == b""
        assert gen.last_report is None

    def test_output_length(self):
        gen = MultiDeviceGenerator("xorwow", seed=3, lanes=64, n_devices=3, block_bytes=128)
        assert len(gen.generate(5, parallel=False)) == 5 * 128

    def test_different_seeds_differ(self):
        a = MultiDeviceGenerator("xorwow", seed=1, lanes=64, n_devices=2, block_bytes=256)
        b = MultiDeviceGenerator("xorwow", seed=2, lanes=64, n_devices=2, block_bytes=256)
        assert a.generate(2, parallel=False) != b.generate(2, parallel=False)

    def test_invalid_device_count(self):
        with pytest.raises(SpecificationError):
            MultiDeviceGenerator(n_devices=0)

    def test_partition_boundaries_invisible(self):
        # The reconstructed stream must have no seam at block boundaries:
        # compare against a 5-device split of the same job.
        g2 = MultiDeviceGenerator("mickey2", seed=9, lanes=128, n_devices=2, block_bytes=512)
        g5 = MultiDeviceGenerator("mickey2", seed=9, lanes=128, n_devices=5, block_bytes=512)
        assert g2.generate(10, parallel=False) == g5.generate(10, parallel=False)

    def test_sequential_reference_leaves_no_refill_running(self):
        # a 3 KiB reference spans two 2 KiB refills, the point where a
        # prefetching generator queues a speculative third.  A gate holds
        # the refill worker, so such a refill would run (and record its
        # repro_fused_* series) only once the next scope is open
        from repro import obs
        from repro.core.generator import _quiesce_refills, _refill_executor

        gen = MultiDeviceGenerator("trivium", seed=5, lanes=64, n_devices=2, block_bytes=1024)
        gate = threading.Event()
        _refill_executor().submit(gate.wait, 10.0)
        try:
            reference = gen.sequential_reference(3)
        finally:
            with obs.scoped() as reg:
                gate.set()
                _quiesce_refills()  # whatever was queued has now run
        assert reference == gen.generate(3, parallel=False)
        assert not [i.name for _, i in reg.instruments() if i.name.startswith("repro_fused_")]


class TestLanePartitioned:
    """§5.4's input-parameter partitioning: lane windows across devices."""

    @pytest.mark.parametrize("algorithm", ["mickey2", "grain", "trivium"])
    def test_equivalence(self, algorithm):
        from repro.gpu.multigpu import LanePartitionedGenerator

        gen = LanePartitionedGenerator(algorithm, seed=4, total_lanes=24, n_devices=3)
        multi = gen.generate_lanes(128, parallel=False)
        assert multi.shape == (24, 128)
        assert np.array_equal(multi, gen.sequential_reference(128))

    def test_process_backed(self):
        from repro.gpu.multigpu import LanePartitionedGenerator

        gen = LanePartitionedGenerator("trivium", seed=1, total_lanes=32, n_devices=2)
        assert np.array_equal(
            gen.generate_lanes(64, parallel=True), gen.sequential_reference(64)
        )

    def test_partitions_cover_lanes(self):
        from repro.gpu.multigpu import LanePartitionedGenerator

        gen = LanePartitionedGenerator("grain", seed=0, total_lanes=40, n_devices=4)
        parts = gen.device_partitions()
        assert [p.n_blocks for p in parts] == [10] * 4
        assert [p.start_block for p in parts] == [0, 10, 20, 30]

    def test_no_duplicate_lanes_across_devices(self):
        from repro.gpu.multigpu import LanePartitionedGenerator

        gen = LanePartitionedGenerator("trivium", seed=2, total_lanes=16, n_devices=2)
        lanes = gen.generate_lanes(512, parallel=False)
        packed = np.packbits(lanes, axis=1)
        assert np.unique(packed, axis=0).shape[0] == 16

    def test_counter_kernels_rejected(self):
        from repro.gpu.multigpu import LanePartitionedGenerator

        with pytest.raises(SpecificationError):
            LanePartitionedGenerator("aes128ctr")

    def test_uneven_split_rejected(self):
        from repro.gpu.multigpu import LanePartitionedGenerator

        with pytest.raises(SpecificationError):
            LanePartitionedGenerator("trivium", total_lanes=10, n_devices=3)


class TestSpawnContext:
    """The spawn fallback path (platforms without fork) must reconstruct
    identically — workers receive everything through the job payload, so
    a fresh interpreter per device changes nothing."""

    def test_multi_device_spawn(self):
        gen = MultiDeviceGenerator(
            "xorwow", seed=5, lanes=64, n_devices=2, block_bytes=256, mp_context="spawn"
        )
        assert gen.mp_context == "spawn"
        assert gen.generate(4, parallel=True) == gen.sequential_reference(4)

    def test_lane_partitioned_spawn(self):
        from repro.gpu.multigpu import LanePartitionedGenerator

        gen = LanePartitionedGenerator(
            "trivium", seed=1, total_lanes=16, n_devices=2, mp_context="spawn"
        )
        assert np.array_equal(
            gen.generate_lanes(64, parallel=True), gen.sequential_reference(64)
        )

    def test_spawn_crash_recovery(self):
        # the crashed member is replaced by a fresh spawn member; the
        # fault plan travels in its pickled spec, not shared memory
        from repro.robust.faults import Fault, FaultPlan

        plan = FaultPlan((Fault("crash", 1, 0),))
        gen = MultiDeviceGenerator(
            "xorwow",
            seed=5,
            lanes=64,
            n_devices=2,
            block_bytes=256,
            mp_context="spawn",
            fault_plan=plan,
        )
        assert gen.generate(4, parallel=True) == gen.sequential_reference(4)
        assert gen.last_report.attempts[1] == 2


class TestLaneOffsetSeeding:
    """The window property behind lane partitioning, at the seeding layer."""

    def test_expand_words_window(self):
        from repro.core.seeding import expand_seed_words

        full = expand_seed_words(9, 64)
        assert np.array_equal(expand_seed_words(9, 16, word_offset=13), full[13:29])

    def test_expand_bits_window(self):
        from repro.core.seeding import expand_seed_bits

        full = expand_seed_bits(9, (1000,))
        window = expand_seed_bits(9, (80,), bit_offset=137)
        assert np.array_equal(window, full[137:217])

    def test_lane_material_window(self):
        from repro.core.seeding import derive_lane_material

        keys_full, ivs_full = derive_lane_material(5, 20, key_bits=80, iv_bits=64)
        keys_sub, ivs_sub = derive_lane_material(
            5, 4, key_bits=80, iv_bits=64, lane_offset=7
        )
        assert np.array_equal(keys_sub, keys_full[7:11])
        assert np.array_equal(ivs_sub, ivs_full[7:11])

    def test_negative_offset_rejected(self):
        from repro.core.seeding import derive_lane_material

        with pytest.raises(SpecificationError):
            derive_lane_material(0, 4, key_bits=80, iv_bits=64, lane_offset=-1)
