"""Property-based fault-tolerance guarantee: for every fault plan that
eventually lets each partition succeed, the supervised multi-device
output equals the sequential reference byte for byte."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust.faults import Fault, FaultPlan

N_DEVICES = 3
MAX_FAULT_ATTEMPT = 2  # strictly below the retry budget: plans always succeed

# crash / corrupt / stuck faults on any (partition, attempt) the retry
# budget can outlast; delay is excluded only to keep the suite fast (the
# timeout path is covered deterministically in test_robust_supervisor)
faults = st.builds(
    Fault,
    kind=st.sampled_from(["crash", "corrupt", "stuck"]),
    partition=st.integers(0, N_DEVICES - 1),
    attempt=st.integers(0, MAX_FAULT_ATTEMPT),
    corrupt_bytes=st.integers(1, 8),
    stuck_byte=st.integers(0, 255),
)

plans = st.builds(
    FaultPlan,
    faults=st.lists(faults, max_size=6).map(tuple),
    seed=st.integers(0, 2**16),
)


class TestEventualSuccessEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=plans, seed=st.integers(0, 2**32 - 1))
    def test_supervised_output_equals_reference(self, plan, seed):
        gen = MultiDeviceGenerator(
            "xorwow",
            seed=seed,
            lanes=32,
            n_devices=N_DEVICES,
            block_bytes=128,
            max_retries=MAX_FAULT_ATTEMPT + 1,
            fault_plan=plan,
        )
        # the in-process supervised path: same retry/verify policy as the
        # pool path without per-example process fan-out cost
        assert gen.generate(5, parallel=False) == gen.sequential_reference(5)

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plan=plans)
    def test_process_backed_equivalence(self, plan):
        gen = MultiDeviceGenerator(
            "xorwow",
            seed=11,
            lanes=32,
            n_devices=N_DEVICES,
            block_bytes=128,
            max_retries=MAX_FAULT_ATTEMPT + 1,
            fault_plan=plan,
        )
        assert gen.generate(4, parallel=True) == gen.sequential_reference(4)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_devices=st.integers(1, 6),
        total_blocks=st.integers(0, 12),
        crash_partition=st.integers(0, 5),
    )
    def test_any_geometry_single_crash(self, n_devices, total_blocks, crash_partition):
        plan = FaultPlan((Fault("crash", crash_partition, 0),))
        gen = MultiDeviceGenerator(
            "xorwow",
            seed=3,
            lanes=32,
            n_devices=n_devices,
            block_bytes=64,
            fault_plan=plan,
        )
        assert gen.generate(total_blocks, parallel=False) == gen.sequential_reference(
            total_blocks
        )
