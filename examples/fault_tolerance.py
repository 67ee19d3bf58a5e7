#!/usr/bin/env python
"""Fault-tolerant multi-device generation.

Scripts three injected failures against a 4-device job — a crashed
device, a hung device, and a corrupted transfer — and shows the
supervisor recover every one with byte-identical output, because each
partition is a pure function of ``(seed, start_block, n_blocks)``.
Then wedges a generator at a constant byte and shows the SP 800-90B
Repetition Count Test catch it within a handful of samples, and the
health latch refuse every later draw until it is reset.

Run:  python examples/fault_tolerance.py
"""

import time

from repro.errors import HealthTestError
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust import Fault, FaultPlan, HealthMonitoredBSRNG, StuckBSRNG

BLOCK_BYTES = 1 << 14
TOTAL_BLOCKS = 8
N_DEVICES = 4


def main() -> None:
    plan = FaultPlan(
        (
            Fault("crash", partition=1, attempt=0),  # device 1 dies on first try
            Fault("delay", partition=2, attempt=0, delay=30.0),  # device 2 hangs
            Fault("corrupt", partition=3, attempt=0, corrupt_bytes=5),  # bad transfer
        ),
        seed=2024,
    )
    gen = MultiDeviceGenerator(
        "aes128ctr",
        seed=99,
        lanes=1024,
        n_devices=N_DEVICES,
        block_bytes=BLOCK_BYTES,
        timeout=2.0,
        max_retries=2,
        fault_plan=plan,
    )

    print(f"{N_DEVICES}-device job, {TOTAL_BLOCKS} blocks x {BLOCK_BYTES} bytes")
    print("injected: crash on device 1, 30s hang on device 2, 5 corrupted bytes on device 3")
    t0 = time.perf_counter()
    multi = gen.generate(TOTAL_BLOCKS, parallel=True)
    elapsed = time.perf_counter() - t0

    print(f"\nsupervisor report ({elapsed:.2f}s wall):")
    for event in gen.last_report.events:
        print(f"  device {event.partition} attempt {event.attempt}: {event.kind}  ({event.detail})")
    print(f"  attempts per device: {dict(sorted(gen.last_report.attempts.items()))}")

    reference = gen.sequential_reference(TOTAL_BLOCKS)
    assert multi == reference
    print(f"\nrecovered output == sequential reference ({len(multi):,} bytes)  [OK]")

    # -- continuous health tests: a wedged bank ------------------------------------
    print("\nwedging a generator at 0xAA after 100 honest bytes...")
    stuck = StuckBSRNG("xorwow", seed=7, lanes=256, stuck_byte=0xAA, stuck_after=100)
    monitor = HealthMonitoredBSRNG(stuck, startup_test=False)
    try:
        monitor.random_bytes(4096)
        raise AssertionError("health tests missed a stuck-at fault")
    except HealthTestError as exc:
        print(f"repetition count test tripped: {exc}  [OK]")

    # the error state is sticky: no further output until an operator resets
    try:
        monitor.random_bytes(16)
        raise AssertionError("the monitor emitted after a health-test failure")
    except HealthTestError as exc:
        print(f"next draw refused: {exc}  [OK]")
    monitor.health.reset()
    assert monitor.health.healthy
    print(f"health.reset() cleared the latch ({len(monitor.health.events)} event kept)  [OK]")

if __name__ == "__main__":
    main()
