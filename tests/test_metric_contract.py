"""Golden contract of the ``repro_*`` series each supervised layer emits.

Dashboards, alerts and ``repro top`` key on metric names and label keys.
Each test drives one layer through a scripted failure and pins the exact
set of ``(name, label keys)`` pairs it records, so a refactor of the
worker shells or health screens cannot silently rename, drop or relabel
a series.
"""

from __future__ import annotations

from repro import obs
from repro.fleet import Message
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan, StuckBSRNG
from repro.robust.health import HealthMonitoredBSRNG
from repro.robust.supervisor import SupervisorConfig, payload_crc
from repro.serve.engine import ServeEngine, StreamConfig
from tests.test_fleet import make_fleet, register_all, result_msg, stream_bytes


def series(reg) -> set[tuple[str, tuple[str, ...]]]:
    """``(name, sorted label keys)`` of every ``repro_*`` series in *reg*.

    The fused-kernel cache series are left out: whether a generator
    records a cache hit or a miss depends on which kernels the process
    (or the parent it forked from) compiled before the test ran.
    """
    return {
        (entry["name"], tuple(sorted(entry["labels"])))
        for entry in reg.snapshot()["metrics"]
        if entry["name"].startswith("repro_")
        and not entry["name"].startswith("repro_kernel_cache_")
    }


SERVE_POOL = {
    ("repro_serve_chunk_failures_total", ("kind",)),
    ("repro_serve_chunk_retries_total", ()),
    ("repro_serve_healthy", ()),
    ("repro_serve_pool_workers", ()),
    ("repro_serve_worker_exceptions_total", ("exception",)),
}


#: A bulk chunk (above 16 KiB) returns through the pool's ring.
SERVE_POOL_RING = SERVE_POOL | {
    ("repro_ring_payload_bytes_total", ()),
    ("repro_ring_slot_writes_total", ()),
}


def test_serve_pool_series(monkeypatch):
    plan = FaultPlan((Fault("crash", 0, 0), Fault("corrupt", 1, 0)), seed=3)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    for chunk, expected in ((4096, SERVE_POOL), (65536, SERVE_POOL_RING)):
        engine = ServeEngine(
            StreamConfig(algorithm="trivium", seed=7, lanes=256),
            workers=1,
            supervision=SupervisorConfig(timeout=60.0, max_retries=2, backoff_base=0.0),
        )
        with obs.scoped() as reg:
            engine.start()
            try:
                for chunk_id in range(2):
                    engine.generate_range(chunk_id * chunk, chunk, chunk_id=chunk_id)
            finally:
                engine.close()
        assert engine.stats.worker_errors == 1 and engine.stats.crc_rejects == 1
        assert series(reg) == expected, chunk


FLEET = {
    ("repro_fleet_bytes_total", ()),
    ("repro_fleet_chunk_seconds", ()),
    ("repro_fleet_evictions_total", ("reason",)),
    ("repro_fleet_jobs_total", ()),
    ("repro_fleet_receipt_failures_total", ()),
    ("repro_fleet_target_workers", ()),
    ("repro_fleet_workers", ("state",)),
    ("repro_result_pickled_payload_bytes_total", ()),
    ("repro_serve_active_leases", ()),
    ("repro_serve_lease_high_water_bytes", ()),
    ("repro_serve_leases_total", ()),
}


def test_fleet_series():
    good = stream_bytes(0, 256)  # the reference draw stays out of the scope
    with obs.scoped() as reg:
        ctrl, transport, clock = make_fleet(max_strikes=1)
        register_all(ctrl, transport, clock)
        (job,) = ctrl.submit_range(0, 256)
        owner = next(wid for wid, sent in transport.sent.items() if job in sent)
        flipped = good[:-1] + bytes([good[-1] ^ 1])
        ctrl.handle_message(
            Message("result", owner, job_id=job.job_id, payload=flipped, crc=payload_crc(good)),
            clock.now,
        )
        ctrl.reconcile(clock.now)
        peer = next(
            wid for wid, m in ctrl.members.items()
            if m.state == "live" and job.job_id in m.inflight
        )
        ctrl.handle_message(result_msg(job, peer, good), clock.now)
        assert ctrl.try_collect([job]) == good
        ctrl.close()
    assert ctrl.evictions == 1
    assert series(reg) == FLEET


MULTI_DEVICE = {
    ("repro_device_attempts_total", ("device", "partition")),
    ("repro_device_wall_seconds", ("device", "partition")),
    ("repro_engine_gates", ("algorithm", "kind", "partition")),
    ("repro_engine_lanes", ("algorithm", "partition")),
    ("repro_engine_word_width", ("algorithm", "partition")),
    ("repro_fused_clocks_per_call", ("algorithm", "partition")),
    ("repro_fused_clocks_total", ("algorithm", "partition")),
    ("repro_fused_kernel_calls_total", ("algorithm", "partition")),
    ("repro_generator_buffer_swap_seconds", ("algorithm", "partition")),
    ("repro_generator_clocks_per_call", ("algorithm", "partition")),
    ("repro_generator_emitted_bytes_total", ("algorithm", "partition")),
    ("repro_generator_fused", ("algorithm", "partition")),
    ("repro_generator_gates_per_bit", ("algorithm", "partition")),
    ("repro_generator_generated_bytes_total", ("algorithm", "partition")),
    ("repro_generator_lanes", ("algorithm", "kind", "partition")),
    ("repro_generator_refill_bytes", ("algorithm", "partition")),
    ("repro_generator_refills_total", ("algorithm", "partition")),
    ("repro_generator_skipped_bytes_total", ("algorithm", "partition")),
    ("repro_ring_payload_bytes_total", ()),
    ("repro_ring_slot_writes_total", ()),
    ("repro_supervisor_attempts_total", ()),
    ("repro_supervisor_events_total", ("kind",)),
    ("repro_supervisor_partition_seconds", ()),
    ("repro_supervisor_retries_total", ()),
}


def test_multi_device_series():
    gen = MultiDeviceGenerator(
        "trivium",
        seed=5,
        lanes=64,
        n_devices=2,
        block_bytes=1024,
        fault_plan=FaultPlan((Fault("crash", 1, 0),)),
    )
    with obs.scoped() as reg:
        out = gen.generate(4)
    assert out == gen.sequential_reference(4)
    assert gen.last_report.retried_partitions == {1}
    assert series(reg) == MULTI_DEVICE


HEALTH_MONITOR = {
    ("repro_fused_clocks_per_call", ("algorithm",)),
    ("repro_fused_clocks_total", ("algorithm",)),
    ("repro_fused_kernel_calls_total", ("algorithm",)),
    ("repro_generator_buffer_swap_seconds", ("algorithm",)),
    ("repro_generator_emitted_bytes_total", ("algorithm",)),
    ("repro_generator_generated_bytes_total", ("algorithm",)),
    ("repro_generator_refill_bytes", ("algorithm",)),
    ("repro_generator_refills_total", ("algorithm",)),
    ("repro_generator_reseeds_total", ("algorithm",)),
    ("repro_health_failures_total", ("algorithm", "test")),
    ("repro_health_reseeds_total", ("algorithm",)),
    ("repro_health_screened_bytes_total", ("algorithm",)),
    ("repro_health_startup_total", ("algorithm", "verdict")),
}


def test_health_monitor_series():
    with obs.scoped() as reg:
        # honest through the 2,500-byte startup gate, then wedged until
        # the reseed the degrade policy performs
        mon = HealthMonitoredBSRNG(
            StuckBSRNG("mickey2", seed=3, lanes=64, stuck_after=2500),
            on_failure="degrade",
        )
        mon.random_bytes(1024)
    assert mon.log.reseeds == 1
    assert series(reg) == HEALTH_MONITOR
