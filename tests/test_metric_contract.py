"""Golden contract of the ``repro_*`` series each supervised layer emits.

Dashboards, alerts and ``repro top`` key on metric names and label keys.
Each test drives one layer through a scripted failure and pins the exact
set of ``(name, label keys)`` pairs it records, so a refactor of the
worker shells or health screens cannot silently rename, drop or relabel
a series.
"""

from __future__ import annotations

import asyncio
import http.client
import threading

import pytest

from repro import obs
from repro.obs.dashboard import gauge_value, parse_prometheus
from repro.fleet import FleetConfig, Message
from repro.gpu.multigpu import MultiDeviceGenerator
from repro.robust.faults import FAULT_PLAN_ENV, Fault, FaultPlan, StuckBSRNG
from repro.robust.health import HealthMonitoredBSRNG, HealthTestError
from repro.robust.supervisor import payload_crc
from repro.serve import DaemonConfig, ServeDaemon
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


#: The daemon's engine over a one-member fleet, crash and receipt
#: failure included.  A long heartbeat interval keeps the member's own
#: series (its generator's, shipped as heartbeat deltas) out of the
#: scope: these are the series the daemon process records itself.
SERVE = {
    ("repro_fleet_bytes_total", ()),
    ("repro_fleet_chunk_seconds", ()),
    ("repro_fleet_drain_seconds", ()),
    ("repro_fleet_evictions_total", ("reason",)),
    ("repro_fleet_jobs_total", ()),
    ("repro_fleet_lease_reassignments_total", ()),
    ("repro_fleet_receipt_failures_total", ()),
    ("repro_fleet_target_workers", ()),
    ("repro_fleet_worker_bytes_total", ("worker",)),
    ("repro_fleet_worker_jobs_total", ("worker",)),
    ("repro_fleet_workers", ("state",)),
    ("repro_serve_healthy", ()),
}


#: A 4 KiB chunk ships pickled; a bulk chunk (above 16 KiB) returns
#: through the fleet's ring.
SERVE_SMALL = SERVE | {("repro_result_pickled_payload_bytes_total", ())}
SERVE_RING = SERVE | {
    ("repro_ring_payload_bytes_total", ()),
    ("repro_ring_slot_writes_total", ()),
}


def test_serve_pool_series(monkeypatch):
    """The daemon's worker pool is its fleet: the engine's series."""
    # member 0 crashes on its first job; its replacement, member 1,
    # corrupts its first (the requeued chunk 0) after the receipt
    plan = FaultPlan((Fault("crash", 0, 0), Fault("corrupt", 1, 0)), seed=3)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    for chunk, expected in ((4096, SERVE_SMALL), (65536, SERVE_RING)):
        engine = ServeEngine(
            StreamConfig(algorithm="trivium", seed=7, lanes=256),
            workers=1,
            fleet=FleetConfig(heartbeat_interval=60.0, heartbeat_timeout=120.0),
        )
        with obs.scoped() as reg:
            engine.start(chunk_bytes=chunk)
            try:
                for chunk_id in range(2):
                    engine.generate_range(chunk_id * chunk, chunk, chunk_id=chunk_id)
            finally:
                engine.close()
        assert engine.stats.worker_errors == 1 and engine.stats.crc_rejects == 1
        assert series(reg) == expected, chunk


#: The series a running daemon records itself, whatever its engine
#: records: the request counters and histogram it binds once, the
#: gauges it computes when ``/metrics`` is rendered and when it stops,
#: and the health gauge.
SERVE_DAEMON = {
    ("repro_serve_active_leases", ()),
    ("repro_serve_active_streams", ()),
    ("repro_serve_bytes_total", ()),
    ("repro_serve_healthy", ()),
    ("repro_serve_lease_high_water_bytes", ()),
    ("repro_serve_leases_total", ()),
    ("repro_serve_request_seconds", ("endpoint",)),
    ("repro_serve_requests_total", ("status",)),
    ("repro_serve_uptime_seconds", ()),
}


def test_serve_daemon_series():
    n, before, after = 1000, 5, 3  # requests before and after the scrape
    daemon = ServeDaemon(
        ServeEngine(StreamConfig(algorithm="trivium", seed=7, lanes=256), workers=0),
        DaemonConfig(port=0, chunk_bytes=2048),
    )
    with obs.scoped() as reg:
        thread = threading.Thread(target=lambda: asyncio.run(daemon.run()), daemon=True)
        thread.start()
        try:
            assert daemon.started.wait(30), "daemon failed to start"
            # one keep-alive connection: each lease is released before
            # the daemon reads the next request
            conn = http.client.HTTPConnection("127.0.0.1", daemon.bound_port, timeout=30)

            def get(path: str) -> bytes:
                conn.request("GET", path)
                resp = conn.getresponse()
                assert resp.status == 200, path
                return resp.read()

            for _ in range(before):
                assert len(get(f"/v1/bytes?n={n}")) == n
            scraped = parse_prometheus(get("/metrics").decode())
            for _ in range(after):
                get(f"/v1/bytes?n={n}")
            conn.close()
        finally:
            daemon.shutdown_threadsafe()
            thread.join(20)
        assert not thread.is_alive(), "daemon failed to drain"
    assert gauge_value(scraped, "repro_serve_lease_high_water_bytes", -1) == before * n
    assert gauge_value(scraped, "repro_serve_active_leases", -1) == 0
    assert gauge_value(scraped, "repro_serve_active_streams", -1) == 0
    # the stop sets them again, for a --metrics-out snapshot
    gauges = {
        entry["name"]: entry["value"]
        for entry in reg.snapshot()["metrics"]
        if entry["type"] == "gauge"
    }
    assert gauges["repro_serve_lease_high_water_bytes"] == (before + after) * n
    assert gauges["repro_serve_active_leases"] == 0
    assert reg.counter("repro_serve_leases_total").value == before + after
    assert {s for s in series(reg) if s[0].startswith("repro_serve_")} == SERVE_DAEMON


def test_unknown_paths_share_one_request_seconds_series():
    """``request_seconds`` is labelled by route: 50 unknown paths add one
    ``endpoint="other"`` series, not 50."""
    daemon = ServeDaemon(
        ServeEngine(StreamConfig(algorithm="trivium", seed=7, lanes=256), workers=0),
        DaemonConfig(port=0, chunk_bytes=2048),
    )
    with obs.scoped() as reg:
        thread = threading.Thread(target=lambda: asyncio.run(daemon.run()), daemon=True)
        thread.start()
        try:
            assert daemon.started.wait(30), "daemon failed to start"
            conn = http.client.HTTPConnection("127.0.0.1", daemon.bound_port, timeout=30)

            def status(path: str) -> int:
                conn.request("GET", path)
                resp = conn.getresponse()
                resp.read()
                return resp.status

            for path in ("/v1/bytes?n=16", "/v1/status", "/healthz", "/metrics"):
                assert status(path) == 200, path
            for k in range(50):
                assert status(f"/no/such/path/{k}") == 404
            conn.close()
        finally:
            daemon.shutdown_threadsafe()
            thread.join(20)
        assert not thread.is_alive(), "daemon failed to drain"
    endpoints = {
        entry["labels"]["endpoint"]
        for entry in reg.snapshot()["metrics"]
        if entry["name"] == "repro_serve_request_seconds"
    }
    assert endpoints == {"/v1/bytes", "/v1/status", "/healthz", "/metrics", "other"}
    assert len(endpoints) <= 6


FLEET = {
    ("repro_fleet_bytes_total", ()),
    ("repro_fleet_chunk_seconds", ()),
    ("repro_fleet_evictions_total", ("reason",)),
    ("repro_fleet_jobs_total", ()),
    ("repro_fleet_receipt_failures_total", ()),
    ("repro_fleet_target_workers", ()),
    ("repro_fleet_worker_bytes_total", ("worker",)),
    ("repro_fleet_worker_jobs_total", ("worker",)),
    ("repro_fleet_workers", ("state",)),
    ("repro_result_pickled_payload_bytes_total", ()),
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


#: A batch job runs on an ephemeral fleet: the controller's series join
#: the supervisor's and the partitions' own.
MULTI_DEVICE = {
    ("repro_device_attempts_total", ("device", "partition")),
    ("repro_device_wall_seconds", ("device", "partition")),
    ("repro_engine_gates", ("algorithm", "kind", "partition")),
    ("repro_fleet_bytes_total", ()),
    ("repro_fleet_chunk_seconds", ()),
    ("repro_fleet_drain_seconds", ()),
    ("repro_fleet_evictions_total", ("reason",)),
    ("repro_fleet_jobs_total", ()),
    ("repro_fleet_lease_reassignments_total", ()),
    ("repro_fleet_target_workers", ()),
    ("repro_fleet_worker_bytes_total", ("worker",)),
    ("repro_fleet_worker_jobs_total", ("worker",)),
    ("repro_fleet_workers", ("state",)),
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
    ("repro_supervisor_attempts_total", ()),
    ("repro_supervisor_events_total", ("kind",)),
    ("repro_supervisor_partition_seconds", ()),
    ("repro_supervisor_retries_total", ()),
}


#: 1 KiB partitions ship pickled; 16 KiB ones are ring-eligible and long
#: enough for a prefetched refill.
MULTI_DEVICE_SMALL = MULTI_DEVICE | {("repro_result_pickled_payload_bytes_total", ())}
MULTI_DEVICE_RING = MULTI_DEVICE | {
    ("repro_generator_prefetch_hits_total", ("algorithm", "partition")),
    ("repro_ring_payload_bytes_total", ()),
    ("repro_ring_slot_writes_total", ()),
}


def test_multi_device_series():
    runs = []
    for block_bytes, expected in ((1024, MULTI_DEVICE_SMALL), (16384, MULTI_DEVICE_RING)):
        gen = MultiDeviceGenerator(
            "trivium",
            seed=5,
            lanes=64,
            n_devices=2,
            block_bytes=block_bytes,
            fault_plan=FaultPlan((Fault("crash", 1, 0),)),
        )
        with obs.scoped() as reg:
            runs.append((gen, gen.generate(4)))
        assert gen.last_report.retried_partitions == {1}
        assert series(reg) == expected, block_bytes
    # the references last: a reference generator's speculative prefetch
    # refill records on a background thread, into whichever scope is open
    for gen, out in runs:
        assert out == gen.sequential_reference(4)


HEALTH_MONITOR = {
    ("repro_fused_clocks_per_call", ("algorithm",)),
    ("repro_fused_clocks_total", ("algorithm",)),
    ("repro_fused_kernel_calls_total", ("algorithm",)),
    ("repro_generator_buffer_swap_seconds", ("algorithm",)),
    ("repro_generator_emitted_bytes_total", ("algorithm",)),
    ("repro_generator_generated_bytes_total", ("algorithm",)),
    ("repro_generator_refill_bytes", ("algorithm",)),
    ("repro_generator_refills_total", ("algorithm",)),
    ("repro_health_failures_total", ("algorithm", "test")),
    ("repro_health_screened_bytes_total", ("algorithm",)),
    ("repro_health_startup_total", ("algorithm", "verdict")),
}


def test_health_monitor_series():
    with obs.scoped() as reg:
        # honest through the 2,500-byte startup gate and one screened
        # draw, then wedged: the screen trips and the latch holds
        mon = HealthMonitoredBSRNG(StuckBSRNG("mickey2", seed=3, lanes=64, stuck_after=3012))
        mon.random_bytes(512)
        for _ in range(2):
            with pytest.raises(HealthTestError):
                mon.random_bytes(512)
    assert not mon.health.healthy
    assert series(reg) == HEALTH_MONITOR
