"""Fleet integration: real worker processes over LocalProcessTransport.

Sized for a small CI box — few workers, small chunks, generous heartbeat
deadlines (the container may have a single core, so freshly launched
workers can be CPU-starved by a busy sibling; a tight deadline would
evict healthy members and make these tests flaky)."""

import os
import pathlib
import subprocess
import sys
import textwrap
import time

from repro.fleet import FleetConfig, FleetController
from repro.robust.faults import Fault, FaultPlan
from repro.robust.health import HealthScreen
from repro.serve.engine import ServeEngine, StreamConfig

STREAM = StreamConfig(algorithm="trivium", seed=9, lanes=64)


def reference(n: int, offset: int = 0) -> bytes:
    rng = STREAM.make_rng()
    rng.skip_bytes(offset)
    return rng.random_bytes(n)


def make_config(**overrides) -> FleetConfig:
    defaults = dict(
        workers=2,
        heartbeat_interval=0.2,
        heartbeat_timeout=4.0,
        chunk_bytes=4096,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestCleanFleet:
    def test_bit_identical_merge(self):
        with FleetController(STREAM, make_config()) as ctrl:
            data = ctrl.read_range(0, 65536, timeout=120)
            status = ctrl.status()
        assert data == reference(65536)
        assert status["counters"]["jobs_completed"] == 16
        assert status["counters"]["stale_results"] == 0

    def test_nonzero_offset_and_repeat_reads(self):
        with FleetController(STREAM, make_config()) as ctrl:
            first = ctrl.read_range(8192, 4096, timeout=120)
            second = ctrl.read_range(0, 8192, timeout=120)
        assert first == reference(4096, offset=8192)
        assert second == reference(8192)


class TestChaosDrills:
    def test_crash_and_silence_evicted_bit_identical(self):
        plan = FaultPlan(
            faults=(
                Fault("crash", partition=0, attempt=1),  # dies on its 2nd job
                Fault("hb_silence", partition=1, attempt=0),  # registers, never beats
            ),
            seed=5,
        )
        config = make_config(workers=3, heartbeat_timeout=2.0)
        with FleetController(STREAM, config, fault_plan=plan) as ctrl:
            data = ctrl.read_range(0, 262144, timeout=180)
            status = ctrl.status()
        assert data == reference(262144)
        reasons = {w["evicted_reason"] for w in status["workers"] if w["state"] == "evicted"}
        assert "crash" in reasons
        assert status["counters"]["evictions"] >= 1
        # replacements kept the fleet at target
        live = [w for w in status["workers"] if w["state"] in ("live", "launching")]
        assert len(live) >= 1

    def test_slow_bleed_strikes_out_bit_identical(self):
        plan = FaultPlan(
            faults=(Fault("slow_bleed", partition=0, attempt=0, corrupt_bytes=2),),
            seed=6,
        )
        config = make_config(max_strikes=2)
        with FleetController(STREAM, config, fault_plan=plan) as ctrl:
            data = ctrl.read_range(0, 131072, timeout=180)
            status = ctrl.status()
        assert data == reference(131072)
        evicted = [w for w in status["workers"] if w["state"] == "evicted"]
        assert any(w["evicted_reason"] == "corrupt" for w in evicted)

    def test_every_initial_worker_lost_still_serves(self):
        plan = FaultPlan(
            faults=tuple(Fault("crash", partition=p, attempt=0) for p in range(2)),
            seed=7,
        )
        with FleetController(STREAM, make_config(), fault_plan=plan) as ctrl:
            data = ctrl.read_range(0, 32768, timeout=180)
            status = ctrl.status()
        assert data == reference(32768)
        assert status["counters"]["evictions"] >= 2


class TestOneChannelPerMember:
    def test_repeated_evictions_never_wedge_the_fleet(self):
        """Killing the newest live member 30 times, 50 ms apart, breaks
        only that member's pipe: every replacement registers and
        heartbeats, nobody is evicted for silence, and the fleet then
        serves bit-identical bytes."""
        config = make_config(heartbeat_interval=0.01, heartbeat_timeout=1.0, max_evictions=100)

        def states(ctrl) -> dict[int, str]:
            return {w["worker_id"]: w["state"] for w in ctrl.status()["workers"]}

        def wait_for(predicate, what: str) -> None:
            deadline = time.monotonic() + 20.0
            while not predicate():
                assert time.monotonic() < deadline, f"{what} within 20 s"
                ctrl.pump(0.01)  # nothing else pumps: the waiter does

        with FleetController(STREAM, config) as ctrl:
            for _ in range(30):
                wait_for(lambda: "live" in states(ctrl).values(), "a live member")
                victim = max(wid for wid, state in states(ctrl).items() if state == "live")
                ctrl.transport.kill(victim)
                wait_for(lambda: states(ctrl)[victim] == "evicted", "the kill noticed")
                time.sleep(0.05)
            data = ctrl.read_range(0, 65536, timeout=60)
            status = ctrl.status()
        assert data == reference(65536)
        reasons = [w["evicted_reason"] for w in status["workers"] if w["state"] == "evicted"]
        assert len(reasons) == 30 and set(reasons) == {"crash"}, status["events"]

    def test_screen_trip_chunk_is_served_without_eviction(self):
        """The chunk holding Trivium seed 0's first 2^-20 RCT trip (byte
        685,976) comes back as the offline bytes, fast, with no eviction:
        the fleet checks receipts, the service latch screens."""
        stream = StreamConfig("trivium", 0, 4096)
        offline = stream.make_rng()
        offline.skip_bytes(655360)
        expected = offline.random_bytes(65536)
        assert HealthScreen(2.0**-20).update(expected) is not None
        with FleetController(stream, FleetConfig(workers=2)) as ctrl:
            t0 = time.perf_counter()
            data = ctrl.read_range(655360, 65536, timeout=60)
            elapsed = time.perf_counter() - t0
            evictions = ctrl.evictions
        assert data == expected
        assert evictions == 0
        assert elapsed < 1.0

    def test_kernel_imported_before_the_first_member_forks(self):
        """A replacement forked while a parent thread is mid-import of
        the kernel module would inherit the held module lock and hang on
        its first job; the transport imports the kernel up front, before
        any parent-side generator is built."""
        code = textwrap.dedent(
            """
            import sys
            from repro.fleet import FleetConfig, FleetController
            from repro.serve.engine import StreamConfig

            MOD = "repro.ciphers.trivium_bitsliced"
            assert MOD not in sys.modules
            built = []
            make_rng = StreamConfig.make_rng
            StreamConfig.make_rng = lambda self: built.append(MOD in sys.modules) or make_rng(self)
            ctrl = FleetController(StreamConfig("trivium", 3, 64), FleetConfig(workers=1))
            assert MOD in sys.modules and not built
            ctrl.start()
            data = ctrl.read_range(0, 4096, timeout=60)
            ctrl.close()
            assert len(data) == 4096 and not built
            """
        )
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env.pop("REPRO_FAULT_PLAN", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestServeEngineFleet:
    def test_engine_routes_through_fleet(self):
        engine = ServeEngine(STREAM, fleet=make_config())
        engine.start(chunk_bytes=4096)
        try:
            data = engine.generate_range(0, 16384)
            status = engine.status()
        finally:
            engine.close()
        assert data == reference(16384)
        assert status["workers"] == 2
        assert status["fleet"] is not None
        assert status["fleet"]["counters"]["jobs_completed"] >= 1
        assert engine.stats.chunks_ok == 1

    def test_engine_survives_worker_loss(self, monkeypatch):
        # the engine builds its own controller; faults reach the workers
        # the deployment way, through REPRO_FAULT_PLAN
        plan = FaultPlan(faults=(Fault("crash", partition=0, attempt=0),), seed=8)
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        engine = ServeEngine(STREAM, fleet=make_config())
        engine.start(chunk_bytes=4096)
        try:
            data = engine.generate_range(0, 16384)
        finally:
            engine.close()
        assert data == reference(16384)
        assert engine.stats.chunks_ok == 1


class TestSilenceEviction:
    def test_silent_worker_evicted_during_long_run(self):
        """Give the run enough wall time for the silence deadline to fire.

        Generation speed can't be relied on for that (the fused kernels
        got fast enough to finish the whole range inside the deadline),
        so the *silent* worker is paced with per-job delays summing past
        its own liveness deadline: its in-flight jobs keep the run open
        until the deadline fires, then get reassigned to the healthy
        peer — making the eviction window deterministic.
        """
        pacing = tuple(
            Fault("delay", partition=0, attempt=k, delay=0.7) for k in range(4)
        )
        plan = FaultPlan(
            faults=(Fault("hb_silence", partition=0, attempt=0),) + pacing, seed=9
        )
        config = make_config(workers=2, heartbeat_interval=0.1, heartbeat_timeout=1.0)
        with FleetController(STREAM, config, fault_plan=plan) as ctrl:
            data = ctrl.read_range(0, 393216, timeout=240)
            status = ctrl.status()
        assert data == reference(393216)
        assert any(
            w["evicted_reason"] == "heartbeat"
            for w in status["workers"]
            if w["state"] == "evicted"
        )


class TestFleetTracing:
    def test_worker_spans_merge_under_one_trace(self):
        """≥2 worker processes' spans stitch into the controller's trace."""
        import os

        from repro import obs

        tracer = obs.enable_tracing()
        try:
            with FleetController(STREAM, make_config(workers=2)) as ctrl:
                # enough chunks that both members serve at least one
                data = ctrl.read_range(0, 65536, timeout=120)
            records = tracer.records
        finally:
            obs.disable_tracing()
        assert data == reference(65536)
        root = next(r for r in records if r.name == "fleet.read_range")
        chunks = [r for r in records if r.name == "fleet.worker_chunk"]
        worker_pids = {r.pid for r in chunks}
        assert len(worker_pids) >= 2, "expected spans from at least two workers"
        assert os.getpid() not in worker_pids
        # single trace end to end, every parent link resolvable
        in_trace = [r for r in records if r.trace_id == root.trace_id]
        assert root in in_trace and all(c in in_trace for c in chunks)
        span_ids = {r.span_id for r in in_trace}
        assert len(span_ids) == len(in_trace)  # unique across processes
        for rec in in_trace:
            assert rec.parent_id is None or rec.parent_id in span_ids
        for chunk in chunks:
            assert chunk.parent_id == root.span_id
        # the controller labelled each merged span with its worker id
        assert {c.args.get("worker") for c in chunks} >= {0, 1}
